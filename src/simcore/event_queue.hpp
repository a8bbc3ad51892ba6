// Pending-event set for the discrete-event engine.
//
// Events live in a slab of slots.  Each slot holds the event's callback and
// a generation counter, and freed slots go on a free list, so a queue in
// steady state schedules, fires and cancels without allocating.  A binary
// min-heap of small POD nodes {time, seq, slot, generation} orders the
// events by (time, sequence number): ties in simulated time are broken by
// insertion order, which makes event processing fully deterministic.
//
// An EventHandle is {queue, slot, generation}.  Firing or cancelling an
// event bumps its slot's generation and frees the slot, so the handle and
// the heap node that name the old generation both go stale at once.
// Cancellation is lazy: a stale node stays buried in the heap until it
// reaches the top, where it is dropped — keeping push/pop at O(log n) with
// no auxiliary index structure.
//
// Handle lifetime: a handle points at the queue that issued it, so it must
// not be cancelled or queried after that queue (and so its Simulator) is
// destroyed — the same rule as FairShare entries.  Destroying a handle is
// always safe.  Generations are 32-bit; a stale handle could only alias a
// later event after its slot was reused 2^32 times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simcore/sim_time.hpp"

namespace simsweep::sim {

class EventQueue;

/// Handle to a scheduled event; lets the scheduler cancel it later.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Safe to call repeatedly and
  /// on default-constructed handles.
  void cancel();

  /// True when this handle refers to an event that is still pending
  /// (scheduled, not yet fired, not cancelled).
  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Min-heap of (time, seq) over a slab of callbacks, with lazy cancellation.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  // Handles hold the queue's address.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at absolute simulated time `at`.
  EventHandle schedule(SimTime at, Callback cb) {
    std::uint32_t slot = 0;
    if (free_.empty()) {
      if (slots_.size() == std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("EventQueue: too many pending events");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(cb), 0});
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].callback = std::move(cb);
    }
    const std::uint32_t generation = slots_[slot].generation;
    push(Node{at, next_seq_++, slot, generation});
    return EventHandle(this, slot, generation);
  }

  /// True when no live (non-cancelled) event remains.  Lazily purges
  /// cancelled entries from the top of the heap.
  [[nodiscard]] bool empty() { return !live_top(); }

  /// Upper bound on the number of live events (cancelled entries buried in
  /// the heap are still counted until they surface).  Diagnostic only.
  [[nodiscard]] std::size_t size_bound() const { return heap_.size(); }

  /// Total events ever scheduled (fired, cancelled or pending).  The
  /// auditor checks fired-event counts against this bound.
  [[nodiscard]] std::uint64_t scheduled_total() const noexcept {
    return next_seq_;
  }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() {
    return live_top() ? top_time() : kTimeInfinity;
  }

  /// Removes and returns the earliest live event.  Precondition: !empty().
  [[nodiscard]] std::pair<SimTime, Callback> pop() {
    (void)live_top();
    return pop_top();
  }

  /// Drops cancelled entries off the top of the heap; true when a live
  /// event is left there.  The run loop calls this once per fired event and
  /// then uses the unpurged top_time() and pop_top().
  [[nodiscard]] bool live_top() {
    while (!heap_.empty()) {
      if (live(heap_.front().slot, heap_.front().generation)) return true;
      pop_node();
    }
    return false;
  }

  /// Time of the top event.  Precondition: live_top() returned true and the
  /// queue has not changed since.
  [[nodiscard]] SimTime top_time() const { return heap_.front().time; }

  /// Removes and returns the top event, moving its callback out of the slab.
  /// Fired events report pending() == false.  Same precondition as
  /// top_time().
  [[nodiscard]] std::pair<SimTime, Callback> pop_top() {
    const Node top = heap_.front();
    pop_node();
    Callback cb = std::move(slots_[top.slot].callback);
    release(top.slot);
    return {top.time, std::move(cb)};
  }

 private:
  friend class EventHandle;

  struct Slot {
    Callback callback;
    std::uint32_t generation;
  };

  struct Node {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool live(std::uint32_t slot,
                          std::uint32_t generation) const {
    return slots_[slot].generation == generation;
  }

  void cancel(std::uint32_t slot, std::uint32_t generation) {
    if (!live(slot, generation)) return;
    // Destroy the callback only after the slab is consistent again: its
    // captures may cancel or schedule other events as they are released.
    Callback dead = std::move(slots_[slot].callback);
    release(slot);
  }

  void release(std::uint32_t slot) {
    ++slots_[slot].generation;
    free_.push_back(slot);
  }

  void push(const Node& node) {
    std::size_t hole = heap_.size();
    heap_.push_back(node);
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(node, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = node;
  }

  /// Removes the heap's top node.
  void pop_node() {
    const Node last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], last)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = last;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Node> heap_;
  std::uint64_t next_seq_ = 0;
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->live(slot_, generation_);
}

}  // namespace simsweep::sim
