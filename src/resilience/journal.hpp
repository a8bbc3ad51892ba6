// Crash-consistent sweep journal: an append-only JSONL record of completed
// cells.
//
// The journal is the durability primitive behind `sweep --resume`: every
// completed cell appends one self-contained JSON line (cell digest, seed,
// outcome, serialized results), and the file is republished crash-
// consistently on every flush — the full contents are written to
// `<path>.tmp`, fsync'ed, and atomically renamed over `<path>`, so a reader
// only ever sees a complete journal from *some* prefix of the run, never a
// torn write.  SIGKILL at any instant loses at most the cells not yet
// flushed, and a resumed sweep replays the survivors byte-for-byte.
//
// The writer holds the lines in memory (a sweep journals one line per cell,
// hundreds at most) and is thread-safe: worker threads finishing cells call
// append() concurrently.  Record *content* is the caller's contract — the
// journal stores opaque single-line strings and hands parsed JSON back.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "resilience/json_read.hpp"

namespace simsweep::resilience {

class JournalWriter {
 public:
  /// Binds the writer to `path`.  Nothing is written until the first
  /// append/flush; an existing file is only replaced then.
  explicit JournalWriter(std::string path);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record (must be a single line — no '\n') and, by default,
  /// flushes the whole journal durably.  Throws std::runtime_error when the
  /// temp file cannot be written or renamed.
  void append(std::string line, bool flush_now = true);

  /// Durably republishes the journal: write <path>.tmp, fsync, rename over
  /// <path>, fsync the directory.
  void flush();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t record_count() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
};

/// One parsed journal line plus its raw text (adopted verbatim on resume).
struct JournalLine {
  std::string raw;
  JsonValue value;
};

/// Reads `path` and parses each line.  A missing file returns an empty
/// vector (resume of a journal that never got written is a fresh start).
/// Reading stops silently at the first malformed line: with the atomic-
/// rename writer that only happens when someone else appended to the file,
/// and the torn tail is exactly the part that was never durable.
[[nodiscard]] std::vector<JournalLine> read_journal(const std::string& path);

/// Reads the "stats" object of a sweep journal's cell record back into the
/// TrialStats whose print_json wrote it.  Strict: every field is required
/// and numeric (a completed cell's stats are finite, so null is an error).
/// Exact: each double was written shortest round-trip.
[[nodiscard]] core::TrialStats read_trial_stats(const JsonValue& v);

}  // namespace simsweep::resilience
