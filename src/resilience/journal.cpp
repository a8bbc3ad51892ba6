#include "resilience/journal.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/atomic_write.hpp"

namespace simsweep::resilience {

JournalWriter::JournalWriter(std::string path) : path_(std::move(path)) {}

void JournalWriter::append(std::string line, bool flush_now) {
  if (line.find('\n') != std::string::npos)
    throw std::invalid_argument("journal: record must be a single line");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(std::move(line));
  }
  if (flush_now) flush();
}

void JournalWriter::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string payload;
  for (const std::string& line : lines_) {
    payload += line;
    payload += '\n';
  }
  obs::atomic_write_file(path_, payload);
}

std::size_t JournalWriter::record_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

std::vector<JournalLine> read_journal(const std::string& path) {
  std::vector<JournalLine> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JournalLine record;
    try {
      record.value = parse_json(line);
    } catch (const JsonError&) {
      break;  // torn tail from a non-atomic writer: keep the durable prefix
    }
    record.raw = std::move(line);
    out.push_back(std::move(record));
  }
  return out;
}

core::TrialStats read_trial_stats(const JsonValue& v) {
  core::TrialStats s;
  s.mean = v.at("mean").as_double();
  s.stddev = v.at("stddev").as_double();
  s.min = v.at("min").as_double();
  s.max = v.at("max").as_double();
  s.trials = v.at("trials").as_size();
  s.unfinished = v.at("unfinished").as_size();
  s.stalled = v.at("stalled").as_size();
  s.resource_exhausted = v.at("resource_exhausted").as_size();
  s.mean_adaptations = v.at("mean_adaptations").as_double();
  s.mean_crashes = v.at("mean_crashes").as_double();
  s.mean_transfer_failures = v.at("mean_transfer_failures").as_double();
  s.mean_recoveries = v.at("mean_recoveries").as_double();
  s.mean_checkpoint_failures = v.at("mean_checkpoint_failures").as_double();
  s.mean_time_lost_s = v.at("mean_time_lost_s").as_double();
  s.audit_violations = v.at("audit_violations").as_size();
  return s;
}

}  // namespace simsweep::resilience
