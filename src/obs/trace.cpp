#include "obs/trace.hpp"

#include <cstdio>

namespace prs::obs {
namespace {

/// Shortest deterministic decimal that round-trips a double; identical
/// inputs format identically on every run and platform (IEEE-754 + C
/// locale), which the byte-identical-trace guarantee rests on.
std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  for (int prec = 1; prec <= 16; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    std::sscanf(probe, "%lf", &parsed);
    if (parsed == v) return probe;
  }
  return buf;
}

std::string quote_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

TraceArg arg(std::string key, double value) {
  return {std::move(key), format_number(value)};
}

TraceArg arg(std::string key, std::uint64_t value) {
  return {std::move(key), std::to_string(value)};
}

TraceArg arg(std::string key, int value) {
  return {std::move(key), std::to_string(value)};
}

TraceArg arg(std::string key, const char* value) {
  return {std::move(key), quote_json(value)};
}

TraceArg arg(std::string key, const std::string& value) {
  return {std::move(key), quote_json(value)};
}

TraceRecorder::~TraceRecorder() {
  if (sim_.tracer() != this) return;
  sim_.shutdown();
  sim_.set_tracer(nullptr);
}

TrackId TraceRecorder::track(const std::string& process,
                             const std::string& thread) {
  auto key = std::make_pair(process, thread);
  auto it = track_index_.find(key);
  if (it != track_index_.end()) return it->second;

  auto pid_it = pid_index_.find(process);
  if (pid_it == pid_index_.end()) {
    pid_it = pid_index_
                 .emplace(process,
                          static_cast<std::uint32_t>(pid_index_.size()))
                 .first;
    next_tid_.push_back(0);
  }
  const std::uint32_t pid = pid_it->second;
  const auto id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(TraceTrack{process, thread, pid, next_tid_[pid]++});
  track_index_.emplace(std::move(key), id);
  return id;
}

void TraceRecorder::complete(TrackId track, std::string name,
                             std::string category, double begin, double end,
                             std::vector<TraceArg> args) {
  if (!enabled_) return;
  PRS_REQUIRE(track < tracks_.size(), "unknown trace track");
  PRS_REQUIRE(end >= begin, "span must end at or after its begin");
  events_.push_back(TraceEvent{TraceEvent::Phase::kComplete, track, begin,
                               end - begin, std::move(name),
                               std::move(category), std::move(args)});
}

void TraceRecorder::instant(TrackId track, std::string name,
                            std::string category,
                            std::vector<TraceArg> args) {
  if (!enabled_) return;
  PRS_REQUIRE(track < tracks_.size(), "unknown trace track");
  events_.push_back(TraceEvent{TraceEvent::Phase::kInstant, track, sim_.now(),
                               0.0, std::move(name), std::move(category),
                               std::move(args)});
}

void TraceRecorder::counter(TrackId track, std::string name, double value) {
  if (!enabled_) return;
  PRS_REQUIRE(track < tracks_.size(), "unknown trace track");
  TraceEvent e{TraceEvent::Phase::kCounter, track, sim_.now(), 0.0,
               std::move(name), {}, {}};
  e.args.push_back(arg("value", value));
  events_.push_back(std::move(e));
}

}  // namespace prs::obs
