// Virtual-clock execution tracing (the runtime's observability layer).
//
// A TraceRecorder collects spans ("X" complete events), instant markers and
// counter samples stamped with the simulator's virtual clock. Because the
// simulator is deterministic, so is the trace: two identical runs produce
// byte-identical exports (obs/export.hpp turns the buffer into Chrome
// trace-event JSON for chrome://tracing / Perfetto, and the embedded
// MetricsRegistry into a flat CSV/JSON dump).
//
// Track model: every event lives on a track addressed as (process, thread).
// The convention used by the instrumented layers:
//   process "node<r>"   — one per fat node
//     thread "runner"       job phases + scheduler-decision markers
//     thread "cpu.core<k>"  CPU daemon worker lanes (one per busy core)
//     thread "gpu<g>.s<s>"  GPU daemon, card g stream s (kernels + copies)
//     thread "nic"          fabric egress (message delivery spans)
//     thread "region"       region-allocator chunk growth / clears
// pids/tids are assigned in first-registration order, which is simulator
// event order, hence deterministic.
//
// Cost when disabled: instrumentation sites fetch the recorder with
// sim::Simulator::tracer(); when none is attached (the default) the whole
// site is one pointer null-check — no string formatting, no allocation.
// Every TraceRecorder member is additionally a no-op while !enabled().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "simtime/simulator.hpp"

namespace prs::obs {

/// Index into TraceRecorder's track table.
using TrackId = std::uint32_t;

/// One pre-formatted event argument: `value` is a ready JSON literal
/// (quoted string or plain number) produced by the arg() helpers.
struct TraceArg {
  std::string key;
  std::string value;
};

/// Formats a numeric/string value as a JSON literal argument.
TraceArg arg(std::string key, double value);
TraceArg arg(std::string key, std::uint64_t value);
TraceArg arg(std::string key, int value);
TraceArg arg(std::string key, const char* value);
TraceArg arg(std::string key, const std::string& value);

/// One recorded event. `ts`/`dur` are virtual seconds.
struct TraceEvent {
  enum class Phase : std::uint8_t {
    kComplete,  // span with duration ("X")
    kInstant,   // point marker ("i")
    kCounter,   // counter sample ("C")
  };

  Phase phase = Phase::kInstant;
  TrackId track = 0;
  double ts = 0.0;
  double dur = 0.0;  // kComplete only
  std::string name;
  std::string category;
  std::vector<TraceArg> args;
};

/// A (process, thread) pair resolved to Chrome-trace pid/tid numbers.
struct TraceTrack {
  std::string process;
  std::string thread;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
};

class TraceRecorder {
 public:
  explicit TraceRecorder(sim::Simulator& sim) : sim_(sim) {}
  /// While attached, shuts the simulator down first: spans held by its
  /// suspended processes close into this recorder on the way out.
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Recording switch; every record call is a no-op while false.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Current virtual time (convenience for span begin timestamps).
  double now() const { return sim_.now(); }

  /// Resolves (process, thread) to a TrackId, registering it on first use.
  /// pids follow process first-seen order, tids thread order within one
  /// process — deterministic because registration happens in event order.
  TrackId track(const std::string& process, const std::string& thread);

  /// Records a span covering [begin, end] on `track`.
  void complete(TrackId track, std::string name, std::string category,
                double begin, double end, std::vector<TraceArg> args = {});

  /// Records a point marker at the current virtual time.
  void instant(TrackId track, std::string name, std::string category,
               std::vector<TraceArg> args = {});

  /// Records a counter sample at the current virtual time.
  void counter(TrackId track, std::string name, double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceTrack>& tracks() const { return tracks_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  sim::Simulator& sim_;
  bool enabled_ = true;
  std::vector<TraceEvent> events_;
  std::vector<TraceTrack> tracks_;
  std::map<std::pair<std::string, std::string>, TrackId> track_index_;
  std::map<std::string, std::uint32_t> pid_index_;
  std::vector<std::uint32_t> next_tid_;  // per pid
  MetricsRegistry metrics_;
};

/// RAII span: records a kComplete event covering construction..destruction
/// (or ..close()). Null/disabled recorders make every member a no-op, so a
/// ScopedSpan can sit unconditionally in rarely-hot scopes; genuinely hot
/// paths should branch on the recorder pointer instead. Safe to hold across
/// co_await — the simulator is single-threaded and the span only samples
/// the virtual clock.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceRecorder* rec, TrackId track, std::string name,
             std::string category)
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr),
        track_(track),
        begin_(rec_ != nullptr ? rec_->now() : 0.0),
        name_(std::move(name)),
        category_(std::move(category)) {}
  ScopedSpan(ScopedSpan&& o) noexcept { *this = std::move(o); }
  ScopedSpan& operator=(ScopedSpan&& o) noexcept {
    if (this != &o) {
      close();
      rec_ = o.rec_;
      track_ = o.track_;
      begin_ = o.begin_;
      name_ = std::move(o.name_);
      category_ = std::move(o.category_);
      args_ = std::move(o.args_);
      o.rec_ = nullptr;
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  /// Attaches an argument to the span (shown in the trace viewer).
  void add_arg(TraceArg a) {
    if (rec_ != nullptr) args_.push_back(std::move(a));
  }

  /// Ends the span now; the destructor becomes a no-op.
  void close() {
    if (rec_ == nullptr) return;
    rec_->complete(track_, std::move(name_), std::move(category_), begin_,
                   rec_->now(), std::move(args_));
    rec_ = nullptr;
  }

  bool active() const { return rec_ != nullptr; }

 private:
  TraceRecorder* rec_ = nullptr;
  TrackId track_ = 0;
  double begin_ = 0.0;
  std::string name_;
  std::string category_;
  std::vector<TraceArg> args_;
};

}  // namespace prs::obs
