// Leveled trace logging for simulation components.
//
// Logging defaults to off so benchmark runs pay nothing; examples flip it on
// to print protocol event traces (see examples/figure1_walkthrough.cpp).
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace bgpsim::sim {

enum class LogLevel { kOff = 0, kInfo = 1, kDebug = 2, kTrace = 3 };

/// Process-wide log configuration and sink.
///
/// Thread-safe: parallel trial runners (core::run_trials) emit
/// through one simulation per worker thread but share this static state.
/// The level is atomic (the hot `enabled` check stays lock-free) and the
/// sink is invoked under a mutex, so concurrent writers never interleave
/// within a line and a sink needs no locking of its own.
class Log {
 public:
  using Sink = std::function<void(LogLevel, std::string_view component,
                                  SimTime when, std::string_view message)>;

  static LogLevel level() { return level_.load(std::memory_order_relaxed); }
  static void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }

  /// Replace the sink (default writes to stderr). Passing nullptr restores
  /// the default sink.
  static void set_sink(Sink sink);

  /// Optional process-instance tag (e.g. a campaign worker id) prepended
  /// to every message as "[tag] ", so interleaved multi-process logs stay
  /// attributable. Applied in write(), ahead of the sink, so custom sinks
  /// see it too. Empty (the default) adds nothing.
  static void set_instance_tag(std::string tag);

  static bool enabled(LogLevel at) {
    const LogLevel l = level();
    return l != LogLevel::kOff && at <= l;
  }

  static void write(LogLevel at, std::string_view component, SimTime when,
                    std::string_view message);

 private:
  static std::atomic<LogLevel> level_;
  static std::mutex mutex_;  // guards sink_, tag_, and serializes write()
  static Sink sink_;
  static std::string tag_;
};

/// Build-a-line helper: LogLine{...} << "text" << value; emits at destruction.
/// A line whose level is off builds nothing: no stream, no component copy,
/// and no streamed value's operator<< runs. Its arguments are still
/// evaluated; BGPSIM_LOG skips those too.
class LogLine {
 public:
  LogLine(LogLevel at, std::string_view component, SimTime when)
      : at_{at}, when_{when} {
    if (Log::enabled(at)) {
      component_ = component;
      stream_.emplace();
    }
  }
  ~LogLine() {
    if (stream_) Log::write(at_, component_, when_, stream_->str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (stream_) *stream_ << v;
    return *this;
  }

 private:
  LogLevel at_;
  SimTime when_;
  std::string component_;                     // set only when live
  std::optional<std::ostringstream> stream_;  // engaged iff live
};

}  // namespace bgpsim::sim

/// Statement form of LogLine that evaluates nothing after it unless `level`
/// is enabled: BGPSIM_LOG(kTrace, "bgp", now) << msg.to_string(); costs one
/// relaxed load when tracing is off. Safe as the body of an unbraced if.
#define BGPSIM_LOG(level, component, when)                  \
  if (!::bgpsim::sim::Log::enabled(level)) {                \
  } else                                                    \
    ::bgpsim::sim::LogLine{(level), (component), (when)}
