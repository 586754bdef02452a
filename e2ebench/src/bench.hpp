// Shared pieces of the end-to-end benchmark: the span recorder used by the
// traced run, the percentile and open-loop accounting helpers (both have
// known-answer tests in selftest.cpp), and the result sink every workload
// fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Process CPU time (all threads), in milliseconds.
[[nodiscard]] double process_cpu_ms();
/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();
/// Restarts the VmHWM high-water mark (Linux /proc/self/clear_refs), so
/// peak_rss_mb covers what follows rather than set-up. Best effort: where
/// the kernel refuses, the peak also covers set-up.
void reset_peak_rss();

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank percentile of `values` (q in [0, 1]): the smallest sample
/// with at least q of the samples at or below it. Sorts a copy; 0 when
/// empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// above it for `n` samples (the tail a run can actually resolve); 0.5
/// when even p90 is out of reach.
[[nodiscard]] double resolvable_tail(std::size_t n);

/// "n=<count> p50=<median> p<tail>=<value>" for a set of timings, with the
/// tail at resolvable_tail(count): the sample count and percentiles a
/// record keeps beside a reported median.
[[nodiscard]] std::string describe(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Open-loop accounting

/// One request of an open-loop run, all times in ns on one clock: when it
/// was due, when the generator actually sent it, and when its reply came
/// back (0 = never).
struct OpenLoopSample {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
};

struct OpenLoopSummary {
  std::size_t requests = 0;
  std::size_t unanswered = 0;
  double p50_us = 0;       ///< latency from the due time
  double p99_us = 0;
  /// Medians over consecutive windows of `window_ns` (by due time) of each
  /// window's p50 and p99: the latency of a typical window, robust to a
  /// slow phase of the host covering a minority of the run, which would
  /// otherwise shift the whole run's percentiles.
  double window_p50_us = 0;
  double window_p99_us = 0;
  double lateness_p99_us = 0;  ///< how late the generator sent
  double achieved_rps = 0;     ///< replies / (last reply - first due)
  /// The mean backlog (due but unanswered requests) of the last quarter of
  /// the run exceeds the first quarter's by more than `backlog_slack_ns`
  /// worth of offered load (at least 8 requests): the system is falling
  /// behind the offered rate.
  bool backlog_growing = false;
};

/// Summarizes one open-loop run. Latency is measured from the due time,
/// so a stall delays every request queued behind it (no coordinated
/// omission); an unanswered request counts as infinitely late.
[[nodiscard]] OpenLoopSummary summarize_open_loop(
    const std::vector<OpenLoopSample>& samples,
    std::int64_t window_ns = 500'000'000,
    std::int64_t backlog_slack_ns = 1'000'000);

// ---------------------------------------------------------------------------
// Spans

/// In-memory span recorder for the traced run: name, start, end, parent
/// and iteration id per span, written out once at exit. Disabled
/// recorders make every call a no-op, so untraced runs pay one branch.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    int iteration = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// A shared recorder that records nothing.
  [[nodiscard]] static Spans& disabled() {
    static Spans off{false};
    return off;
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_iteration(int iteration) { iteration_ = iteration; }

  /// Opens a span as a child of the innermost open one; returns its id.
  int begin(std::string name);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the durations of spans named `name` in `iteration` (-1: all).
  [[nodiscard]] double total_ms(const std::string& name,
                                int iteration = -1) const;
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  int iteration_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; also usable as a plain stopwatch (elapsed_ms) when the
/// recorder is disabled.
class Scope {
 public:
  Scope(Spans& spans, std::string name)
      : spans_(spans),
        id_(spans.enabled() ? spans.begin(std::move(name)) : -1),
        start_(Clock::now()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { close(); }

  /// Ends the span early; returns its duration in ms.
  double close() {
    if (!closed_) {
      elapsed_ = ms_since(start_);
      if (id_ >= 0) spans_.end(id_);
      closed_ = true;
    }
    return elapsed_;
  }

 private:
  Spans& spans_;
  int id_;
  Clock::time_point start_;
  bool closed_ = false;
  double elapsed_ = 0;
};

// ---------------------------------------------------------------------------
// Result

/// What one workload run reports: named metrics with units, the operation
/// counts, a correctness verdict with the reasons it failed, and free-form
/// diagnostics (sample counts, digests) kept beside the metrics.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;
  /// The traced run's spans (Spans::to_json), written out at exit.
  std::string spans_json;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }
  [[nodiscard]] std::string to_json() const;
};

/// FNV-1a over `bytes`, chained from `seed`: the digests the benchmark
/// prints so two runs can be compared without keeping their outputs.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t seed = 1469598103934665603ULL);
/// A digest as 16 hex digits.
[[nodiscard]] std::string hex(std::uint64_t digest);

}  // namespace e2e
