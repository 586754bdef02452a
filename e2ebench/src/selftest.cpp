// Known-answer tests for the benchmark's own arithmetic: the percentile
// and sample-count helpers and the open-loop accounting. Exits non-zero
// when any check fails. Run through `python3 e2ebench/selftest.py`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "bench.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want,
                 double tol = 1e-9) {
  const bool same = (std::isinf(got) && std::isinf(want)) ||
                    std::abs(got - want) <= tol;
  if (!same) {
    std::printf("FAIL %s: got %.9g, want %.9g\n", what, got, want);
    ++failures;
  }
}

void expect_true(const char* what, bool value) {
  if (!value) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kUs = 1'000;

/// n requests due every 1 ms from t=1 s, sent on time, answered 100 us
/// after being sent.
std::vector<e2e::OpenLoopSample> steady(int n) {
  std::vector<e2e::OpenLoopSample> out;
  for (int i = 0; i < n; ++i) {
    const std::int64_t due = 1000 * kMs + i * kMs;
    out.push_back({due, due, due + 100 * kUs});
  }
  return out;
}

void test_percentiles() {
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(11 - i);  // unsorted input
  expect_near("p50 of 1..10", e2e::percentile(ten, 0.5), 5);
  expect_near("p90 of 1..10", e2e::percentile(ten, 0.9), 9);
  expect_near("p99 of 1..10", e2e::percentile(ten, 0.99), 10);
  expect_near("p0 of 1..10", e2e::percentile(ten, 0.0), 1);
  expect_near("median of 1..10", e2e::median(ten), 5);
  expect_near("p50 of {7}", e2e::percentile({7}, 0.5), 7);
  expect_near("p99 of {}", e2e::percentile({}, 0.99), 0);

  // Ten samples beyond the percentile, or fall back.
  expect_near("tail of 99 samples", e2e::resolvable_tail(99), 0.5);
  expect_near("tail of 100 samples", e2e::resolvable_tail(100), 0.9);
  expect_near("tail of 999 samples", e2e::resolvable_tail(999), 0.9);
  expect_near("tail of 1000 samples", e2e::resolvable_tail(1000), 0.99);
  expect_near("tail of 10000 samples", e2e::resolvable_tail(10000), 0.999);
  expect_true("describe 1..10",
              e2e::describe(ten) == "n=10 p50=5 p50=5");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect_true("describe 1..100",
              e2e::describe(hundred) == "n=100 p50=50 p90=90");
}

void test_open_loop_steady() {
  const auto s = e2e::summarize_open_loop(steady(100));
  expect_near("steady p50", s.p50_us, 100);
  expect_near("steady p99", s.p99_us, 100);
  expect_near("steady lateness", s.lateness_p99_us, 0);
  expect_near("steady unanswered", static_cast<double>(s.unanswered), 0);
  // 100 replies between the first due time and 99.1 ms later.
  expect_near("steady achieved rate", s.achieved_rps, 100 / 0.0991, 1e-6);
  expect_true("steady backlog not growing", !s.backlog_growing);
}

void test_open_loop_stall() {
  // The generator stalls for 10 ms: requests due at 50..59 ms all leave
  // at 60 ms. Latency counts from the due time, so the stall shows in ten
  // requests (10.1, 9.1, ... 1.1 ms), not just in the one it hit.
  auto samples = steady(100);
  const std::int64_t resume = samples[60].due_ns;
  for (int i = 50; i < 60; ++i) {
    samples[i].sent_ns = resume;
    samples[i].done_ns = resume + 100 * kUs;
  }
  const auto s = e2e::summarize_open_loop(samples);
  expect_near("stall p50", s.p50_us, 100);
  expect_near("stall p99 (rank 99 of 100)", s.p99_us, 9100);
  expect_near("stall lateness p99", s.lateness_p99_us, 9000);
  expect_true("stall backlog not growing", !s.backlog_growing);
}

void test_open_loop_unanswered() {
  auto samples = steady(100);
  samples[10].done_ns = 0;
  auto s = e2e::summarize_open_loop(samples);
  expect_near("one unanswered counted", static_cast<double>(s.unanswered), 1);
  expect_near("one unanswered of 100 leaves p99", s.p99_us, 100);
  samples[20].done_ns = 0;
  s = e2e::summarize_open_loop(samples);
  expect_near("two unanswered of 100 make p99 infinite", s.p99_us,
              std::numeric_limits<double>::infinity());
}

void test_open_loop_backlog() {
  // Service falls behind: request i waits i * 0.5 ms, so the queue of due
  // but unanswered requests grows through the run.
  auto samples = steady(400);
  for (std::size_t i = 0; i < samples.size(); ++i)
    samples[i].done_ns =
        samples[i].due_ns + static_cast<std::int64_t>(i) * kMs / 2;
  expect_true("falling behind is a growing backlog",
              e2e::summarize_open_loop(samples).backlog_growing);
}

void test_open_loop_windows() {
  // Three 100 ms windows; the middle one is 5 ms slow throughout. The
  // whole run's p99 is 5 ms, the median window's p99 is 100 us.
  auto samples = steady(300);
  for (int i = 100; i < 200; ++i)
    samples[static_cast<std::size_t>(i)].done_ns =
        samples[static_cast<std::size_t>(i)].due_ns + 5 * kMs;
  const auto s = e2e::summarize_open_loop(samples, 100 * kMs);
  expect_near("windowed: whole-run p99", s.p99_us, 5000);
  expect_near("windowed: median window p99", s.window_p99_us, 100);

  // Three windows of latencies 50..149 us; the middle one is 100 us slower.
  // The whole run's p50 (150th of 300) is 124 us, the median window's 99.
  for (std::size_t i = 0; i < samples.size(); ++i)
    samples[i].done_ns = samples[i].due_ns +
                         static_cast<std::int64_t>(50 + i % 100) * kUs +
                         (i / 100 == 1 ? 100 * kUs : 0);
  const auto shifted = e2e::summarize_open_loop(samples, 100 * kMs);
  expect_near("windowed: whole-run p50", shifted.p50_us, 124);
  expect_near("windowed: median window p50", shifted.window_p50_us, 99);
}

void test_spans() {
  e2e::Spans spans{true};
  spans.set_iteration(3);
  {
    e2e::Scope outer{spans, "outer"};
    e2e::Scope inner{spans, "inner"};
  }
  const auto& all = spans.spans();
  expect_true("two spans recorded", all.size() == 2);
  expect_true("inner's parent is outer", all.size() == 2 && all[1].parent == 0);
  expect_true("iteration stamped", all.size() == 2 && all[1].iteration == 3);
  e2e::Spans off{false};
  { e2e::Scope scope{off, "ignored"}; }
  expect_true("disabled recorder records nothing", off.spans().empty());
}

}  // namespace

int main() {
  test_percentiles();
  test_open_loop_steady();
  test_open_loop_stall();
  test_open_loop_unanswered();
  test_open_loop_backlog();
  test_open_loop_windows();
  test_spans();
  if (failures == 0) std::printf("e2e_selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
