#include "bench.hpp"

#include <ctime>
#include <fstream>
#include <limits>

#include "netbase/json.hpp"

namespace e2e {

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0;
}

void reset_peak_rss() {
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double resolvable_tail(std::size_t n) {
  double best = 0.5;
  for (const double q : {0.9, 0.99, 0.999})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) best = q;
  return best;
}

std::string describe(const std::vector<double>& values) {
  const double tail = resolvable_tail(values.size());
  char buf[128];
  std::snprintf(buf, sizeof(buf), "n=%zu p50=%.6g p%g=%.6g", values.size(),
                median(values), tail * 100, percentile(values, tail));
  return buf;
}

OpenLoopSummary summarize_open_loop(
    const std::vector<OpenLoopSample>& samples, std::int64_t window_ns,
    std::int64_t backlog_slack_ns) {
  OpenLoopSummary out;
  out.requests = samples.size();
  if (samples.empty()) return out;
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  latency_us.reserve(samples.size());
  lateness_us.reserve(samples.size());
  std::int64_t last_done = 0;
  for (const auto& s : samples) {
    if (s.done_ns == 0) {
      ++out.unanswered;
      latency_us.push_back(kNever);
    } else {
      latency_us.push_back(static_cast<double>(s.done_ns - s.due_ns) / 1e3);
      last_done = std::max(last_done, s.done_ns);
    }
    lateness_us.push_back(
        s.sent_ns == 0 ? kNever
                       : static_cast<double>(s.sent_ns - s.due_ns) / 1e3);
  }
  out.p50_us = percentile(latency_us, 0.5);
  out.p99_us = percentile(latency_us, 0.99);
  out.lateness_p99_us = percentile(lateness_us, 0.99);
  std::vector<double> window_p50, window_p99;
  for (std::size_t begin = 0; begin < samples.size();) {
    std::size_t end = begin;
    while (end < samples.size() &&
           samples[end].due_ns < samples[begin].due_ns + window_ns)
      ++end;
    const auto first = latency_us.begin();
    const std::vector<double> window{first + static_cast<std::ptrdiff_t>(begin),
                                     first + static_cast<std::ptrdiff_t>(end)};
    window_p50.push_back(percentile(window, 0.5));
    window_p99.push_back(percentile(window, 0.99));
    begin = end;
  }
  out.window_p50_us = median(window_p50);
  out.window_p99_us = median(window_p99);
  const std::int64_t first_due = samples.front().due_ns;
  if (last_done > first_due)
    out.achieved_rps =
        static_cast<double>(samples.size() - out.unanswered) /
        (static_cast<double>(last_done - first_due) / 1e9);

  // Backlog at time t: requests due by t that have not been answered by
  // t. Sampled at each due time of the first and last quarter.
  const auto backlog_at = [&](std::int64_t t) {
    std::size_t due = 0;
    std::size_t answered = 0;
    for (const auto& s : samples) {
      if (s.due_ns > t) break;  // samples are in due order
      ++due;
      answered += s.done_ns != 0 && s.done_ns <= t;
    }
    return static_cast<double>(due - answered);
  };
  const std::size_t n = samples.size();
  if (n >= 8) {
    const auto quarter_mean = [&](std::size_t begin, std::size_t end) {
      const std::size_t step = std::max<std::size_t>(1, (end - begin) / 64);
      double sum = 0;
      std::size_t count = 0;
      for (std::size_t i = begin; i < end; i += step, ++count)
        sum += backlog_at(samples[i].due_ns);
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    };
    const double first = quarter_mean(0, n / 4);
    const double last = quarter_mean(n - n / 4, n);
    const double span_ns =
        static_cast<double>(samples.back().due_ns - samples.front().due_ns);
    const double offered_per_ns =
        span_ns > 0 ? static_cast<double>(n - 1) / span_ns : 0.0;
    const double slack = std::max(
        8.0, offered_per_ns * static_cast<double>(backlog_slack_ns));
    out.backlog_growing = last > first + slack;
  }
  return out;
}

int Spans::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_ms = ms_since(epoch_);
  span.parent = open_.empty() ? -1 : open_.back();
  span.iteration = iteration_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = ms_since(epoch_);
  // Spans close in LIFO order (Scope guarantees it).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Spans::total_ms(const std::string& name, int iteration) const {
  double sum = 0;
  for (const auto& span : spans_)
    if (span.name == name && (iteration < 0 || span.iteration == iteration))
      sum += span.end_ms - span.start_ms;
  return sum;
}

std::string Spans::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\":%zu,\"name\":\"", i == 0 ? "" : ",", i);
    out += buf;
    out += ran::net::json_escape(s.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d,"
                  "\"iteration\":%d}",
                  s.start_ms, s.end_ms, s.parent, s.iteration);
    out += buf;
  }
  out += "\n]\n";
  return out;
}

std::string Result::to_json() const {
  std::string out;
  const auto quoted = [&out](const std::string& text) {
    out += '"';
    out += ran::net::json_escape(text);
    out += '"';
  };
  out += "{\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    out += sep;
    quoted(name);
    out += ":{\"value\":";
    out += value;
    out += ",\"unit\":";
    quoted(metric.unit);
    out += '}';
    sep = ",";
  }
  out += "},\"info\":{";
  sep = "";
  for (const auto& [key, value] : info) {
    out += sep;
    quoted(key);
    out += ':';
    quoted(value);
    sep = ",";
  }
  out += "},\"errors\":[";
  sep = "";
  for (const auto& error : errors) {
    out += sep;
    quoted(error);
    sep = ",";
  }
  out += "],\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + "}";
  return out;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace e2e
