// The two serving workloads: serve::Server on loopback, answering the
// cable_study snapshot built during setup. One generator thread drives
// two connections open-loop — requests leave on a fixed schedule whatever
// the replies do, and each latency is measured from its scheduled send
// time. `serve_republish` adds a writer thread that rebuilds the snapshot
// and publishes a new generation on a fixed period, timing each publish
// until the new generation answers `ping` on its own connection.
//
// An untraced run spends its whole time at a fixed offered rate
// (latency_ms). The traced run spends half of it there (query_p99_us) and
// then climbs a fixed ladder of rates (sustained_rps: the highest rung
// whose p99 stays within 1 ms with no growing backlog). The serving pass
// other workloads' traced runs make is the same, on their own study.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <span>
#include <thread>

#include "core/cable_pipeline.hpp"
#include "core/latency_study.hpp"
#include "core/query_engine.hpp"
#include "core/snapshot.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace e2e {

using namespace ran;

namespace {

/// Two generator connections plus the republish writer's.
constexpr int kServerWorkers = 3;
constexpr std::size_t kRequests = 4096;
/// The fixed offered rate of the latency phase.
constexpr double kFixedRps = 20000;
/// The sustained-rate ladder: a few fixed rates, doubling, climbed from
/// the bottom. Each rung runs kRungSeconds; a failing rung is retried once
/// and a second failure ends the climb.
constexpr double kLadderRps[] = {18750, 37500, 75000, 150000, 300000, 600000};
constexpr double kRungSeconds = 0.5;
constexpr double kP99LimitUs = 1000;
/// Latency windows: the p50 and p99 a run reports are the medians of these
/// windows' p50s and p99s (see OpenLoopSummary::window_p50_us).
constexpr std::int64_t kWindowNs = 500'000'000;
constexpr std::int64_t kRungWindowNs = 100'000'000;
/// serve_republish: one rebuild + publish every this many ms.
constexpr int kRepublishEveryMs = 200;

// ---------------------------------------------------------------------------
// Requests and expected replies

/// The read mix over real region and CO keys, per 128 requests: the
/// serving mix of EXPERIMENTS.md and bench_serve (96 path/latency lookups,
/// 12 pings, 12 region resilience scans, 1 whole-study stats scan) plus 7
/// `explain` lookups of real edges, a share the repo documents nowhere.
std::vector<std::string> make_requests(const infer::TopologySnapshot& snap,
                                       std::uint64_t seed) {
  std::vector<const infer::RegionSnapshot*> regions;
  for (const auto& [name, region] : snap.regions())
    if (region.co_count() >= 2) regions.push_back(&region);
  net::Rng rng{seed ^ 0x5e4e5e4eULL};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<std::string> out;
  out.reserve(kRequests);
  while (out.size() < kRequests) {
    const auto& region = *regions[pick(regions.size())];
    const auto& graph = region.graph();
    const auto key = [&](std::uint32_t id) {
      return std::string{graph.key(id)};
    };
    const int roll = static_cast<int>(pick(128));
    std::string line;
    if (roll < 96) {
      const auto from = static_cast<std::uint32_t>(pick(graph.node_count()));
      const auto to = static_cast<std::uint32_t>(pick(graph.node_count()));
      line = std::string{R"({"op":")"} + (roll < 48 ? "path" : "latency") +
             R"(","region":")" + region.region() + R"(","from":")" +
             key(from) + R"(","to":")" + key(to) + R"("})";
    } else if (roll < 108) {
      line = R"({"op":"ping"})";
    } else if (roll < 120) {
      line = R"({"op":"resilience","region":")" + region.region() + R"("})";
    } else if (roll < 121) {
      line = R"({"op":"stats"})";
    } else {
      // Explain a real edge of the region.
      std::uint32_t from = 0;
      while (graph.fwd_begin(from) == graph.fwd_end(from))
        from = static_cast<std::uint32_t>(pick(graph.node_count()));
      const auto to = graph.edge_to(graph.fwd_begin(from));
      line = R"({"op":"explain","from":")" + key(from) + R"(","to":")" +
             key(to) + R"("})";
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// A server reply with its request id removed, and the generation of a
/// ping/stats reply normalized to 1 once it is known to be a published
/// one. Returns false when the reply names an unpublished generation.
bool normalize(std::string& reply, std::uint64_t max_generation) {
  const auto digits_end = [&reply](std::size_t at) {
    while (at < reply.size() &&
           std::isdigit(static_cast<unsigned char>(reply[at])))
      ++at;
    return at;
  };
  if (const auto rid = reply.find(",\"rid\":"); rid != std::string::npos)
    reply.erase(rid, digits_end(rid + 7) - rid);
  static constexpr std::string_view kGen = "\"generation\":";
  const bool names_generation =
      reply.starts_with(R"({"ok":true,"op":"ping")") ||
      reply.starts_with(R"({"ok":true,"op":"stats")");
  if (const auto at = reply.find(kGen);
      names_generation && at != std::string::npos) {
    const auto begin = at + kGen.size();
    const auto end = digits_end(begin);
    const auto generation = std::stoull(reply.substr(begin, end - begin));
    if (generation < 1 || generation > max_generation) return false;
    reply.replace(begin, end - begin, "1");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Loopback client

/// A connected loopback socket; the destructor closes it. The generator
/// needs non-blocking sends (net::TcpStream only sends blocking): a client
/// blocked in send while the server blocks sending it replies would
/// deadlock an overloaded rung.
class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  /// Sends what the socket takes now; returns the byte count, -1 on error.
  [[nodiscard]] ssize_t send_some(const std::string& data) const {
    const auto n = ::send(fd_, data.data(), data.size(),
                          MSG_DONTWAIT | MSG_NOSIGNAL);
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : n;
  }
  /// Appends what has arrived to `in`, blocking for it only when `wait`;
  /// false when the peer closed or the socket failed.
  [[nodiscard]] bool receive(std::string& in, bool wait) const {
    char chunk[65536];
    const auto n = ::recv(fd_, chunk, sizeof(chunk), wait ? 0 : MSG_DONTWAIT);
    if (n > 0) in.append(chunk, static_cast<std::size_t>(n));
    return n > 0 || (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
  }

 private:
  int fd_;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Connection {
  explicit Connection(std::uint16_t port) : socket(port) {}
  Socket socket;
  std::string out;  ///< requests not yet written
  std::string in;   ///< reply bytes not yet split into lines
  std::deque<std::size_t> pending;  ///< sample indexes awaiting a reply
};

struct PhaseResult {
  OpenLoopSummary summary;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::uint32_t queue_depth_max = 0;
  double busy_workers_mean = 0;
};

/// Runs one open-loop phase at `rps` for `seconds` over two connections.
/// The generator busy-polls rather than sleeping until the next due time:
/// on a virtual machine, waking a halted vCPU can take longer than the
/// replies being measured, and that delay would be charged to the server.
PhaseResult open_loop(std::uint16_t port,
                      const std::vector<std::string>& requests,
                      const std::vector<std::string>& expected, double rps,
                      double seconds, std::int64_t window_ns,
                      const std::atomic<std::uint64_t>& generation,
                      const infer::ServeHealth& health) {
  PhaseResult out;
  Connection conns[2] = {Connection{port}, Connection{port}};
  const auto n = static_cast<std::size_t>(rps * seconds);
  out.attempted = n;
  if (!conns[0].socket.valid() || !conns[1].socket.valid()) {
    out.failed = n;
    out.errors.push_back("cannot connect to the server");
    return out;
  }
  std::vector<OpenLoopSample> samples(n);
  const auto period = static_cast<std::int64_t>(1e9 / rps);
  const std::int64_t t0 = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i)
    samples[i].due_ns = t0 + static_cast<std::int64_t>(i) * period;
  // Replies still missing this long after the last due time are timeouts.
  const std::int64_t give_up =
      t0 + static_cast<std::int64_t>(n) * period + 2'000'000'000;
  std::size_t next = 0;
  std::size_t answered = 0;
  double busy_sum = 0;
  std::uint64_t health_samples = 0;
  bool broken = false;
  while (answered < n && !broken && now_ns() <= give_up) {
    const std::int64_t now = now_ns();
    for (; next < n && samples[next].due_ns <= now; ++next) {
      auto& c = conns[next % 2];
      c.out += requests[next % requests.size()];
      c.out += '\n';
      c.pending.push_back(next);
      samples[next].sent_ns = now;
    }
    out.queue_depth_max =
        std::max(out.queue_depth_max,
                 health.queue_depth.load(std::memory_order_relaxed));
    busy_sum += health.busy_workers.load(std::memory_order_relaxed);
    ++health_samples;
    for (auto& c : conns) {
      if (!c.out.empty()) {
        const auto sent = c.socket.send_some(c.out);
        if (sent < 0) broken = true;
        if (sent > 0) c.out.erase(0, static_cast<std::size_t>(sent));
      }
      const auto before = c.in.size();
      if (!c.socket.receive(c.in, false)) broken = true;
      if (c.in.size() == before) continue;
      const std::int64_t at = now_ns();
      std::size_t start = 0;
      for (auto nl = c.in.find('\n');
           nl != std::string::npos && !c.pending.empty();
           nl = c.in.find('\n', start)) {
        std::string reply = c.in.substr(start, nl - start);
        start = nl + 1;
        const std::size_t index = c.pending.front();
        c.pending.pop_front();
        samples[index].done_ns = at;
        ++answered;
        if (!normalize(reply, generation.load(std::memory_order_acquire)) ||
            reply != expected[index % expected.size()]) {
          ++out.failed;
          if (out.errors.size() < 3)
            out.errors.push_back("reply mismatch for " +
                                 requests[index % requests.size()] + ": got " +
                                 reply.substr(0, 160));
        }
      }
      c.in.erase(0, start);
    }
  }
  if (broken) out.errors.push_back("connection to the server failed");
  out.summary = summarize_open_loop(samples, window_ns);
  out.failed += out.summary.unanswered;
  if (out.summary.unanswered > 0)
    out.errors.push_back(std::to_string(out.summary.unanswered) +
                         " request(s) unanswered");
  out.busy_workers_mean =
      health_samples == 0 ? 0 : busy_sum / static_cast<double>(health_samples);
  return out;
}

/// Sends one ping and returns the generation it reports (0 on error).
std::uint64_t ping_generation(const Socket& socket) {
  static const std::string kPing = "{\"op\":\"ping\"}\n";
  if (socket.send_some(kPing) != static_cast<ssize_t>(kPing.size())) return 0;
  std::string reply;
  while (reply.find('\n') == std::string::npos)
    if (!socket.receive(reply, true)) return 0;
  const auto at = reply.find("\"generation\":");
  return at == std::string::npos ? 0 : std::stoull(reply.substr(at + 13));
}

/// A server on loopback answering a study's snapshot, the seeded request
/// sequence, and the in-process reply every socket reply must equal.
class Rig {
 public:
  Rig(const infer::CableStudy& study, std::uint64_t seed)
      : study_(study),
        rtts_(infer::agg_to_edge_rtts(study)),
        provenance_(
            std::make_shared<const obs::ProvenanceLog>(study.edge_provenance)),
        server(hub, [this] {
          serve::ServerConfig config;
          config.worker_threads = kServerWorkers;
          config.metrics = &metrics_;
          return config;
        }()) {
    hub.attach_metrics(&metrics_);
    hub.publish(build(1));
    requests = make_requests(*hub.get(), seed);
    // Expected replies from an in-process engine over the same snapshot,
    // and the in-process answer time on the same sequence.
    const infer::QueryEngine engine{hub};
    for (int pass = 0; pass < 3; ++pass)
      for (const auto& request : requests) {
        const auto t1 = Clock::now();
        auto reply = engine.answer(request);
        const auto ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t1)
                .count();
        if (pass == 0) {
          if (!reply.starts_with("{\"ok\":true"))
            errors.push_back("in-process reply is not ok: " +
                             reply.substr(0, 160));
          expected.push_back(std::move(reply));
        } else {
          answer_ns.push_back(ns);
        }
      }
    std::string error;
    if (!server.start(&error))
      errors.push_back("server did not start: " + error);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Generation `generation` of the study's snapshot, built afresh.
  [[nodiscard]] std::shared_ptr<const infer::TopologySnapshot> build(
      std::uint64_t generation) const {
    return std::make_shared<const infer::TopologySnapshot>(
        infer::TopologySnapshot::build("cable", study_.regions(), provenance_,
                                       generation, rtts_));
  }
  /// SnapshotHub lock waits so far, summed over its read and write sides.
  [[nodiscard]] double lock_wait_us() const {
    double wait_us = 0;
    for (const auto& [name, hist] : metrics_.snapshot().volatile_histograms)
      if (name.starts_with("lock.snapshot_hub.") && name.ends_with(".wait_us"))
        wait_us += static_cast<double>(hist.sum);
    return wait_us;
  }

  std::vector<std::string> requests, expected, errors;
  std::vector<double> answer_ns;
  /// The newest published generation.
  std::atomic<std::uint64_t> generation{1};

 private:
  const infer::CableStudy& study_;
  const std::map<std::string, double> rtts_;
  const std::shared_ptr<const obs::ProvenanceLog> provenance_;
  obs::Registry metrics_;

 public:
  infer::SnapshotHub hub;
  serve::Server server;
};

/// One load run: the fixed-rate phase, optionally the rate ladder after
/// it, and optionally the republish writer beside both.
struct Load {
  PhaseResult fixed;
  double sustained_rps = 0;
  std::uint32_t queue_depth_max = 0;
  std::vector<double> publish_ms, build_ms, publish_us;
  double lock_wait_us = 0;

  Load(Rig& rig, double seconds, bool republish, bool ladder, Spans& spans,
       Result& r) {
    const auto port = rig.server.port();
    const auto& health = rig.server.health();
    const double wait0 = rig.lock_wait_us();
    // The writer: rebuild + publish on a fixed period, each timed until
    // the new generation answers ping on the writer's own connection.
    // std::jthread stops and joins it on every exit from this constructor.
    std::string writer_error;
    std::jthread writer;
    if (republish) {
      writer = std::jthread([&](std::stop_token stop) {
        const Socket socket{port};
        if (!socket.valid()) {
          writer_error = "writer cannot connect to the server";
          return;
        }
        auto next = Clock::now();
        while (!stop.stop_requested()) {
          next += std::chrono::milliseconds(kRepublishEveryMs);
          std::this_thread::sleep_until(next);
          if (stop.stop_requested()) break;
          const std::uint64_t g = rig.generation.load() + 1;
          const auto t0 = Clock::now();
          auto snap = rig.build(g);
          build_ms.push_back(ms_since(t0));
          // Replies may name g as soon as it is published.
          rig.generation.store(g, std::memory_order_release);
          const auto t1 = Clock::now();
          rig.hub.publish(std::move(snap));
          publish_us.push_back(ms_since(t1) * 1e3);
          std::uint64_t seen = 0;
          while ((seen = ping_generation(socket)) != 0 && seen < g) {
          }
          if (seen == 0) {
            writer_error = "writer's ping failed";
            break;
          }
          publish_ms.push_back(ms_since(t0));
        }
      });
    }
    const auto count = [&r](PhaseResult& phase) {
      r.attempted += phase.attempted;
      r.failed += phase.failed;
      for (auto& e : phase.errors) r.fail(std::move(e));
    };
    {
      Scope span{spans, "serve.fixed_rate"};
      fixed = open_loop(port, rig.requests, rig.expected, kFixedRps, seconds,
                        kWindowNs, rig.generation, health);
    }
    count(fixed);
    queue_depth_max = fixed.queue_depth_max;
    std::string rungs;
    for (const double rps : ladder ? std::span<const double>{kLadderRps}
                                   : std::span<const double>{}) {
      bool passed = false;
      for (int attempt = 0; attempt < 2 && !passed; ++attempt) {
        Scope span{spans, "serve.ladder"};
        auto rung = open_loop(port, rig.requests, rig.expected, rps,
                              kRungSeconds, kRungWindowNs, rig.generation,
                              health);
        count(rung);
        queue_depth_max = std::max(queue_depth_max, rung.queue_depth_max);
        passed = rung.failed == 0 && !rung.summary.backlog_growing &&
                 rung.summary.window_p99_us <= kP99LimitUs;
        rungs += std::to_string(static_cast<int>(rps)) + ":" +
                 std::to_string(
                     static_cast<int>(rung.summary.window_p99_us)) +
                 (passed ? "us ok " : "us fail ");
        if (passed) sustained_rps = rung.summary.achieved_rps;
      }
      if (!passed) break;
    }
    if (ladder) r.info["ladder"] = rungs;
    if (writer.joinable()) {
      writer.request_stop();
      writer.join();
    }
    if (!writer_error.empty()) {
      ++r.failed;
      r.fail(writer_error);
    }
    lock_wait_us = rig.lock_wait_us() - wait0;
  }
};

/// The serving and publishing per-layer metrics: the read side from
/// `reads`, the publishing side from `writes` (a load with the writer).
void report_serving(Result& r, const Rig& rig, const Load& reads,
                    const Load& writes) {
  const double answer = median(rig.answer_ns);
  r.set("query_p99_us", reads.fixed.summary.window_p99_us, "us");
  r.info["query_p99_us_whole_phase"] =
      std::to_string(reads.fixed.summary.p99_us);
  r.set("sustained_rps", reads.sustained_rps, "1/s");
  r.set("query_engine.answer_ns", answer, "ns");
  r.set("serve.wire_us", reads.fixed.summary.window_p50_us - answer / 1e3,
        "us");
  r.set("serve.queue_depth_max", reads.queue_depth_max, "count");
  r.set("serve.busy_workers", reads.fixed.busy_workers_mean, "count");
  r.set("gen.lag_p99_us", reads.fixed.summary.lateness_p99_us, "us");
  r.set("publish_ms", median(writes.publish_ms), "ms");
  r.set("snapshot.build_ms", median(writes.build_ms), "ms");
  r.set("snapshot.publish_us", median(writes.publish_us), "us");
  const auto publishes = static_cast<double>(writes.publish_us.size());
  r.set("snapshot.lock_wait_us",
        publishes > 0 ? writes.lock_wait_us / publishes : 0, "us");
  r.info["publishes"] = std::to_string(writes.publish_ms.size());
}

/// Moves the rig's correctness errors into `r`; false when there were any.
bool rig_ok(Rig& rig, Result& r) {
  ++r.attempted;
  if (rig.errors.empty()) return true;
  ++r.failed;
  for (auto& e : rig.errors) r.fail(std::move(e));
  return false;
}

}  // namespace

void trace_serving(const infer::CableStudy& study, std::uint64_t seed,
                   double seconds, Spans& spans, Result& r) {
  Rig rig{study, seed};
  if (!rig_ok(rig, r)) return;
  const Load load{rig, seconds, true, true, spans, r};
  rig.server.stop();
  report_serving(r, rig, load, load);
}

Result run_serve(const Options& opt, bool republish) {
  Result r;
  Spans spans{opt.trace};
  // The warm-up is the cable study whose snapshot is served.
  double setup_s = 0;
  const auto [w, study] = set_up(
      make_cable_world,
      [](const CableWorld& world) {
        return run_cable_pipeline(world, kParallelism);
      },
      opt.seed, spans, setup_s);
  const auto t_rig = Clock::now();
  Rig rig{study, opt.seed};
  r.set("setup_s", setup_s + ms_since(t_rig) / 1e3, "s");
  if (!rig_ok(rig, r)) return r;
  reset_peak_rss();
  report_accuracy(r, *w, study);
  r.info["output_digest"] = hex(fnv1a(rig.hub.get()->to_json()));
  std::uint64_t request_digest = fnv1a("");
  for (const auto& line : rig.requests)
    request_digest = fnv1a(line, request_digest);
  r.info["input_digest"] = hex(request_digest);

  if (!opt.trace) {
    const Load load{rig, opt.seconds, republish, false, spans, r};
    rig.server.stop();
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("latency_ms", load.fixed.summary.window_p50_us / 1e3, "ms");
    r.info["query_p50_us_whole_phase"] =
        std::to_string(load.fixed.summary.p50_us);
    r.info["fixed_rate_requests"] =
        std::to_string(load.fixed.summary.requests);
    if (republish)
      r.info["publishes"] = std::to_string(load.publish_ms.size());
    return r;
  }
  // Half the run at the fixed rate, then the ladder. serve_read measures
  // publishing in a short load with the writer after it (reads beside the
  // writes, as on serve_republish), and both workloads end with the study
  // pass on their set-up study.
  report_setup_layers(r, spans);
  const Load reads{rig, opt.seconds / 2, republish, true, spans, r};
  if (republish) {
    report_serving(r, rig, reads, reads);
  } else {
    const Load writes{rig, kServingPassSeconds, true, false, spans, r};
    report_serving(r, rig, reads, writes);
  }
  rig.server.stop();
  trace_studies(*w, study, 0, spans, r);
  r.spans_json = spans.to_json();
  return r;
}

}  // namespace e2e
