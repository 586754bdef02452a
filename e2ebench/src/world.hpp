// The benchmark's inputs, generated from the --seed argument: the §5 cable
// world of bench/common.hpp (Comcast-like and Charter-like ISPs, 47
// distributed VPs, cloud VMs, per-operator rDNS noise). Each build step
// runs inside a setup-layer span (topogen / simnet / dnssim / vantage) so
// the traced run can attribute setup time.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/cable_pipeline.hpp"
#include "core/observations.hpp"
#include "dnssim/rdns.hpp"
#include "simnet/world.hpp"
#include "vantage/vps.hpp"

namespace e2e {

struct CableWorld {
  explicit CableWorld(std::uint64_t seed) : world(seed) {}
  ran::sim::World world;
  int comcast = -1;
  int charter = -1;
  std::vector<ran::vp::ExternalVp> vps;
  std::vector<ran::vp::ExternalVp> clouds;
  ran::dns::RdnsDb live_comcast, snap_comcast;
  ran::dns::RdnsDb live_charter, snap_charter;

  [[nodiscard]] ran::infer::RdnsSources comcast_rdns() const {
    return {&live_comcast, &snap_comcast};
  }
};

[[nodiscard]] std::unique_ptr<CableWorld> make_cable_world(std::uint64_t seed,
                                                           Spans& spans);

/// The §5 study of the Comcast-like ISP, default configuration.
[[nodiscard]] ran::infer::CableStudy run_cable_pipeline(const CableWorld& w,
                                                       int parallelism);

/// Setups per run: setup_s reports their median, so one slow setup does
/// not set it.
inline constexpr int kSetups = 3;

/// Sets the workload up kSetups times, each time from scratch: a world
/// from `make(seed, spans)`, then `warm(world)`, the warm-up iteration the
/// run discards (it fills the route cache and first-touch memory). Setup
/// k's spans carry iteration id k. Returns the last world and what its
/// warm-up returned; `setup_s` gets the median setup time in seconds.
template <typename Make, typename Warm>
auto set_up(Make make, Warm warm, std::uint64_t seed, Spans& spans,
            double& setup_s) {
  using WorldPtr = decltype(make(seed, spans));
  using Warmed = decltype(warm(*std::declval<WorldPtr&>()));
  WorldPtr world;
  std::optional<Warmed> warmed;
  std::vector<double> setup_ms;
  for (int k = 0; k < kSetups; ++k) {
    warmed.reset();
    world.reset();
    spans.set_iteration(k);
    Scope setup{spans, "setup"};
    world = make(seed, spans);
    warmed.emplace(warm(*world));
    setup_ms.push_back(setup.close());
  }
  spans.set_iteration(-1);
  setup_s = median(setup_ms) / 1e3;
  return std::pair<WorldPtr, Warmed>{std::move(world), std::move(*warmed)};
}

/// Sets <layer>_ms for the setup layers: the median over the setups of
/// each layer's time in one setup.
void report_setup_layers(Result& r, const Spans& spans);

}  // namespace e2e
