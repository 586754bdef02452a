#include "world.hpp"

#include "topogen/profiles.hpp"

namespace e2e {

using namespace ran;

namespace {

/// The ground-truth topologies are those of bench/common.hpp (its kSeed)
/// for every benchmark seed, so all seeds measure the same amount of work.
/// The seed drives per-probe noise (the World seed), where the VPs sit,
/// and the ISPs' rDNS staleness.
constexpr std::uint64_t kTopologySeed = 20211102;

}  // namespace

std::unique_ptr<CableWorld> make_cable_world(std::uint64_t seed,
                                             Spans& spans) {
  auto out = std::make_unique<CableWorld>(seed);
  net::Rng topo_rng{kTopologySeed};
  auto comcast_rng = topo_rng.fork();
  auto charter_rng = topo_rng.fork();
  net::Rng rng{seed};
  topo::Isp comcast{"", 0, topo::IspKind::kCable};
  topo::Isp charter{"", 0, topo::IspKind::kCable};
  {
    Scope span{spans, "topogen.generate"};
    comcast = topo::generate_cable(topo::comcast_profile(), comcast_rng);
    charter = topo::generate_cable(topo::charter_profile(), charter_rng);
  }
  {
    Scope span{spans, "simnet.finalize"};
    out->comcast = out->world.add_isp(std::move(comcast));
    out->charter = out->world.add_isp(std::move(charter));
  }
  {
    Scope span{spans, "vantage.vps"};
    auto vp_rng = rng.fork();
    out->vps = vp::add_distributed_vps(out->world, 47, vp_rng);
    out->clouds = vp::add_cloud_vms(out->world);
  }
  {
    Scope span{spans, "simnet.finalize"};
    out->world.finalize();
  }
  Scope span{spans, "dnssim.rdns"};
  // The same per-operator rDNS quality as bench/common.hpp: far more
  // outdated names at Comcast than at Charter (Table 4).
  auto dns_rng = rng.fork();
  dns::RdnsNoise comcast_noise;
  comcast_noise.missing_prob = 0.08;
  comcast_noise.stale_prob = 0.05;
  comcast_noise.stale_cross_region_frac = 0.40;
  dns::RdnsNoise charter_noise;
  charter_noise.missing_prob = 0.06;
  charter_noise.stale_prob = 0.025;
  charter_noise.stale_cross_region_frac = 0.15;
  out->live_comcast =
      dns::make_rdns(out->world.isp(out->comcast), comcast_noise, dns_rng);
  out->snap_comcast = dns::age_snapshot(out->live_comcast, 0.02, dns_rng);
  out->live_charter =
      dns::make_rdns(out->world.isp(out->charter), charter_noise, dns_rng);
  out->snap_charter = dns::age_snapshot(out->live_charter, 0.01, dns_rng);
  return out;
}

ran::infer::CableStudy run_cable_pipeline(const CableWorld& w,
                                         int parallelism) {
  infer::CablePipelineConfig config;
  config.campaign.parallelism = parallelism;
  return infer::CablePipeline{w.world, w.comcast, w.comcast_rdns(), config}
      .run(w.vps);
}

void report_setup_layers(Result& r, const Spans& spans) {
  for (const auto* layer : {"topogen.generate", "simnet.finalize",
                            "dnssim.rdns", "vantage.vps"}) {
    std::vector<double> per_setup;
    for (int k = 0; k < kSetups; ++k)
      per_setup.push_back(spans.total_ms(layer, k));
    r.set(std::string{layer} + "_ms", median(per_setup), "ms");
  }
}

}  // namespace e2e
