// The study workload: `cable_study` runs the §5 pipeline on the
// Comcast-like ISP at parallelism 4, repeated for the run's duration after
// one discarded warm-up study.
//
// Untraced runs time whole pipeline calls. The traced run (the study pass,
// which the serving workloads also run on their set-up study) replays each
// study as the sequence of public layer calls the pipeline makes, with a
// span around each, checks that every replayed call reproduces the
// pipeline's own output, and reconciles the pipeline's stage times plus
// the replayed calls that no stage covers against the study's wall time.
#include <algorithm>
#include <cstring>
#include <optional>
#include <set>

#include "core/cable_pipeline.hpp"
#include "core/co_mapping.hpp"
#include "core/corpus_index.hpp"
#include "core/corpus_io.hpp"
#include "core/eval.hpp"
#include "core/export.hpp"
#include "core/latency_study.hpp"
#include "core/snapshot.hpp"
#include "dnssim/extract.hpp"
#include "netbase/json.hpp"
#include "obs/metrics.hpp"
#include "probe/campaign.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace ran;

namespace {

// ---------------------------------------------------------------------------
// Digests of layer outputs, so a replayed call can be checked against the
// pipeline without keeping two copies of every artifact.

/// Mixes one 64-bit word into a running digest (splitmix64 finalizer).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t digest_traces(const std::vector<probe::TraceRecord>& traces) {
  std::uint64_t h = 0;
  for (const auto& t : traces) {
    h = fnv1a(t.vp, h);
    h = mix(h, (std::uint64_t{t.dst.value()} << 1) | (t.reached ? 1 : 0));
    for (const auto& hop : t.hops) {
      std::uint64_t rtt_bits = 0;
      std::memcpy(&rtt_bits, &hop.rtt_ms, sizeof(rtt_bits));
      h = mix(h, (std::uint64_t{hop.addr.value()} << 32) ^
                     (static_cast<std::uint64_t>(hop.ttl) << 16) ^
                     static_cast<std::uint64_t>(hop.reply_ttl));
      h = mix(h, rtt_bits);
    }
  }
  return h;
}

std::uint64_t digest_co_map(const infer::CoMap& map) {
  std::vector<std::pair<std::uint32_t, const infer::CoAnnotation*>> entries;
  for (const auto& [addr, annotation] : map.entries())
    entries.emplace_back(addr.value(), &annotation);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t h = fnv1a("");
  for (const auto& [addr, a] : entries)
    h = fnv1a(std::to_string(addr) + a->co_key + "/" + a->region + "/" +
                  (a->backbone ? "b" : "-") + (a->from_rdns ? "r" : "-") +
                  std::to_string(a->building),
              h);
  return h;
}

std::uint64_t digest_graphs(
    const std::map<std::string, infer::RegionalGraph>& regions,
    const obs::ProvenanceLog* provenance) {
  std::uint64_t h = fnv1a("");
  for (const auto& [name, graph] : regions)
    h = fnv1a(infer::to_json(graph, provenance), h);
  return h;
}

/// The inputs a study receives: the rDNS snapshot, the vantage points, and
/// what the world answers to probes — pings from the first VPs to the
/// first snapshot addresses, whose RTT noise the world's seed drives.
std::uint64_t digest_inputs(const sim::World& world,
                            const dns::RdnsDb& snapshot,
                            const std::vector<vp::ExternalVp>& vps) {
  const std::map<net::IPv4Address, std::string> names{
      snapshot.entries().begin(), snapshot.entries().end()};
  std::uint64_t h = fnv1a("");
  std::vector<net::IPv4Address> targets;
  for (const auto& [addr, name] : names) {
    h = fnv1a(addr.to_string() + "=" + name, h);
    if (targets.size() < 16) targets.push_back(addr);
  }
  for (std::size_t i = 0; i < vps.size(); ++i) {
    h = fnv1a(vps[i].name, h);
    if (i >= 8) continue;
    for (const auto target : targets) {
      const auto reply = world.ping(vps[i].source(), target);
      std::uint64_t rtt_bits = 0;
      std::memcpy(&rtt_bits, &reply.rtt_ms, sizeof(rtt_bits));
      h = mix(h, (std::uint64_t{reply.responder.value()} << 1) |
                     (reply.responded ? 1 : 0));
      h = mix(h, rtt_bits);
    }
  }
  return h;
}

/// A manifest's "summary" section, flattened to section.key -> value
/// token, for comparing a replay's summaries with the pipeline's.
std::map<std::string, std::string> summary_of(
    const obs::RunManifest& manifest) {
  std::map<std::string, std::string> out;
  const auto doc = net::parse_json(manifest.to_json());
  const auto* summary = doc ? doc->find("summary") : nullptr;
  if (summary == nullptr) return out;
  for (const auto& [section, entries] : summary->object)
    for (const auto& [key, value] : entries.object)
      out[section + "." + key] = value.str;
  return out;
}

/// Adds an error for every summary entry on which `got` differs from
/// `want` (missing entries included).
void compare_summaries(const std::map<std::string, std::string>& got,
                       const std::map<std::string, std::string>& want,
                       const std::string& who,
                       std::vector<std::string>& errors) {
  std::set<std::string> keys;
  for (const auto& [key, value] : got) keys.insert(key);
  for (const auto& [key, value] : want) keys.insert(key);
  for (const auto& key : keys) {
    const auto g = got.find(key);
    const auto w = want.find(key);
    const std::string gv = g == got.end() ? "(none)" : g->second;
    const std::string wv = w == want.end() ? "(none)" : w->second;
    if (gv != wv)
      errors.push_back(who + ": summary " + key + " is " + gv +
                       ", pipeline has " + wv);
  }
}

// ---------------------------------------------------------------------------
// Manifest reading

/// A manifest's top-level stages: name -> wall ms.
std::map<std::string, double> read_stages(const obs::RunManifest& manifest) {
  std::map<std::string, double> out;
  const auto doc = net::parse_json(manifest.to_json({.include_timings = true}));
  if (!doc) return out;
  if (const auto* stages = doc->find("stages"))
    if (const auto* children = stages->find("children"))
      for (const auto& child : children->array) {
        const auto* name = child.find("name");
        const auto* wall = child.find("wall_ms");
        if (name != nullptr && wall != nullptr) out[name->str] += wall->num;
      }
  return out;
}

// ---------------------------------------------------------------------------
// Replay: layer calls with spans around them.

class Replay {
 public:
  Replay(Spans& spans, const sim::World& world)
      : spans_(spans), world_(world) {}

  /// One CampaignRunner::run, as the pipeline makes it: a runner with a
  /// metrics registry attached, at the workload's parallelism.
  std::vector<probe::TraceRecord> campaign(
      const std::vector<probe::ProbeTask>& tasks) {
    obs::Registry metrics;
    probe::CampaignConfig config;
    config.parallelism = kParallelism;
    config.metrics = &metrics;
    const probe::CampaignRunner runner{world_, config};
    const double cpu0 = process_cpu_ms();
    Scope span{spans_, "probe.campaign"};
    auto out = runner.run(tasks);
    const double wall = span.close();
    cpu_ms += process_cpu_ms() - cpu0;
    wall_ms += wall;
    ++batches;
    traces += tasks.size();
    return out;
  }

  template <typename F>
  auto layer(const char* name, F&& fn) {
    Scope span{spans_, name};
    return fn();
  }

  double cpu_ms = 0;
  double wall_ms = 0;
  int batches = 0;
  std::size_t traces = 0;

 private:
  Spans& spans_;
  const sim::World& world_;
};

/// Replays CablePipeline::run for the default configuration, one public
/// call at a time, and returns the study it assembles.
infer::CableStudy replay_cable_calls(const CableWorld& w, Replay& rp) {
  const auto& world = w.world;
  const auto& isp = world.isp(w.comcast);
  const auto rdns = w.comcast_rdns();
  const std::span<const vp::ExternalVp> vps{w.vps};
  infer::CableStudy study;
  obs::Registry metrics;

  auto sweep = rp.layer("core.sweep_targets", [&] {
    const auto offset =
        static_cast<std::uint64_t>(infer::CablePipelineConfig{}.sweep_offset);
    std::vector<net::IPv4Address> out;
    for (const auto& prefix : isp.address_space())
      for (std::uint64_t i = 0; i < (prefix.size() >> 8); ++i)
        out.push_back(prefix.at((i << 8) + offset));
    return out;
  });
  study.sweep_targets = sweep.size();
  infer::TraceCorpus sweep_corpus;
  sweep_corpus.traces = rp.campaign(probe::grid_tasks(vps, sweep));
  auto named = rp.layer("core.rdns_targets", [&] {
    std::vector<net::IPv4Address> out;
    for (const auto& [addr, name] : rdns.snapshot->entries()) {
      if (!isp.owns(addr)) continue;
      const auto kind = dns::extract_hostname(name).kind;
      if (kind == dns::HostKind::kRegionalRouter ||
          kind == dns::HostKind::kBackboneRouter)
        out.push_back(addr);
    }
    std::sort(out.begin(), out.end());
    return out;
  });
  study.rdns_targets = named.size();
  infer::TraceCorpus rdns_corpus;
  rdns_corpus.traces = rp.campaign(probe::grid_tasks(vps, named));

  infer::TraceCorpus combined;
  rp.layer("core.merge", [&] { combined.merge(std::move(sweep_corpus)); });
  auto sweep_pairs =
      rp.layer("core.pairs",
               [&] { return infer::consecutive_pairs(combined); });
  rp.layer("core.merge", [&] { combined.merge(std::move(rdns_corpus)); });
  auto intermediates = rp.layer("core.followup_targets", [&] {
    std::vector<net::IPv4Address> out;
    for (const auto addr : combined.responding_addresses())
      if (isp.owns(addr)) out.push_back(addr);
    std::sort(out.begin(), out.end());
    return out;
  });
  study.followup_targets = intermediates.size();
  const auto followup_vps = std::min<std::size_t>(
      static_cast<std::size_t>(infer::CablePipelineConfig{}.followup_vps),
      vps.size());
  infer::TraceCorpus followups;
  followups.traces = rp.campaign(
      probe::grid_tasks(vps.first(followup_vps), intermediates));
  auto mpls = rp.layer("core.mpls_check", [&] {
    return infer::separated_pairs(followups);
  });
  rp.layer("core.merge", [&] {
    study.traces = std::move(combined);
    study.traces.merge(std::move(followups));
  });
  rp.layer("core.validate", [&] {
    infer::IngestConfig ingest;
    ingest.metrics = &metrics;
    return infer::validate_corpus(study.traces, ingest);
  });

  auto universe = rp.layer("core.alias_targets", [&] {
    std::vector<net::IPv4Address> out = intermediates;
    out.insert(out.end(), named.begin(), named.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    study.p2p_len = infer::detect_p2p_len(out);
    return out;
  });
  study.routers = rp.layer("core.alias", [&] {
    return infer::resolve_aliases(world, universe);
  });
  auto index = rp.layer("core.corpus_index", [&] {
    return infer::CorpusIndex::build(study.traces);
  });
  study.mapping = rp.layer("core.co_mapping", [&] {
    std::vector<infer::WeightedAdjacency> transit;
    for (const auto& record : index.pairs())
      if (record.transit_count > 0 && isp.owns(record.a))
        transit.push_back({record.a, record.b,
                           static_cast<int>(record.transit_count),
                           record.last_transit_seq});
    return infer::build_co_mapping(universe, transit, study.p2p_len, rdns,
                                   study.routers, &study.edge_provenance);
  });
  study.adjacency = rp.layer("core.prune", [&] {
    return infer::build_and_prune(study.traces, index, study.mapping.map,
                                  mpls, &study.edge_provenance, nullptr,
                                  kParallelism);
  });
  study.refine = rp.layer("core.refine", [&] {
    infer::RefineOptions options;
    options.threads = kParallelism;
    return infer::refine_regions(study.adjacency.regions, index,
                                 study.mapping.map, options,
                                 &study.edge_provenance);
  });
  rp.layer("core.co_adjacency", [&] {
    // §5.1's sweep-only vs total CO interconnection counts.
    const auto add = [&](net::IPv4Address a, net::IPv4Address b,
                         std::set<std::pair<std::string, std::string>>& out) {
      const auto name_a = rdns.lookup(a);
      const auto name_b = rdns.lookup(b);
      if (!name_a || !name_b) return;
      const auto info_a = dns::extract_hostname(*name_a);
      const auto info_b = dns::extract_hostname(*name_b);
      if (info_a.kind != dns::HostKind::kRegionalRouter ||
          info_b.kind != dns::HostKind::kRegionalRouter ||
          info_a.co_key == info_b.co_key)
        return;
      out.emplace(info_a.co_key, info_b.co_key);
    };
    std::set<std::pair<std::string, std::string>> sweep_only, total;
    for (const auto& [a, b] : sweep_pairs) add(a, b, sweep_only);
    for (const auto& record : index.pairs()) add(record.a, record.b, total);
    study.co_adjs_sweep_only = sweep_only.size();
    study.co_adjs_total = total.size();
  });
  rp.layer("core.manifest", [&] {
    study.mapping.stats.publish(metrics, "cable.b1");
    study.adjacency.stats.publish(metrics, "cable.b2");
    study.refine.publish(metrics, "cable.refine");
    auto& manifest = study.run_manifest;
    manifest.add_summary("campaign", "vps",
                         static_cast<std::uint64_t>(vps.size()));
    manifest.add_summary("campaign", "sweep_targets", study.sweep_targets);
    manifest.add_summary("campaign", "rdns_targets", study.rdns_targets);
    manifest.add_summary("campaign", "followup_targets",
                         study.followup_targets);
    manifest.add_summary("campaign", "co_adjs_sweep_only",
                         study.co_adjs_sweep_only);
    manifest.add_summary("campaign", "co_adjs_total", study.co_adjs_total);
    manifest.add_summary("corpus", "traces", study.traces.size());
    manifest.add_summary("corpus", "responding_addresses",
                         study.traces.responding_addresses().size());
    manifest.add_summary("clusters", "alias_clusters",
                         static_cast<std::uint64_t>(
                             study.routers.alias_cluster_count()));
    manifest.add_summary("graph", "p2p_len",
                         static_cast<std::uint64_t>(study.p2p_len));
    manifest.add_summary("graph", "regions",
                         static_cast<std::uint64_t>(study.regions().size()));
    std::size_t cos = 0;
    std::size_t edges = 0;
    for (const auto& [region, graph] : study.regions()) {
      cos += graph.cos.size();
      edges += graph.edge_count();
    }
    manifest.add_summary("graph", "cos", cos);
    manifest.add_summary("graph", "edges", edges);
    manifest.capture(metrics);
    study.run_manifest.capture_provenance(study.edge_provenance);
  });
  auto rtts = rp.layer("core.rtt_extract",
                             [&] { return infer::agg_to_edge_rtts(study); });
  study.topology = rp.layer("core.snapshot_build", [&] {
    return std::make_shared<const infer::TopologySnapshot>(
        infer::TopologySnapshot::build(
            "cable", study.regions(),
            std::make_shared<obs::ProvenanceLog>(study.edge_provenance), 1,
            rtts));
  });
  // The pipeline frees its intermediates before returning.
  rp.layer("core.teardown", [&] {
    sweep = {};
    named = {};
    sweep_pairs = {};
    intermediates = {};
    mpls = {};
    universe = {};
    index = {};
    rtts = {};
  });
  return study;
}

/// What a cable replay is checked against: digests of the pipeline's
/// traces, CO map and graphs, its snapshot, its target and §5.1 CO-pair
/// counts, and its manifest summaries.
struct CableRef {
  std::uint64_t traces = 0;
  std::uint64_t co_map = 0;
  std::uint64_t graphs = 0;
  std::string snapshot;
  std::vector<std::size_t> counts;
  std::map<std::string, std::string> summary;

  explicit CableRef(const infer::CableStudy& study)
      : traces(digest_traces(study.traces.traces)),
        co_map(digest_co_map(study.mapping.map)),
        graphs(digest_graphs(study.regions(), &study.edge_provenance)),
        snapshot(study.snapshot()->to_json()),
        counts{study.sweep_targets, study.rdns_targets,
               study.followup_targets, study.co_adjs_sweep_only,
               study.co_adjs_total},
        summary(summary_of(study.manifest())) {}
};

/// Replays the cable study and compares every layer's output with the
/// pipeline's. The target lists, the §5.1 CO-pair count and the manifest
/// summaries are the benchmark's copies of code private to
/// CablePipeline::run; comparing their results keeps the copies honest.
std::vector<std::string> replay_cable(const CableWorld& w, const CableRef& ref,
                                      Replay& rp) {
  const auto replayed = replay_cable_calls(w, rp);
  const CableRef got{replayed};
  std::vector<std::string> errors;
  const auto check = [&](bool same, const char* what) {
    if (!same)
      errors.push_back(std::string{"cable replay: "} + what +
                       " differ from the pipeline's");
  };
  check(got.traces == ref.traces, "traces");
  check(got.co_map == ref.co_map, "CO maps");
  check(got.graphs == ref.graphs, "graphs");
  check(got.snapshot == ref.snapshot, "snapshots");
  check(got.counts == ref.counts, "target and CO-pair counts");
  compare_summaries(got.summary, ref.summary, "cable replay", errors);
  return errors;
}


// ---------------------------------------------------------------------------
// Study runs

/// One pipeline call's outputs, kept as the bytes the correctness check
/// compares: the deterministic manifest and the snapshot JSON.
struct Outputs {
  std::string manifest;
  std::string snapshot;
  bool operator==(const Outputs&) const = default;
};

Outputs outputs_of(const infer::CableStudy& study) {
  return {study.manifest().to_json(), study.snapshot()->to_json()};
}

/// The layer spans that cover work outside every manifest stage.
bool unstaged(const std::string& name) {
  static const std::set<std::string> names = {
      "core.rdns_targets", "core.merge",        "core.pairs",
      "core.followup_targets", "core.mpls_check", "core.validate",
      "core.alias_targets", "core.co_adjacency", "core.manifest",
      "core.rtt_extract",  "core.snapshot_build", "core.teardown"};
  return names.contains(name);
}

/// What the traced iterations collect, one entry per iteration.
struct TracedTotals {
  std::vector<double> study_ms, untraced_ms, coverage, unattributed_ms;
  std::map<std::string, std::vector<double>> layer_ms, stage_ms;
  std::vector<double> campaign_ms, campaign_cpu_ms, batches, traces;

  /// Folds one traced iteration (a pipeline call under a "study" span
  /// plus its replay) in. Reconciliation: the pipeline's own stage times
  /// plus the replayed calls no stage covers, over the study's wall time.
  /// The replay is a separate execution, so the uncovered calls are scaled
  /// by the stage times over the replayed calls the stages do cover: a
  /// host phase that slows one execution as a whole cancels out.
  void add(const Spans& spans, int iteration, double ms,
           const std::map<std::string, double>& stages, const Replay& rp) {
    study_ms.push_back(ms);
    double staged = 0;
    for (const auto& [stage, stage_wall] : stages) {
      stage_ms[stage].push_back(stage_wall);
      staged += stage_wall;
    }
    unattributed_ms.push_back(ms - staged);
    std::map<std::string, double> layers;
    const auto& all = spans.spans();
    for (const auto& span : all)
      if (span.iteration == iteration && span.parent >= 0 &&
          all[static_cast<std::size_t>(span.parent)].name == "replay")
        layers[span.name] += span.end_ms - span.start_ms;
    double unstaged_ms = 0;
    double replay_staged_ms = 0;
    for (const auto& [name, layer_wall] : layers) {
      if (name.starts_with("core.")) layer_ms[name].push_back(layer_wall);
      (unstaged(name) ? unstaged_ms : replay_staged_ms) += layer_wall;
    }
    coverage.push_back(
        (staged + unstaged_ms * staged / replay_staged_ms) / ms);
    campaign_ms.push_back(rp.wall_ms);
    campaign_cpu_ms.push_back(rp.cpu_ms);
    batches.push_back(rp.batches);
    traces.push_back(static_cast<double>(rp.traces));
  }

  void report(Result& r) const {
    const double study = median(study_ms);
    r.set("study.traced_ms", study, "ms");
    r.set("trace.overhead_ms", study - median(untraced_ms), "ms");
    r.set("study.unattributed_ms", median(unattributed_ms), "ms");
    const double cover = median(coverage);
    r.set("trace.coverage", cover, "ratio");
    if (std::abs(cover - 1.0) > 0.05)
      r.fail("reconciliation: stages plus unstaged layer spans account for " +
             std::to_string(cover) + " of the traced study_ms (limit 5%)");
    for (const auto& [stage, values] : stage_ms)
      r.set("study.stage." + stage + "_ms", median(values), "ms");
    for (const auto& [layer, values] : layer_ms)
      r.set(layer + "_ms", median(values), "ms");
    double wall = 0, cpu = 0, total = 0;
    for (std::size_t i = 0; i < campaign_ms.size(); ++i) {
      wall += campaign_ms[i];
      cpu += campaign_cpu_ms[i];
      total += traces[i];
    }
    r.set("probe.campaign_ms", median(campaign_ms), "ms");
    r.set("probe.batches", median(batches), "count");
    r.set("probe.traces_per_s", wall > 0 ? total / (wall / 1e3) : 0, "1/s");
    r.set("probe.cpu_util", wall > 0 ? cpu / (wall * kParallelism) : 0,
          "ratio");
    r.info["traced_iterations"] = std::to_string(study_ms.size());
    r.info["untraced_iterations"] = std::to_string(untraced_ms.size());
  }
};

}  // namespace

void report_accuracy(Result& r, const CableWorld& w,
                     const infer::CableStudy& study) {
  std::size_t inferred = 0, correct = 0, true_edges = 0;
  for (const auto& [name, graph] : study.regions())
    if (const auto acc =
            infer::compare_with_truth(graph, w.world.isp(w.comcast))) {
      inferred += acc->inferred_edges;
      correct += acc->correct_edges;
      true_edges += acc->true_edges;
    }
  r.set("edge_precision",
        inferred == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(inferred),
        "ratio");
  r.set("edge_recall",
        true_edges == 0 ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(true_edges),
        "ratio");
}

void trace_studies(CableWorld& w, const infer::CableStudy& reference,
                   double seconds, Spans& spans, Result& r) {
  const Outputs want = outputs_of(reference);
  const CableRef ref{reference};
  obs::Registry world_metrics;
  w.world.set_metrics(&world_metrics);
  TracedTotals traced;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (int i = 0; Clock::now() < deadline || i < kMinTracedStudies; ++i) {
    // Every fourth study runs untraced (the baseline of the tracing
    // overhead). Each other study is preceded by its replay, whose outputs
    // are dropped before the study starts so both begin from the same heap.
    const bool traced_iteration = i % 4 != 0;
    const int iteration = kSetups + i;
    spans.set_iteration(iteration);
    std::optional<Replay> rp;
    if (traced_iteration) {
      rp.emplace(spans, w.world);
      std::vector<std::string> mismatches;
      {
        Scope span{spans, "replay"};
        mismatches = replay_cable(w, ref, *rp);
      }
      ++r.attempted;
      if (!mismatches.empty()) ++r.failed;
      for (auto& what : mismatches) r.fail(std::move(what));
    }
    ++r.attempted;
    double ms = 0;
    const auto study = [&] {
      Scope span{traced_iteration ? spans : Spans::disabled(), "study"};
      auto s = run_cable_pipeline(w, kParallelism);
      ms = span.close();
      return s;
    }();
    if (outputs_of(study) != want) {
      ++r.failed;
      r.fail("traced study " + std::to_string(i) +
             ": manifest or snapshot differs from the reference");
    }
    if (traced_iteration)
      traced.add(spans, iteration, ms, read_stages(study.manifest()), *rp);
    else
      traced.untraced_ms.push_back(ms);
  }
  spans.set_iteration(-1);
  w.world.set_metrics(nullptr);
  const auto scraped = world_metrics.snapshot();
  const auto count = [&](const char* name) {
    const auto it = scraped.volatile_counters.find(name);
    return it == scraped.volatile_counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  const double hits = count("sim.route_cache.hits");
  const double misses = count("sim.route_cache.misses");
  r.set("simnet.route_cache_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  traced.report(r);
}

/// Sets up kSetups times (setup_s is their median, each with the
/// discarded warm-up study), checks the warm-up study against a
/// parallelism-1 one, then times studies at kParallelism until the run's
/// time is up, each checked byte for byte against the warm-up. The traced
/// run replaces the timed studies with the study pass and adds the serving
/// pass on the warm-up study's snapshot.
Result run_cable_study(const Options& opt) {
  Result r;
  Spans spans{opt.trace};
  double setup_s = 0;
  auto [w, warm] = set_up(
      make_cable_world,
      [](const CableWorld& world) {
        return run_cable_pipeline(world, kParallelism);
      },
      opt.seed, spans, setup_s);
  r.set("setup_s", setup_s, "s");
  const Outputs reference = outputs_of(warm);
  r.info["input_digest"] =
      hex(digest_inputs(w->world, w->snap_comcast, w->vps));
  r.info["output_digest"] =
      hex(fnv1a(reference.snapshot, fnv1a(reference.manifest)));
  r.info["study_traces"] = std::to_string(warm.traces.size());
  report_accuracy(r, *w, warm);
  // The traced run's passes start from the warm-up study. The measured
  // studies start without it, on the heap the parallelism-1 study leaves.
  std::optional<infer::CableStudy> kept;
  if (opt.trace) kept.emplace(std::move(warm));
  warm = {};
  if (outputs_of(run_cable_pipeline(*w, 1)) != reference)
    r.fail("warm-up study at parallelism 4 differs from parallelism 1");
  if (opt.trace) {
    report_setup_layers(r, spans);
    trace_studies(*w, *kept, opt.seconds, spans, r);
    trace_serving(*kept, opt.seed, kServingPassSeconds, spans, r);
    r.spans_json = spans.to_json();
    return r;
  }
  reset_peak_rss();

  std::vector<double> study_ms;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (int i = 0; Clock::now() < deadline || i < 3; ++i) {
    ++r.attempted;
    const auto t0 = Clock::now();
    const auto study = run_cable_pipeline(*w, kParallelism);
    study_ms.push_back(ms_since(t0));
    if (outputs_of(study) != reference) {
      ++r.failed;
      r.fail("study " + std::to_string(i) +
             ": manifest or snapshot differs from the reference");
    }
  }
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.set("latency_ms", median(study_ms), "ms");
  r.info["study_ms"] = describe(study_ms);
  return r;
}

}  // namespace e2e
