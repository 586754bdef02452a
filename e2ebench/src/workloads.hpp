// The benchmark's workloads. Each builds its inputs from the seed, sets
// up, discards a warm-up iteration, measures for `seconds`, and checks
// its outputs; see README.md for what each one is for.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/cable_pipeline.hpp"
#include "world.hpp"

namespace e2e {

/// Campaign and kernel parallelism of every study: the host's core count
/// the workloads were chosen for.
inline constexpr int kParallelism = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

[[nodiscard]] Result run_cable_study(const Options& opt);
[[nodiscard]] Result run_serve(const Options& opt, bool republish);

// Every workload reports every metric. The traced run of a workload covers
// the layers its measured loop does not exercise with one of these passes.

/// edge_precision / edge_recall of `study`: compare_with_truth pooled over
/// the regions of the Comcast-like ISP.
void report_accuracy(Result& r, const CableWorld& w,
                     const ran::infer::CableStudy& study);

/// The study pass: cable studies at kParallelism for `seconds` (at least
/// kMinTracedStudies), each checked against `reference`, a study of the
/// same world. Every fourth runs untraced; each other one is preceded by a
/// replay of its public layer calls inside spans. Sets the simnet, probe,
/// core and reconciliation per-layer metrics.
inline constexpr int kMinTracedStudies = 4;
void trace_studies(CableWorld& w, const ran::infer::CableStudy& reference,
                   double seconds, Spans& spans, Result& r);

/// The serving pass: serves `study`'s snapshot on loopback with the
/// republish writer running, for `seconds` at the fixed rate and then up
/// the rate ladder. Sets the serving and publishing per-layer metrics.
inline constexpr double kServingPassSeconds = 2;
void trace_serving(const ran::infer::CableStudy& study, std::uint64_t seed,
                   double seconds, Spans& spans, Result& r);

}  // namespace e2e
