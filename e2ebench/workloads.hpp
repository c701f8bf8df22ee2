// The benchmark's workloads. Each runs its timed phase for
// options.seconds, checks its outputs, and fills the report: the
// end-to-end metrics when options.trace is false, the per-layer
// metrics of a separate traced run when it is true. `tracer` is
// enabled exactly when options.trace is set; the caller writes its
// spans out.
#pragma once

#include <cstdint>
#include <vector>

#include "codes/catalog.hpp"
#include "harness.hpp"

namespace e2ebench {

/// Channel LLRs of frames [0, frames) of sweep point 0 at `ebn0_db`,
/// frame-major: exactly the frames SimEngine simulates for `seed`
/// (same seed derivation, encoder and channel).
std::vector<double> MakeLlrs(const cldpc::codes::CatalogCode& code,
                             double ebn0_db, std::uint64_t seed,
                             std::uint64_t frames);

/// engine_c2_4p2db / engine_c2_3p0db: SimEngine::Run on C2.
/// `datapath_rows` adds the per-datapath decoder rows to the traced
/// run, measured on this workload's LLRs.
void RunEngineWorkload(const Options& options, double ebn0_db,
                       bool datapath_rows, Tracer& tracer, Report& report);

/// serve_c2_steps: DecodeService under four open-loop rate steps.
void RunServeWorkload(const Options& options, Tracer& tracer,
                      Report& report);

/// shard_small_ckpt: RunCoordinator with frequent checkpoints.
void RunShardWorkload(const Options& options, Tracer& tracer,
                      Report& report);

}  // namespace e2ebench
