// Runtime ISA dispatch for the lane-batched decode kernels.
//
// The layered decoder's hot loops (CnUpdateBatch scan, compressed
// Peel/Store/FoldFresh, the lane-group engine) are compiled several
// times — once per ISA, each kernel TU (ldpc/batched_lanes_*.cpp)
// with its own -m flags and its own namespace so the linker cannot
// merge the differently-compiled instantiations:
//
//   batched_lanes_scalar.cpp  — baseline flags (x86-64 SSE2 / the
//                               target's default; on aarch64 this is
//                               where NEON auto-vectorization lands)
//   batched_lanes_avx2.cpp    — -mavx2 -mno-fma
//   batched_lanes_avx512.cpp  — -mavx512{f,bw,vl,dq}
//
// Each TU exports one LaneKernelTable of plain function pointers; the
// probe below picks the best table the CPU *and* the build support at
// first use. Every table computes bit-identical results (integer
// datapaths are ISA-independent; the float paths ban FMA contraction
// per-TU), so selection is purely a throughput decision — one binary
// runs correctly anywhere, which retires the old cpu_check.cpp
// startup abort of the compile-time -mavx2 build.
//
// The environment variable CLDPC_ISA=scalar|avx2|avx512 forces a
// level at or below the detected one (requests the CPU or build
// cannot honor fall back to the best available, loudly on stderr) —
// this is how CI exercises the scalar fallback on AVX2 runners.
//
// NEON note: there is no dedicated NEON table. On aarch64 builds the
// x86 TUs compile as baseline copies, DetectIsa() reports kScalar,
// and the "scalar" table IS the NEON path (the compiler's baseline
// already includes NEON); a hand-tiered NEON table would slot in here
// the same way the AVX tables do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ldpc/core/batch_kernel.hpp"
#include "ldpc/core/cn_compress.hpp"
#include "ldpc/core/syndrome_tracker.hpp"
#include "ldpc/decoder.hpp"
#include "util/fixed_point.hpp"

namespace cldpc::ldpc {
// The lane traits (defined with LayeredDecoder).
struct DoubleLanes;
struct F32Lanes;
struct FixedLanes;
struct I8Lanes;
}  // namespace cldpc::ldpc

namespace cldpc::ldpc::core {

enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// "scalar" / "avx2" / "avx512".
const char* IsaName(Isa isa);

/// Parse an ISA name (the CLDPC_ISA grammar); loud error on unknown
/// names.
Isa ParseIsaName(const std::string& name);

/// The decode work every datapath's entry point shares. The caller
/// (the decoder's DecodeBatch) owns all buffers. `results` must be
/// pre-sized by the caller — num_frames entries, each with bits
/// already sized to n — so the ISA-compiled kernels never touch
/// std::vector growth paths (container template instantiations are
/// weak symbols shared across TUs; an ISA-flagged copy winning the
/// link would leak AVX code into baseline callers).
struct LaneDecodeCommon {
  const LdpcCode* code = nullptr;
  IterOptions iter;
  const double* llrs = nullptr;  // num_frames frames of n LLRs
  std::size_t num_frames = 0;
  std::size_t max_lanes = 0;
  std::uint32_t* hard_mask = nullptr;  // packed per-bit lane masks
  BatchSyndromeTracker* syndrome = nullptr;
  DecodeResult* results = nullptr;  // out, pre-sized (see above)
};

/// One lane-group decode request for datapath `Lanes` (a lane trait
/// of ldpc/batched_layered_decoder.hpp: DoubleLanes, F32Lanes,
/// FixedLanes or I8Lanes). The decoder owns every buffer; the fields
/// a datapath does not use stay null/zero.
template <class Lanes>
struct LaneArgs {
  LaneDecodeCommon common;
  typename Lanes::Rule rule{};  // CN magnitude correction
  // Fixed datapaths only: channel quantizer and word widths.
  const LlrQuantizer* quantizer = nullptr;
  int message_bits = 0;
  int app_bits = 0;
  typename Lanes::AppValue* app = nullptr;  // APP accumulator lanes
  CompressedCnLanes<typename Lanes::Datapath>* store = nullptr;
  typename Lanes::AppValue* extr = nullptr;
  typename Lanes::Value* bc = nullptr;  // narrowed CN inputs (fixed)
  // Saturation-event counters (i8 only): when non-null the kernel
  // runs its counting twin and accumulates message-clamp /
  // BN-accumulate-saturation event counts here; when null the
  // uninstrumented loops run. Results are identical either way.
  std::uint64_t* msg_clamps = nullptr;
  std::uint64_t* bn_saturations = nullptr;
};

/// One ISA's set of lane-decode entry points.
struct LaneKernelTable {
  const char* name = "";
  void (*decode_double)(const LaneArgs<DoubleLanes>&) = nullptr;
  void (*decode_f32)(const LaneArgs<F32Lanes>&) = nullptr;
  void (*decode_fixed)(const LaneArgs<FixedLanes>&) = nullptr;
  void (*decode_i8)(const LaneArgs<I8Lanes>&) = nullptr;
};

/// The per-TU tables. A TU whose flags the compiler did not support
/// returns null (CMake only defines CLDPC_LANE_TU_ENABLED where the
/// -m flags actually applied), so dispatch can never select a table
/// that is not genuinely compiled for its ISA.
const LaneKernelTable* GetLaneKernelsScalar();
const LaneKernelTable* GetLaneKernelsAvx2();
const LaneKernelTable* GetLaneKernelsAvx512();

/// True when `isa` is usable here: the executing CPU supports it AND
/// this build compiled a table for it.
bool IsaAvailable(Isa isa);

/// The best usable ISA, after applying a CLDPC_ISA override if set.
/// Computed once and cached.
Isa DetectIsa();

/// The kernel table DetectIsa() selected (never null: the scalar
/// table always exists).
const LaneKernelTable& ActiveLaneKernels();

/// The table for a specific level, or null when unavailable — lets
/// tests run the same decode through two ISA levels and compare.
const LaneKernelTable* LaneKernelsFor(Isa isa);

/// Test hook: force the active table to `isa` (must be available).
/// Decoders consult ActiveLaneKernels() per DecodeBatch call, so the
/// override applies immediately; pass DetectIsa()'s original value to
/// restore.
void ForceIsaForTesting(Isa isa);

/// Human-readable dispatch report for --cpu-info: per-level CPU/build
/// support, the selected kernel set, and the override knob.
std::string DescribeCpuDispatch();

}  // namespace cldpc::ldpc::core
