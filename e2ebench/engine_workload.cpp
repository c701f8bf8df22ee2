// Engine workloads: SimEngine::Run on the CCSDS C2 code with
// fixed-layered-nms:batch=16 on one engine thread, metrics off.
//
// The untraced run times SimEngine itself. The traced run times a
// replica of SimEngine's per-batch pipeline (source, encode, channel,
// decode, tally) built from the public functions of util/rng,
// ldpc/encoder, channel/awgn and the decoder, with one span around
// each call; the replica must reproduce the engine's exact integer
// statistics for the same frames, which is this workload's
// correctness gate.
#include <algorithm>
#include <atomic>
#include <limits>
#include <span>

#include "channel/awgn.hpp"
#include "engine/sim_engine.hpp"
#include "gf2/bitvec.hpp"
#include "ldpc/core/registry.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using cldpc::codes::CatalogCode;

constexpr char kCode[] = "c2";
constexpr char kDecoderSpec[] = "fixed-layered-nms:batch=16";
constexpr std::uint64_t kBatch = 16;
/// Frames every exact count (iterations, occupancy, errors) is taken
/// over, whatever the run length, so equal seeds give equal counts.
constexpr std::uint64_t kExactFrames = 256;
constexpr int kSetupRepeats = 9;
/// Frames per latency sample: the engine hands results back a batch at
/// a time, and one batch's time jumps by whole decoder iterations (its
/// slowest frame). A chunk of 8 batches is the unit of latency instead.
/// Chunks run back to back with nothing queued between them, so their
/// times differ only by content and by the host's speed at the time;
/// the end-to-end latency is their mean, because their median jumps
/// between the host's speed states from run to run.
constexpr std::uint64_t kChunkFrames = 8 * kBatch;

/// The layered datapaths measured one by one on the same LLRs
/// (registry kind, SIMD lanes). A kind the registry no longer has is
/// skipped and its row reads 0.
struct Datapath {
  const char* kind;
  int lanes;
};
constexpr Datapath kDatapaths[] = {
    {"layered-nms", 1},
    {"fixed-layered-nms", 8},
    {"fixed-layered-nms", 16},
    {"layered-nms-f32", 16},
    {"fixed-layered-nms-i8", 32},
};

struct Setup {
  CatalogCode code;
  std::unique_ptr<cldpc::ldpc::Decoder> decoder;
  double load_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

/// Exact integer statistics of a run of frames.
struct Counts {
  std::uint64_t frames = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t iterations = 0;

  bool operator==(const Counts&) const = default;
  static Counts From(const cldpc::sim::BerPoint& p) {
    return {p.frames, p.bit_errors.errors(), p.frame_errors.errors(),
            p.iterations_total};
  }
};

std::string Describe(const Counts& c) {
  return std::to_string(c.frames) + " frames, " +
         std::to_string(c.bit_errors) + " bit errors, " +
         std::to_string(c.frame_errors) + " frame errors, " +
         std::to_string(c.iterations) + " iterations";
}

cldpc::sim::BerConfig EngineConfig(double ebn0_db, std::uint64_t seed,
                                   std::uint64_t frames) {
  cldpc::sim::BerConfig config;
  config.ebn0_db = {ebn0_db};
  config.base_seed = seed;
  config.max_frames = frames;
  config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
  config.threads = 1;
  config.batch_frames = kBatch;
  return config;
}

/// Code load (with the encoder build), decoder construction and one
/// warm-up batch through the engine: everything before the first
/// timed frame.
Setup SetUp(double ebn0_db, std::uint64_t seed) {
  Setup s;
  const auto t0 = Clock::now();
  s.code = cldpc::codes::LoadCode(kCode);
  s.load_s = SecondsSince(t0);
  const auto t1 = Clock::now();
  s.decoder = cldpc::ldpc::MakeDecoder(*s.code.code, kDecoderSpec);
  s.build_s = SecondsSince(t1);
  cldpc::engine::SimEngine warm(*s.code.code, *s.code.encoder,
                                EngineConfig(ebn0_db, seed, kBatch));
  warm.Run(*s.decoder);
  s.total_s = SecondsSince(t0);
  return s;
}

/// SimEngine::Run for `seconds` (or `frames` frames when seconds is 0).
struct EngineRun {
  Counts counts;
  double wall_s = 0.0;
  /// Wall time of each chunk of kChunkFrames frames, from the previous
  /// chunk's last tally to this one's: the latency of its frames.
  std::vector<double> chunk_ms;
  /// Frame-error flags of the first kExactFrames frames.
  std::vector<bool> errored;
};

EngineRun RunEngine(const Setup& s, double ebn0_db, std::uint64_t seed,
                    double seconds, std::uint64_t frames) {
  std::atomic<bool> stop{false};
  auto config = EngineConfig(
      ebn0_db, seed,
      seconds > 0.0 ? std::numeric_limits<std::uint64_t>::max() / 4 : frames);
  config.cancel = &stop;
  cldpc::engine::SimEngine engine(*s.code.code, *s.code.encoder, config);
  EngineRun run;
  const auto t0 = Clock::now();
  auto chunk_start = t0;
  // The callback runs on the engine's aggregator (this thread) in frame
  // order; it reads the clock once per batch and ends the run by
  // raising the engine's cancel flag, honoured at the next batch.
  const auto on_frame = [&](std::size_t, std::uint64_t frame, bool err) {
    if (frame < kExactFrames) run.errored.push_back(err);
    if ((frame + 1) % kBatch != 0) return;
    const auto now = Clock::now();
    if ((frame + 1) % kChunkFrames == 0) {
      run.chunk_ms.push_back(ToMs(now - chunk_start));
      chunk_start = now;
    }
    if (seconds > 0.0 && std::chrono::duration<double>(now - t0).count() >=
                             seconds)
      stop.store(true, std::memory_order_release);
  };
  const auto curve = engine.Run(*s.decoder, on_frame);
  run.wall_s = SecondsSince(t0);
  run.counts = Counts::From(curve.points.at(0));
  return run;
}

/// Result of the replica: the exact counts over all frames and over
/// the first kExactFrames, with the lane-slot total behind the lane
/// occupancy.
struct ReplicaRun {
  Counts counts;
  Counts exact;
  std::uint64_t exact_lane_slots = 0;
  std::vector<bool> errored;
  double wall_s = 0.0;
};

/// Front end of one frame, exactly as SimEngine stages it: info bits
/// from the data stream, systematic encode, BPSK over AWGN with the
/// noise stream. Spans cover each call when the tracer is on.
struct FrontEnd {
  const CatalogCode& code;
  double sigma;
  std::uint64_t seed;
  std::vector<std::uint8_t> info;
  std::vector<double> symbols;
  cldpc::gf2::BitVec parity;

  FrontEnd(const CatalogCode& c, double ebn0_db, std::uint64_t s)
      : code(c),
        sigma(cldpc::channel::SigmaForEbN0(ebn0_db, c.code->Rate())),
        seed(s),
        info(c.code->k()),
        symbols(c.code->n()) {}

  void Frame(std::uint64_t f, std::span<std::uint8_t> codeword,
             std::span<double> llrs, Tracer& tracer, std::int32_t parent) {
    {
      ScopedSpan span(tracer, "util.rng.source", parent, f);
      cldpc::Xoshiro256pp rng(cldpc::DeriveSeed(seed, 0, f, 1));
      for (auto& b : info) b = rng.NextBit() ? 1 : 0;
    }
    {
      ScopedSpan span(tracer, "ldpc.encoder.encode", parent, f);
      code.encoder->EncodeInto(info, codeword, parity);
    }
    {
      ScopedSpan span(tracer, "channel.awgn.channel", parent, f);
      cldpc::channel::AwgnChannel channel(sigma,
                                          cldpc::DeriveSeed(seed, 0, f, 2));
      cldpc::channel::BpskModulateInto(codeword, symbols);
      channel.TransmitLlrsInto(symbols, llrs);
    }
  }
};

ReplicaRun RunReplica(const Setup& s, double ebn0_db, std::uint64_t seed,
                      std::uint64_t frames, Tracer& tracer,
                      bool inject_mismatch) {
  const std::size_t n = s.code.code->n();
  const auto& counted = s.code.code->InfoCols();
  FrontEnd front(s.code, ebn0_db, seed);
  std::vector<std::uint8_t> codewords(kBatch * n);
  std::vector<double> llrs(kBatch * n);
  ReplicaRun run;
  std::uint64_t lane_slots = 0;

  const auto t0 = Clock::now();
  const std::int32_t root = tracer.Open("engine.run", -1, 0);
  for (std::uint64_t first = 0; first < frames; first += kBatch) {
    const std::uint64_t count = std::min(kBatch, frames - first);
    ScopedSpan batch(tracer, "engine.batch", root, first);
    for (std::uint64_t i = 0; i < count; ++i)
      front.Frame(first + i, {codewords.data() + i * n, n},
                  {llrs.data() + i * n, n}, tracer, batch.index());
    std::vector<cldpc::ldpc::DecodeResult> decoded;
    {
      ScopedSpan span(tracer, "ldpc.decoder.decode", batch.index(), first);
      decoded = s.decoder->DecodeBatch({llrs.data(), count * n}, count);
    }
    ScopedSpan span(tracer, "engine.tally", batch.index(), first);
    int group_max = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t errors = 0;
      for (const auto pos : counted)
        errors += decoded[i].bits[pos] != codewords[i * n + pos];
      if (inject_mismatch && first + i == 0) ++errors;
      run.counts.frames += 1;
      run.counts.bit_errors += errors;
      run.counts.frame_errors += errors != 0;
      run.counts.iterations +=
          static_cast<std::uint64_t>(decoded[i].iterations_run);
      group_max = std::max(group_max, decoded[i].iterations_run);
      if (first + i < kExactFrames) run.errored.push_back(errors != 0);
    }
    lane_slots += count * static_cast<std::uint64_t>(group_max);
    if (first + count == kExactFrames) {
      run.exact = run.counts;
      run.exact_lane_slots = lane_slots;
    }
  }
  tracer.Close(root);
  run.wall_s = SecondsSince(t0);
  return run;
}

/// Compare the replica with the engine over the same frames.
void CheckReplica(const Counts& engine, const ReplicaRun& replica,
                  const std::vector<bool>& engine_errored, Report& report) {
  if (!(engine == replica.counts))
    report.Fail("replica (" + Describe(replica.counts) +
                ") differs from SimEngine (" + Describe(engine) + ")");
  const std::size_t m = std::min(engine_errored.size(), replica.errored.size());
  for (std::size_t f = 0; f < m; ++f)
    if (engine_errored[f] != replica.errored[f]) {
      report.Fail("frame " + std::to_string(f) +
                  " error flag differs between SimEngine and replica");
      break;
    }
}

/// Decode throughput of each registered layered datapath on `llrs`,
/// `slice_s` seconds each.
void MeasureDatapaths(const CatalogCode& code, const std::vector<double>& llrs,
                      std::uint64_t frames, double slice_s, Report& report) {
  const std::size_t n = code.code->n();
  const auto kinds = cldpc::ldpc::RegisteredDecoderKinds();
  for (const auto& dp : kDatapaths) {
    const std::string row = std::string("ldpc.decoder.") + dp.kind + "_b" +
                            std::to_string(dp.lanes) + ".frames_per_s";
    if (std::find(kinds.begin(), kinds.end(), dp.kind) == kinds.end()) {
      report.Attr(row, "skipped: kind not registered");
      continue;
    }
    const std::string spec =
        std::string(dp.kind) + ":batch=" + std::to_string(dp.lanes);
    auto decoder = cldpc::ldpc::MakeDecoder(*code.code, spec);
    const auto lanes = static_cast<std::uint64_t>(dp.lanes);
    std::uint64_t decoded = 0;
    double elapsed_s = 0.0;
    const auto t0 = Clock::now();
    do {
      const std::uint64_t first = decoded % (frames - frames % lanes);
      decoder->DecodeBatch({llrs.data() + first * n, lanes * n}, lanes);
      decoded += lanes;
      elapsed_s = SecondsSince(t0);
    } while (elapsed_s < slice_s);
    report.Set(row, static_cast<double>(decoded) / elapsed_s, "1/s");
  }
}

}  // namespace

std::vector<double> MakeLlrs(const CatalogCode& code, double ebn0_db,
                             std::uint64_t seed, std::uint64_t frames) {
  const std::size_t n = code.code->n();
  FrontEnd front(code, ebn0_db, seed);
  Tracer off(false);
  std::vector<std::uint8_t> codeword(n);
  std::vector<double> llrs(frames * n);
  for (std::uint64_t f = 0; f < frames; ++f)
    front.Frame(f, codeword, {llrs.data() + f * n, n}, off, -1);
  return llrs;
}

void RunEngineWorkload(const Options& options, double ebn0_db,
                       bool datapath_rows, Tracer& tracer, Report& report) {
  std::vector<double> setup_s, load_s, build_s;
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s = SetUp(ebn0_db, options.seed);
    setup_s.push_back(s.total_s);
    load_s.push_back(s.load_s);
    build_s.push_back(s.build_s);
  }
  report.Attr("code", kCode);
  report.Attr("decoder", kDecoderSpec);
  report.Attr("ebn0_db", std::to_string(ebn0_db));

  if (!options.trace) {
    const EngineRun run =
        RunEngine(s, ebn0_db, options.seed, options.seconds, 0);
    report.attempted = run.counts.frames;
    // Gate: the replica reproduces the engine's per-frame error flags
    // and, against a second engine run over the same prefix, its exact
    // integer statistics.
    const ReplicaRun replica = RunReplica(s, ebn0_db, options.seed,
                                          kExactFrames, tracer,
                                          options.inject_mismatch);
    const EngineRun prefix = RunEngine(s, ebn0_db, options.seed, 0.0,
                                       kExactFrames);
    CheckReplica(prefix.counts, replica, run.errored, report);
    const std::uint64_t ok = report.correct ? kExactFrames : 0;
    report.failed = report.correct ? 0 : run.counts.frames;

    report.Set("setup_s", Median(setup_s), "s");
    report.Set("frames_per_s",
               static_cast<double>(run.counts.frames) / run.wall_s, "1/s");
    report.Set("ok_ratio",
               static_cast<double>(ok) / static_cast<double>(kExactFrames),
               "ratio");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    ReportLatency(report, run.chunk_ms, Centre::kMean,
                  "chunks of " + std::to_string(kChunkFrames) + " frames");
    return;
  }

  // Traced run: the untraced engine for 45% of the budget (30% when
  // the datapath rows take their share), then the traced replica over
  // exactly the same frames, which takes about as long.
  const double engine_s = options.seconds * (datapath_rows ? 0.3 : 0.45);
  const EngineRun untraced = RunEngine(s, ebn0_db, options.seed, engine_s, 0);
  const std::uint64_t frames =
      std::max(untraced.counts.frames, kExactFrames);
  const EngineRun reference =
      untraced.counts.frames == frames
          ? untraced
          : RunEngine(s, ebn0_db, options.seed, 0.0, frames);
  const ReplicaRun replica = RunReplica(s, ebn0_db, options.seed, frames,
                                        tracer, options.inject_mismatch);
  CheckReplica(reference.counts, replica, reference.errored, report);
  report.attempted = frames;
  report.failed = report.correct ? 0 : frames;

  const double per_frame_us = 1e6 / static_cast<double>(frames);
  double layer_sum_us = 0.0;
  for (const char* layer :
       {"util.rng.source", "ldpc.encoder.encode", "channel.awgn.channel",
        "ldpc.decoder.decode", "engine.tally"}) {
    const double us = tracer.TotalSeconds(layer) * per_frame_us;
    layer_sum_us += us;
    report.Set(std::string(layer) + "_us", us, "us");
  }
  const double traced_frame_us = replica.wall_s * per_frame_us;
  const double untraced_frame_us =
      reference.wall_s * 1e6 / static_cast<double>(reference.counts.frames);
  report.Set("engine.layer_sum_us", layer_sum_us, "us");
  report.Set("engine.frame_us", untraced_frame_us, "us");
  report.Set("engine.unaccounted_share", 1.0 - layer_sum_us / traced_frame_us,
             "ratio");
  report.Set("trace.overhead_share", traced_frame_us / untraced_frame_us - 1.0,
             "ratio");

  report.Set("ldpc.decoder.avg_iterations",
             static_cast<double>(replica.exact.iterations) /
                 static_cast<double>(replica.exact.frames),
             "count");
  report.Set("ldpc.decoder.lane_occupancy",
             static_cast<double>(replica.exact.iterations) /
                 static_cast<double>(replica.exact_lane_slots),
             "ratio");
  report.Set("engine.frame_errors",
             static_cast<double>(replica.exact.frame_errors), "count");
  report.Set("engine.bit_errors", static_cast<double>(replica.exact.bit_errors),
             "count");
  report.Set("codes.load_s", Median(load_s), "s");
  report.Set("ldpc.decoder.build_s", Median(build_s), "s");

  if (datapath_rows) {
    constexpr std::uint64_t kPoolFrames = 64;
    const auto llrs = MakeLlrs(s.code, ebn0_db, options.seed, kPoolFrames);
    MeasureDatapaths(s.code, llrs, kPoolFrames, options.seconds * 0.06,
                     report);
  }
}

}  // namespace e2ebench
