// Shard workload: RunCoordinator on the `small` code with
// layered-nms:batch=8 at two Eb/N0 points, split into 8 shards run by
// 2 forked worker processes of 1 engine thread each, checkpointing
// every 160 frames per point. This is the write path (unit files and
// checkpoints: serialize + fsync + rename), fork and reap, and many
// short chunked engine runs, so a per-Run set-up cost shows here.
//
// The timed phase repeats whole coordinator runs, each in a fresh work
// directory. The merge of every run must equal a single-process
// RunShard of the whole unit - the correctness gate.
//
// The coordinator forks without exec, so this workload starts no
// thread of its own.
#include <filesystem>
#include <iterator>
#include <map>
#include <unistd.h>

#include "dist/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "dist/shard_runner.hpp"
#include "ldpc/core/registry.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

namespace dist = cldpc::dist;
namespace fs = std::filesystem;

constexpr char kCode[] = "small";
constexpr char kDecoderSpec[] = "layered-nms:batch=8";
constexpr double kEbN0[] = {3.0, 4.0};
constexpr std::uint64_t kShards = 8;
constexpr std::size_t kWorkers = 2;
/// Frames per point of one coordinator run (a shard then runs for about
/// 100 ms, long against the coordinator's 5 ms reap poll), and the
/// checkpoint interval (frames per point) handed to the workers. At 20
/// frames the workload's throughput halved whenever the host's disk was
/// busy; at 160 a shard still writes 8 checkpoints, and their cost is
/// measured per layer.
constexpr std::uint64_t kFramesPerPoint = 5120;
constexpr std::uint64_t kCheckpointEvery = 160;
constexpr int kSetupRepeats = 7;
/// Probe calls per in-process layer timing: enough that p99 has ten
/// samples beyond it.
constexpr int kCheckpointSamples = 1000;
constexpr int kShareSamples = 5;

dist::WorkUnit WholeUnit(std::uint64_t seed) {
  dist::WorkUnit unit;
  unit.code_spec = kCode;
  unit.decoder_spec = kDecoderSpec;
  unit.ebn0_db.assign(std::begin(kEbN0), std::end(kEbN0));
  unit.base_seed = seed;
  unit.frame_count = kFramesPerPoint;
  unit.batch_frames = 8;
  return unit;
}

/// One coordinator run, with its first dispatch and each shard's
/// dispatch-to-merge interval as the coordinator reported them through
/// its log.
struct CoordinatorRun {
  dist::CoordinatorReport report;
  std::vector<dist::ShardResult> shard_results;
  Clock::time_point start{}, first_dispatch{}, end{};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> shards;
};

CoordinatorRun RunOnce(const std::vector<dist::WorkUnit>& units,
                       const std::string& work_dir) {
  fs::remove_all(work_dir);
  fs::create_directories(work_dir);
  CoordinatorRun run;
  std::map<std::string, Clock::time_point> dispatched;
  dist::CoordinatorOptions options;
  options.work_dir = work_dir;
  options.max_workers = kWorkers;
  options.worker_threads = 1;
  options.checkpoint_every_frames = kCheckpointEvery;
  // Log lines read "<unit id>: dispatch ..." and "<unit id>: merged ...".
  options.log = [&run, &dispatched](const std::string& line) {
    const auto now = Clock::now();
    const auto colon = line.find(": ");
    if (colon == std::string::npos) return;
    const std::string id = line.substr(0, colon);
    const std::string what = line.substr(colon + 2);
    if (what.rfind("dispatch", 0) == 0) {
      if (dispatched.empty()) run.first_dispatch = now;
      dispatched.emplace(id, now);
    }
    const auto d = dispatched.find(id);
    if (what.rfind("merged", 0) == 0 && d != dispatched.end())
      run.shards.emplace_back(d->second, now);
  };
  options.on_shard_merged = [&run](std::uint64_t,
                                   const dist::ShardResult& r) {
    run.shard_results.push_back(r);
  };
  run.start = Clock::now();
  run.report = dist::RunCoordinator(units, options);
  run.end = Clock::now();
  fs::remove_all(work_dir);
  return run;
}

bool SameStats(const dist::ShardResult& a, const dist::ShardResult& b) {
  if (a.points.size() != b.points.size() || a.frames_done != b.frames_done)
    return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& p = a.points[i];
    const auto& q = b.points[i];
    if (p.frames != q.frames || p.bit_errors != q.bit_errors ||
        p.bit_trials != q.bit_trials || p.frame_errors != q.frame_errors ||
        p.iterations_total != q.iterations_total)
      return false;
  }
  return true;
}

/// Coordinator runs until `seconds` have passed (at least one run).
struct Loop {
  std::vector<CoordinatorRun> runs;
  double coordinator_s = 0.0;  // summed RunCoordinator wall time
  std::uint64_t frames_merged = 0;
  std::uint64_t frames_assigned = 0;
  std::uint64_t frames_lost = 0;
};

Loop RunLoop(const std::vector<dist::WorkUnit>& units,
             const std::string& work_root, double seconds) {
  Loop loop;
  const auto t0 = Clock::now();
  do {
    CoordinatorRun run = RunOnce(
        units, work_root + "/run-" + std::to_string(loop.runs.size()));
    loop.coordinator_s += std::chrono::duration<double>(run.end - run.start)
                              .count();
    loop.frames_merged += run.report.frames_merged;
    loop.frames_assigned += run.report.frames_assigned;
    loop.frames_lost += run.report.frames_lost_and_retried;
    loop.runs.push_back(std::move(run));
  } while (SecondsSince(t0) < seconds);
  return loop;
}

/// Gate: every run completed, kept its frame ledger, and merged to the
/// single-process result.
void CheckLoop(const Loop& loop, const dist::ShardResult& reference,
               bool inject_mismatch, Report& report) {
  for (std::size_t r = 0; r < loop.runs.size(); ++r) {
    const auto& rep = loop.runs[r].report;
    dist::ShardResult merged = rep.merged;
    if (inject_mismatch && r == 0 && !merged.points.empty())
      ++merged.points[0].bit_errors;
    if (!rep.all_complete || !rep.AccountingHolds())
      report.Fail("coordinator run " + std::to_string(r) +
                  " incomplete or frame ledger broken");
    else if (!SameStats(merged, reference))
      report.Fail("coordinator run " + std::to_string(r) +
                  " merge differs from the single-process RunShard");
  }
}

/// Per-shard latency (dispatch to merge), ms.
std::vector<double> ShardLatenciesMs(const Loop& loop) {
  std::vector<double> out;
  for (const auto& run : loop.runs)
    for (const auto& [dispatch, merge] : run.shards)
      out.push_back(ToMs(merge - dispatch));
  return out;
}

}  // namespace

void RunShardWorkload(const Options& options, Tracer& tracer,
                      Report& report) {
  const std::string work_root =
      std::string(kOutDir) + "/shard-work-" + std::to_string(::getpid());
  fs::remove_all(work_root);
  const auto whole = WholeUnit(options.seed);
  const auto units = dist::SplitWorkUnit(whole, kShards);

  // Set-up is code load and decoder construction (what each worker
  // does before its first frame), timed here in process, plus the
  // coordinator's start-up up to its first dispatch (unit files
  // written), timed in every coordinator run of the loop below.
  std::vector<double> worker_setup_s, load_s, build_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    const auto code = cldpc::codes::LoadCode(kCode);
    load_s.push_back(SecondsSince(t0));
    const auto t1 = Clock::now();
    cldpc::ldpc::MakeDecoder(*code.code, kDecoderSpec);
    build_s.push_back(SecondsSince(t1));
    worker_setup_s.push_back(SecondsSince(t0));
  }
  report.Attr("code", kCode);
  report.Attr("decoder", kDecoderSpec);
  report.Attr("shards", std::to_string(kShards) + " x " +
                            std::to_string(whole.TotalFrames() / kShards) +
                            " frames, " + std::to_string(kWorkers) +
                            " workers, checkpoint every " +
                            std::to_string(kCheckpointEvery) + " frames");

  // The traced run leaves 30% of the budget to the in-process probes.
  const Loop loop =
      RunLoop(units, work_root, options.seconds * (options.trace ? 0.7 : 1));
  const auto reference = dist::RunShard(whole, {}).result;
  CheckLoop(loop, reference, options.inject_mismatch, report);
  report.attempted = loop.frames_assigned;
  report.failed = report.correct ? loop.frames_assigned - loop.frames_merged
                                 : loop.frames_assigned;

  if (!options.trace) {
    fs::remove_all(work_root);
    std::vector<double> start_s;
    for (const auto& run : loop.runs)
      start_s.push_back(
          std::chrono::duration<double>(run.first_dispatch - run.start)
              .count());
    report.Set("setup_s", Median(worker_setup_s) + Median(start_s), "s");
    report.Set("frames_per_s",
               static_cast<double>(loop.frames_merged) / loop.coordinator_s,
               "1/s");
    report.Set("ok_ratio",
               report.correct ? static_cast<double>(loop.frames_merged) /
                                    static_cast<double>(loop.frames_assigned)
                              : 0.0,
               "ratio");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    // The coordinator sees a shard finish at its 5 ms reap poll, so a
    // shard's latency falls on a 5 ms grid and the median moves in
    // whole steps (about a tenth of it); the mean moves smoothly.
    ReportLatency(report, ShardLatenciesMs(loop), Centre::kMean,
                  "shards in " + std::to_string(loop.runs.size()) +
                      " coordinator runs");
    return;
  }

  // Traced run: the coordinator loop records the same dispatch and
  // merge times as the untraced one; spans are built from them
  // afterwards, so the tracing cost is the span building, as a share of
  // the coordinator time.
  const auto trace_start = Clock::now();
  double busy_s = 0.0;
  for (std::size_t r = 0; r < loop.runs.size(); ++r) {
    const auto& run = loop.runs[r];
    tracer.Add("dist.coordinator", run.start, run.end, -1, r);
    const auto root = static_cast<std::int32_t>(tracer.size() - 1);
    for (std::size_t i = 0; i < run.shards.size(); ++i) {
      const auto& [dispatch, merge] = run.shards[i];
      tracer.Add("dist.shard", dispatch, merge, root, i);
      busy_s += std::chrono::duration<double>(merge - dispatch).count();
    }
  }
  report.Set("dist.coordinator_idle_share",
             1.0 - busy_s / (kWorkers * loop.coordinator_s), "ratio");
  report.Set("dist.frames_lost_and_retried",
             static_cast<double>(loop.frames_lost), "count");
  report.Set("trace.overhead_share",
             SecondsSince(trace_start) / loop.coordinator_s, "ratio");

  // In-process layer timings through the public dist/ functions.
  fs::create_directories(work_root);
  const std::string path = work_root + "/probe.checkpoint.json";
  dist::Checkpoint checkpoint;
  checkpoint.unit_crc = units[0].ContentCrc();
  checkpoint.result = loop.runs.back().shard_results.at(0);
  std::vector<double> write_ms, load_us, merge_ms;
  for (int i = 0; i < kCheckpointSamples; ++i) {
    const auto t0 = Clock::now();
    dist::WriteCheckpointFile(path, checkpoint);
    const auto t1 = Clock::now();
    dist::Checkpoint back;
    if (dist::LoadCheckpointFile(path, checkpoint.unit_crc, &back) !=
        dist::CheckpointStatus::kOk)
      report.Fail("checkpoint written by the probe does not load back");
    const auto t2 = Clock::now();
    dist::MergeShardResults(loop.runs.back().shard_results);
    merge_ms.push_back(ToMs(Clock::now() - t2));
    write_ms.push_back(ToMs(t1 - t0));
    load_us.push_back(ToMs(t2 - t1) * 1e3);
    tracer.Add("dist.checkpoint_write", t0, t1, -1, i);
    tracer.Add("dist.checkpoint_load", t1, t2, -1, i);
  }
  report.Set("dist.checkpoint_write_ms.p50", Percentile(write_ms, 0.5), "ms");
  report.Set("dist.checkpoint_write_ms.p99", Percentile(write_ms, 0.99), "ms");
  report.Set("dist.checkpoint_load_us", Median(load_us), "us");
  report.Set("dist.merge_ms", Median(merge_ms), "ms");

  // Share of a shard's own run time that its checkpoints cost (medians
  // of a few in-process runs of one shard, each with a fresh file).
  std::vector<double> with_s, without_s;
  for (int i = 0; i < kShareSamples; ++i) {
    dist::ShardRunOptions with;
    with.checkpoint_path =
        work_root + "/share-" + std::to_string(i) + ".checkpoint.json";
    with.checkpoint_every_frames = kCheckpointEvery;
    auto t0 = Clock::now();
    dist::RunShard(units[0], with);
    with_s.push_back(SecondsSince(t0));
    t0 = Clock::now();
    dist::RunShard(units[0], {});
    without_s.push_back(SecondsSince(t0));
  }
  report.Set("dist.checkpoint_share",
             1.0 - Median(without_s) / Median(with_s), "ratio");

  report.Set("codes.load_s", Median(load_s), "s");
  report.Set("ldpc.decoder.build_s", Median(build_s), "s");
  fs::remove_all(work_root);
}

}  // namespace e2ebench
