// Service workload: DecodeService on C2 with fixed-layered-nms:batch=16,
// max_batch=16, 2 workers and the metrics registry on, under an open
// loop of four fixed offered-rate steps.
//
// One generator thread replays a pregenerated 4.2 dB LLR pool on a
// fixed schedule whether or not the service keeps up; the deadline of
// each frame is its scheduled send time plus the 100 ms latency limit.
// The calling thread pops responses. A third thread plays the live
// observability plane: every 200 ms it publishes the service counters
// (SyncMetricsCounters) and takes a registry Snapshot.
//
// Latency runs from a frame's scheduled send time to the pop of its
// response; a rejected, shed or failed frame counts as infinite
// latency (kMissMs). After the timed phase every ok response must be
// bit-identical to a direct decode of its LLRs with its tier's
// canonical spec (tier_specs()) - the correctness gate.
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ldpc/core/registry.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using cldpc::serve::Admission;
using cldpc::serve::Status;

constexpr char kCode[] = "c2";
constexpr char kDecoderSpec[] = "fixed-layered-nms:batch=16";
constexpr double kEbN0 = 4.2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 16;
/// LLR pool size: large enough that the pool's mix of easy and hard
/// frames (iterations to converge) hardly changes from seed to seed.
constexpr std::uint64_t kPoolFrames = 512;
constexpr auto kLimit = std::chrono::milliseconds(100);
constexpr double kLimitMs = 100.0;
/// A frame that missed (rejected, shed, failed) has infinite latency;
/// this is the finite number that stands for it in percentiles.
constexpr double kMissMs = 1e4;
constexpr auto kLivePlanePeriod = std::chrono::milliseconds(200);
/// Longest wait for a response before the run gives up on it.
constexpr auto kResponseTimeout = std::chrono::seconds(10);
constexpr int kSetupRepeats = 5;

/// Offered-rate steps, frames/s. Frozen: `low`, `mid` and `high` were
/// set once to about 25%, 50% and 90% of the service's measured
/// capacity on the reference host (see README.md), and are never
/// recalibrated per run. `share` is the step's part of the timed phase.
struct Step {
  const char* name;
  double rate;
  double share;
};
constexpr Step kSteps[] = {{"light", 200.0, 0.4},
                           {"low", 800.0, 0.2},
                           {"mid", 1600.0, 0.2},
                           {"high", 2800.0, 0.2}};
constexpr std::size_t kNumSteps = std::size(kSteps);
/// The step whose latency is the workload's end-to-end latency: `light`.
/// Two workers decoding one frame per batch (about 1.8 ms each) sustain
/// about 1100 frames/s, so `low` already runs them at 70%: a host
/// slowdown of a third tips it into the batched mode, and its median
/// jumps from about 1.8 to 4-7 ms. At `light` (under 20%) nearly every
/// frame meets an idle worker, so its latency follows the host's speed
/// in proportion.
constexpr std::size_t kHeadlineStep = 0;

struct ServeSetup {
  cldpc::codes::CatalogCode code;
  std::unique_ptr<cldpc::obs::MetricsRegistry> registry;
  std::unique_ptr<cldpc::serve::DecodeService> service;
  cldpc::serve::DecodeClient* client = nullptr;
  double load_s = 0.0;
  double total_s = 0.0;
};

/// FNV-1a over a frame's hard decisions: lets the gate compare every
/// response with its reference decode without keeping the bits.
std::uint64_t HashBits(const std::vector<std::uint8_t>& bits) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto b : bits) h = (h ^ b) * 1099511628211ULL;
  return h;
}

std::vector<double> PoolFrame(const std::vector<double>& pool, std::size_t n,
                              std::uint64_t index) {
  const auto first = pool.begin() + static_cast<std::ptrdiff_t>(index * n);
  return {first, first + static_cast<std::ptrdiff_t>(n)};
}

/// CPUs this process may run on, ascending.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Ids of this process's threads, ascending.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(
        static_cast<pid_t>(std::stol(e.path().filename().string())));
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// Pin thread `tid` (0: the calling thread) to `cpu`.
void PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(tid, sizeof(set), &set);
}

/// Starts the service with each of its threads (the pool's workers,
/// then the dispatcher) on a CPU of its own, and the calling thread -
/// with the generator, receiver and live-plane threads it starts later
/// - on the first CPU. Left to the scheduler, the threads landed
/// differently in each process, and the `light` step's median took one
/// of two values 30% apart from run to run (with setup_s moving the
/// other way). With fewer than kWorkers + 2 CPUs nothing is pinned.
std::unique_ptr<cldpc::serve::DecodeService> StartPinned(
    const cldpc::ldpc::LdpcCode& code,
    const cldpc::serve::ServiceConfig& config) {
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < kWorkers + 2)
    return std::make_unique<cldpc::serve::DecodeService>(code, config);
  PinThread(0, cpus[0]);
  const std::vector<pid_t> before = ThreadIds();
  auto service = std::make_unique<cldpc::serve::DecodeService>(code, config);
  std::size_t next = 1;
  for (const pid_t tid : ThreadIds())
    if (!std::binary_search(before.begin(), before.end(), tid) &&
        next < cpus.size())
      PinThread(tid, cpus[next++]);
  return service;
}

/// Code load, service start and the warm-up burst that fills the lazy
/// decoder pools of every shedding tier.
ServeSetup SetUp(const std::vector<double>* pool) {
  ServeSetup s;
  const auto t0 = Clock::now();
  s.code = cldpc::codes::LoadCode(kCode);
  s.load_s = SecondsSince(t0);
  s.registry = std::make_unique<cldpc::obs::MetricsRegistry>();
  cldpc::serve::ServiceConfig config;
  config.decoder_spec = kDecoderSpec;
  config.workers = kWorkers;
  config.max_batch = kMaxBatch;
  config.client_queue_capacity = 1 << 14;
  config.metrics = s.registry.get();
  s.service = StartPinned(*s.code.code, config);
  s.client = &s.service->Connect();
  if (pool != nullptr) {
    const std::size_t n = s.code.code->n();
    const auto far = cldpc::serve::ServiceClock::now() + std::chrono::hours(1);
    std::uint64_t admitted = 0;
    for (std::uint64_t i = 0; i < config.queue_capacity; ++i)
      admitted += s.service->Submit(*s.client, i,
                                    PoolFrame(*pool, n, i % kPoolFrames),
                                    far) == Admission::kAdmitted;
    cldpc::serve::DecodeResponse r;
    for (std::uint64_t got = 0; got < admitted; ++got)
      if (!s.client->WaitPop(r, kResponseTimeout))
        throw std::runtime_error("service warm-up: a response never came");
  }
  s.total_s = SecondsSince(t0);
  return s;
}

/// What the generator and the receiver record about one frame.
struct FrameRecord {
  std::size_t step = 0;
  std::uint64_t pool_index = 0;
  Clock::time_point scheduled{};
  Clock::time_point submit_start{};
  Clock::time_point submit_end{};
  Admission admission = Admission::kRejectedShutdown;
  // Receiver side (valid when popped).
  bool popped = false;
  Clock::time_point pop{};
  Status status = Status::kShedShutdown;
  std::int32_t tier = 0;
  std::int32_t iterations = 0;
  bool converged = false;
  std::int64_t service_us = 0;
  std::uint64_t bits_hash = 0;

  bool Ok() const { return popped && status == Status::kOk; }
  double LatencyMs() const {
    return Ok() ? ToMs(pop - scheduled) : kMissMs;
  }
};

struct StepRun {
  std::vector<FrameRecord> frames;
  std::size_t depth_start[kNumSteps] = {};
  std::size_t depth_end[kNumSteps] = {};
  std::vector<std::pair<Clock::time_point, Clock::time_point>> sync, snapshot;
  double wall_s = 0.0;
  /// Admitted frames whose response never arrived.
  std::uint64_t lost = 0;
};

/// One pass over the steps, `seconds` in all.
StepRun RunSteps(ServeSetup& s, const std::vector<double>& pool,
                 double seconds, std::uint64_t seed) {
  const std::size_t n = s.code.code->n();
  StepRun run;
  // The schedule: frame i of step k at the step's start + i/rate;
  // which pool frame it replays is drawn from the seed.
  cldpc::Xoshiro256pp rng(cldpc::DeriveSeed(seed, 7));
  std::vector<double> offset_s;
  double step_start_s = 0.0;
  for (std::size_t k = 0; k < kNumSteps; ++k) {
    const double step_s = kSteps[k].share * seconds;
    const auto count = static_cast<std::uint64_t>(kSteps[k].rate * step_s);
    for (std::uint64_t i = 0; i < count; ++i) {
      FrameRecord f;
      f.step = k;
      f.pool_index = rng.NextBounded(kPoolFrames);
      run.frames.push_back(f);
      offset_s.push_back(step_start_s +
                         static_cast<double>(i) / kSteps[k].rate);
    }
    step_start_s += step_s;
  }

  std::atomic<std::uint64_t> admitted{0};
  std::atomic<bool> generator_done{false};
  std::mutex plane_mutex;
  std::condition_variable plane_cv;
  bool plane_stop = false;  // guarded by plane_mutex

  std::thread plane([&] {
    std::unique_lock lock(plane_mutex);
    while (!plane_cv.wait_for(lock, kLivePlanePeriod,
                              [&] { return plane_stop; })) {
      const auto t0 = Clock::now();
      s.service->SyncMetricsCounters();
      const auto t1 = Clock::now();
      const auto snap = s.registry->Snapshot();
      const auto t2 = Clock::now();
      (void)snap;
      run.sync.emplace_back(t0, t1);
      run.snapshot.emplace_back(t1, t2);
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::thread generator([&] {
    std::size_t step = kNumSteps;
    for (std::size_t i = 0; i < run.frames.size(); ++i) {
      FrameRecord& f = run.frames[i];
      f.scheduled = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offset_s[i]));
      if (f.step != step) {
        // One depth reading ends the previous step and starts this one.
        std::this_thread::sleep_until(f.scheduled);
        const std::size_t depth = s.service->QueueDepth();
        if (step < kNumSteps) run.depth_end[step] = depth;
        step = f.step;
        run.depth_start[step] = depth;
      }
      auto llrs = PoolFrame(pool, n, f.pool_index);
      std::this_thread::sleep_until(f.scheduled);
      f.submit_start = Clock::now();
      f.admission = s.service->Submit(*s.client, i, std::move(llrs),
                                      f.scheduled + kLimit);
      f.submit_end = Clock::now();
      if (f.admission == Admission::kAdmitted)
        admitted.fetch_add(1, std::memory_order_release);
    }
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(step_start_s)));
    run.depth_end[kNumSteps - 1] = s.service->QueueDepth();
    generator_done.store(true, std::memory_order_release);
  });

  // Receiver: pop until every admitted frame has answered, or no
  // response came for kResponseTimeout after the last send. The
  // generator and the receiver write disjoint fields of a record.
  std::uint64_t received = 0;
  auto last_progress = Clock::now();
  cldpc::serve::DecodeResponse r;
  for (;;) {
    const bool sent_all = generator_done.load(std::memory_order_acquire);
    if (sent_all && received == admitted.load(std::memory_order_acquire))
      break;
    if (!s.client->WaitPop(r, std::chrono::milliseconds(20))) {
      if (sent_all && Clock::now() - last_progress > kResponseTimeout) break;
      continue;
    }
    const auto now = Clock::now();
    last_progress = now;
    FrameRecord& f = run.frames[r.id];
    f.popped = true;
    f.pop = now;
    f.status = r.status;
    f.tier = r.tier;
    f.iterations = r.iterations;
    f.converged = r.converged;
    f.service_us = r.latency_us;
    if (r.status == Status::kOk) f.bits_hash = HashBits(r.bits);
    ++received;
  }
  generator.join();
  {
    std::lock_guard lock(plane_mutex);
    plane_stop = true;
  }
  plane_cv.notify_all();
  plane.join();
  run.wall_s = SecondsSince(start);
  run.lost = admitted.load() - received;
  return run;
}

/// Gate: every ok response equals a direct decode of its pool frame
/// with the canonical spec of the tier it was decoded under.
void CheckResponses(const ServeSetup& s, const std::vector<double>& pool,
                    const StepRun& run, bool inject_mismatch,
                    Report& report) {
  const std::size_t n = s.code.code->n();
  const auto& specs = s.service->tier_specs();
  std::map<std::pair<std::int32_t, std::uint64_t>,
           cldpc::ldpc::DecodeResult>
      reference;
  for (const auto& f : run.frames)
    if (f.Ok()) reference[{f.tier, f.pool_index}] = {};
  for (std::size_t tier = 0; tier < specs.size(); ++tier) {
    auto decoder = cldpc::ldpc::MakeDecoder(*s.code.code, specs[tier]);
    for (auto& [key, result] : reference)
      if (key.first == static_cast<std::int32_t>(tier))
        result = decoder->Decode({pool.data() + key.second * n, n});
  }
  if (run.lost > 0)
    report.Fail(std::to_string(run.lost) +
                " admitted frames got no response");
  std::uint64_t mismatched = 0;
  bool first_ok = true;
  for (const auto& f : run.frames) {
    if (!f.Ok()) continue;
    const auto& ref = reference.at({f.tier, f.pool_index});
    const bool flip = inject_mismatch && first_ok;
    first_ok = false;
    if (HashBits(ref.bits) != f.bits_hash || flip ||
        ref.iterations_run != f.iterations || ref.converged != f.converged)
      ++mismatched;
  }
  if (mismatched > 0)
    report.Fail(std::to_string(mismatched) +
                " ok responses differ from a direct decode with their "
                "tier's canonical spec");
}

struct StepStats {
  double offered = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t ok_in_limit = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t shed_expired = 0;
  std::uint64_t tier_shed = 0;
  std::vector<double> latency_ms;
  bool meets_slo = false;
};

std::vector<StepStats> Summarize(const StepRun& run) {
  std::vector<StepStats> steps(kNumSteps);
  for (std::size_t k = 0; k < kNumSteps; ++k)
    steps[k].offered = kSteps[k].rate;
  for (const auto& f : run.frames) {
    StepStats& st = steps[f.step];
    ++st.attempted;
    st.latency_ms.push_back(f.LatencyMs());
    st.rejected_full += f.admission == Admission::kRejectedFull;
    st.shed_expired += f.popped && f.status == Status::kShedExpired;
    if (f.Ok()) {
      ++st.ok;
      st.tier_shed += f.tier > 0;
      st.ok_in_limit += f.LatencyMs() <= kLimitMs;
    }
  }
  // The backlog condition allows one dispatch batch of slack: the
  // ring's depth at an instant swings by up to a batch while a worker
  // is about to take one.
  for (std::size_t k = 0; k < kNumSteps; ++k) {
    StepStats& st = steps[k];
    st.meets_slo = Percentile(st.latency_ms, 0.99) <= kLimitMs &&
                   st.ok_in_limit * 1000 >= st.attempted * 999 &&
                   run.depth_end[k] <= run.depth_start[k] + kMaxBatch;
  }
  return steps;
}

double Ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

/// Spans of the traced pass, built from the recorded timestamps once
/// the threads have ended: per frame a root from scheduled send to pop
/// with submit, service and deliver children; the live-plane calls.
void TraceRun(const StepRun& run, Tracer& tracer) {
  for (std::size_t i = 0; i < run.frames.size(); ++i) {
    const FrameRecord& f = run.frames[i];
    const auto end = f.popped ? f.pop : f.submit_end;
    tracer.Add("serve.frame", f.scheduled, end, -1, i);
    const auto root = static_cast<std::int32_t>(tracer.size() - 1);
    tracer.Add("serve.submit", f.submit_start, f.submit_end, root, i);
    if (!f.popped) continue;
    const auto ready =
        f.submit_start + std::chrono::microseconds(f.service_us);
    tracer.Add("serve.service", f.submit_start, ready, root, i);
    tracer.Add("serve.deliver", ready, f.pop, root, i);
  }
  for (const auto& [a, b] : run.sync) tracer.Add("obs.sync", a, b, -1, 0);
  for (const auto& [a, b] : run.snapshot)
    tracer.Add("obs.snapshot", a, b, -1, 0);
}

}  // namespace

void RunServeWorkload(const Options& options, Tracer& tracer,
                      Report& report) {
  // Inputs first (not part of set-up): the LLR pool the generator
  // replays.
  std::vector<double> pool;
  {
    const auto code = cldpc::codes::LoadCode(kCode);
    pool = MakeLlrs(code, kEbN0, options.seed, kPoolFrames);
  }
  std::vector<double> setup_s, load_s;
  std::unique_ptr<ServeSetup> s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s.reset();
    s = std::make_unique<ServeSetup>(SetUp(&pool));
    setup_s.push_back(s->total_s);
    load_s.push_back(s->load_s);
  }
  report.Attr("code", kCode);
  report.Attr("decoder", kDecoderSpec);
  std::string rates;
  for (const auto& st : kSteps)
    rates += std::string(st.name) + "=" + std::to_string(st.rate) + " ";
  report.Attr("offered_rates_per_s", rates);

  const StepRun run = RunSteps(*s, pool, options.seconds,
                               options.seed);
  CheckResponses(*s, pool, run, options.inject_mismatch, report);
  const auto steps = Summarize(run);
  std::uint64_t ok_in_limit = 0, ok = 0;
  for (const auto& st : steps) {
    ok_in_limit += st.ok_in_limit;
    ok += st.ok;
  }
  report.attempted = run.frames.size();
  report.failed = report.attempted - ok_in_limit;

  if (!options.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("frames_per_s", static_cast<double>(ok) / run.wall_s, "1/s");
    report.Set("ok_ratio", Ratio(ok_in_limit, report.attempted), "ratio");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    ReportLatency(report, steps[kHeadlineStep].latency_ms, Centre::kMedian,
                  std::string("frames at step ") +
                      kSteps[kHeadlineStep].name);
    return;
  }

  // Traced run: the timed phase records the same timestamps as the
  // untraced one; the spans are built from them afterwards, so the
  // tracing cost is the span building, as a share of the timed phase.
  const auto trace_start = Clock::now();
  TraceRun(run, tracer);
  report.Set("trace.overhead_share", SecondsSince(trace_start) / run.wall_s,
             "ratio");

  double max_rate = 0.0;
  for (std::size_t k = 0; k < kNumSteps; ++k) {
    const StepStats& st = steps[k];
    const std::string name = kSteps[k].name;
    report.Set("serve.latency_p50_ms." + name, Percentile(st.latency_ms, 0.5),
               "ms");
    report.Set("serve.latency_p99_ms." + name,
               Percentile(st.latency_ms, 0.99), "ms");
    report.Set("serve.rejected_full_ratio." + name,
               Ratio(st.rejected_full, st.attempted), "ratio");
    report.Set("serve.shed_expired_ratio." + name,
               Ratio(st.shed_expired, st.attempted), "ratio");
    report.Set("serve.tier_shed_ratio." + name, Ratio(st.tier_shed, st.ok),
               "ratio");
    if (st.meets_slo) max_rate = std::max(max_rate, st.offered);
  }
  report.Set("serve.max_rate_slo", max_rate, "1/s");

  const auto durations = [&tracer](const char* span, double per_second) {
    auto v = tracer.Durations(span);
    for (auto& x : v) x *= per_second;
    return v;
  };
  const auto submit_us = durations("serve.submit", 1e6);
  const auto service_ms = durations("serve.service", 1e3);
  const auto deliver_ms = durations("serve.deliver", 1e3);
  std::vector<double> gen_lag_ms;
  for (const auto& f : run.frames)
    gen_lag_ms.push_back(ToMs(f.submit_start - f.scheduled));
  report.Set("serve.submit_us.p50", Percentile(submit_us, 0.5), "us");
  report.Set("serve.submit_us.p99", Percentile(submit_us, 0.99), "us");
  report.Set("serve.service_ms.p50", Percentile(service_ms, 0.5), "ms");
  report.Set("serve.service_ms.p99", Percentile(service_ms, 0.99), "ms");
  report.Set("serve.deliver_ms.p50", Percentile(deliver_ms, 0.5), "ms");
  report.Set("serve.gen_lag_ms.p99", Percentile(gen_lag_ms, 0.99), "ms");
  report.Set("obs.sync_us.p99", Percentile(durations("obs.sync", 1e6), 0.99),
             "us");
  report.Set("obs.snapshot_us.p99",
             Percentile(durations("obs.snapshot", 1e6), 0.99), "us");

  report.Set("codes.load_s", Median(load_s), "s");
  const auto t0 = Clock::now();
  cldpc::ldpc::MakeDecoder(*s->code.code, kDecoderSpec);
  report.Set("ldpc.decoder.build_s", SecondsSince(t0), "s");

}

}  // namespace e2ebench
