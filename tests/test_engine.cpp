#include "engine/sim_engine.hpp"

#include <gtest/gtest.h>

#include "engine/thread_pool.hpp"

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "codes/catalog.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/minsum_decoder.hpp"
#include "qc/small_codes.hpp"
#include "sim/ber_runner.hpp"
#include "util/contracts.hpp"

namespace cldpc::engine {
namespace {

struct Fixture {
  ldpc::LdpcCode code{qc::MakeSmallQcCode().Expand()};
  ldpc::Encoder encoder{code};
};

Fixture& Shared() {
  static Fixture f;
  return f;
}

ldpc::MinSumOptions DecOpts(int iters = 25) {
  ldpc::MinSumOptions o;
  o.iter.max_iterations = iters;
  o.variant = ldpc::MinSumVariant::kNormalized;
  o.alpha = 1.23;
  return o;
}

DecoderFactory Factory(int iters = 25) {
  auto& f = Shared();
  return [&f, iters] {
    return std::make_unique<ldpc::MinSumDecoder>(f.code, DecOpts(iters));
  };
}

/// Field-by-field equality, exact doubles included: the engine
/// promises *byte-identical* curves, not statistically similar ones.
void ExpectIdentical(const sim::BerCurve& a, const sim::BerCurve& b) {
  EXPECT_EQ(a.decoder_name, b.decoder_name);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const auto& pa = a.points[i];
    const auto& pb = b.points[i];
    EXPECT_EQ(pa.ebn0_db, pb.ebn0_db);
    EXPECT_EQ(pa.bit_errors.errors(), pb.bit_errors.errors());
    EXPECT_EQ(pa.bit_errors.trials(), pb.bit_errors.trials());
    EXPECT_EQ(pa.frame_errors.errors(), pb.frame_errors.errors());
    EXPECT_EQ(pa.frame_errors.trials(), pb.frame_errors.trials());
    EXPECT_EQ(pa.frames, pb.frames);
    EXPECT_EQ(pa.avg_iterations, pb.avg_iterations);
  }
}

TEST(SimEngine, MatchesSequentialRunnerForAnyThreadCount) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.0, 4.5};
  config.max_frames = 48;
  config.min_frame_errors = 1000;  // never reached
  config.base_seed = 7;

  sim::BerRunner runner(f.code, f.encoder, config);
  ldpc::MinSumDecoder dec(f.code, DecOpts());
  const auto reference = runner.Run(dec);

  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::uint64_t batch : {1u, 5u, 16u, 64u}) {
      config.threads = threads;
      config.batch_frames = batch;
      SimEngine sim(f.code, f.encoder, config);
      const auto curve = sim.Run(Factory());
      ExpectIdentical(curve, reference);
    }
  }
}

TEST(SimEngine, EarlyStopIsIdenticalToSequentialRunner) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {1.0};  // far below the waterfall: frames error often
  config.max_frames = 500;
  config.min_frame_errors = 5;
  config.base_seed = 11;

  sim::BerRunner runner(f.code, f.encoder, config);
  ldpc::MinSumDecoder dec(f.code, DecOpts(5));
  const auto reference = runner.Run(dec);
  ASSERT_EQ(reference.points[0].frame_errors.errors(), 5u);
  ASSERT_LT(reference.points[0].frames, config.max_frames);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    config.threads = threads;
    config.batch_frames = 4;
    SimEngine sim(f.code, f.encoder, config);
    const auto curve = sim.Run(Factory(5));
    // The speculative workers must not leak extra frames into the
    // result: the consumed prefix ends at the exact stopping frame.
    ExpectIdentical(curve, reference);
  }
}

TEST(SimEngine, CallbackFiresInSequentialOrder) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {2.0, 5.0};
  config.max_frames = 20;
  config.min_frame_errors = 1000;
  using Event = std::tuple<std::size_t, std::uint64_t, bool>;

  std::vector<Event> sequential;
  {
    SimEngine sim(f.code, f.encoder, config);
    ldpc::MinSumDecoder dec(f.code, DecOpts());
    sim.Run(dec, [&sequential](std::size_t s, std::uint64_t fr, bool e) {
      sequential.emplace_back(s, fr, e);
    });
  }
  ASSERT_EQ(sequential.size(), 40u);

  std::vector<Event> parallel;
  config.threads = 4;
  config.batch_frames = 3;
  SimEngine sim(f.code, f.encoder, config);
  sim.Run(Factory(), [&parallel](std::size_t s, std::uint64_t fr, bool e) {
    parallel.emplace_back(s, fr, e);
  });
  EXPECT_EQ(parallel, sequential);
}

TEST(SimEngine, BerRunnerFactoryOverloadUsesConfiguredThreads) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.5};
  config.max_frames = 30;
  config.base_seed = 42;

  sim::BerRunner sequential_runner(f.code, f.encoder, config);
  ldpc::MinSumDecoder dec(f.code, DecOpts());
  const auto reference = sequential_runner.Run(dec);

  config.threads = 3;
  sim::BerRunner parallel_runner(f.code, f.encoder, config);
  const auto curve = parallel_runner.Run(Factory());
  ExpectIdentical(curve, reference);
}

TEST(SimEngine, AllZeroCodewordModeIsThreadCountInvariant) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {4.0};
  config.max_frames = 40;
  config.all_zero_codeword = true;

  SimEngine seq(f.code, f.encoder, config);
  const auto reference = seq.Run(Factory());

  config.threads = 4;
  SimEngine par(f.code, f.encoder, config);
  ExpectIdentical(par.Run(Factory()), reference);
}

TEST(SimEngine, RejectsBadConfig) {
  auto& f = Shared();
  sim::BerConfig config;  // no Eb/N0 points
  EXPECT_THROW(SimEngine(f.code, f.encoder, config), ContractViolation);

  config.ebn0_db = {3.0};
  config.batch_frames = 0;
  EXPECT_THROW(SimEngine(f.code, f.encoder, config), ContractViolation);
}

struct ThrowingDecoder final : ldpc::Decoder {
  ldpc::DecodeResult Decode(std::span<const double>) override {
    throw std::runtime_error("decoder exploded");
  }
  std::string Name() const override { return "throwing"; }
};

TEST(SimEngine, WorkerExceptionPropagatesToCaller) {
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.0};
  config.max_frames = 50;

  config.threads = 4;
  config.batch_frames = 4;
  SimEngine sim(f.code, f.encoder, config);
  EXPECT_THROW(sim.Run([] { return std::make_unique<ThrowingDecoder>(); }),
               std::runtime_error);
}

TEST(SimEngine, ThrowingFrameCallbackPropagatesCleanly) {
  // The aggregator must stop and drain the workers before unwinding;
  // a crash or hang here means `shared` was destroyed under them.
  auto& f = Shared();
  sim::BerConfig config;
  config.ebn0_db = {3.0};
  config.max_frames = 200;

  config.threads = 4;
  config.batch_frames = 2;
  SimEngine sim(f.code, f.encoder, config);
  int calls = 0;
  EXPECT_THROW(
      sim.Run(Factory(5),
              [&calls](std::size_t, std::uint64_t, bool) {
                if (++calls == 7) throw std::runtime_error("callback abort");
              }),
      std::runtime_error);
  EXPECT_EQ(calls, 7);
}

/// One pinned operating point: a catalog code and decoder spec at a
/// fixed Eb/N0, seed and frame count, with the exact integer
/// statistics SimEngine produced for it.
struct GoldenPoint {
  const char* code;
  const char* decoder;
  double ebn0_db;
  std::uint64_t frames;
  std::uint64_t bit_errors;
  std::uint64_t frame_errors;
  std::uint64_t undetected_errors;
  std::uint64_t iterations_total;
};

// Every frame's info bits, codeword and noise feed these counts, so
// any change to the source stream, the encoder, the Gaussian sampler
// or the channel arithmetic that moves a single LLR moves at least
// the iteration total. A front-end optimisation must leave them
// exactly as they are; a deliberate stream change must re-record them
// and say so.
constexpr std::uint64_t kGoldenSeed = 2009;
constexpr GoldenPoint kGoldenPoints[] = {
    {"c2", "fixed-layered-nms:batch=16", 3.0, 32, 7394, 32, 0, 576},
    {"c2", "fixed-layered-nms:batch=16", 4.2, 32, 0, 0, 0, 91},
    {"ft8", "fixed-layered-nms:batch=16", 2.5, 256, 135, 17, 0, 1068},
    {"small", "fixed-layered-nms:batch=16", 3.5, 256, 67, 5, 0, 722},
};

TEST(SimEngine, GoldenCurvesAreUnchanged) {
  for (const auto& g : kGoldenPoints) {
    SCOPED_TRACE(std::string(g.code) + " @ " + std::to_string(g.ebn0_db));
    const auto system = codes::LoadCode(g.code);
    sim::BerConfig config;
    config.ebn0_db = {g.ebn0_db};
    config.base_seed = kGoldenSeed;
    config.max_frames = g.frames;
    config.min_frame_errors = std::numeric_limits<std::uint64_t>::max();
    config.threads = 2;
    config.frame_source = system.frame_source;
    config.frame_check = system.frame_check;
    SimEngine sim(*system.code, *system.encoder, config);
    const auto curve =
        sim.Run(ldpc::MakeDecoderFactory(*system.code, g.decoder));
    ASSERT_EQ(curve.points.size(), 1u);
    const auto& p = curve.points[0];
    EXPECT_EQ(p.frames, g.frames);
    EXPECT_EQ(p.bit_errors.errors(), g.bit_errors);
    EXPECT_EQ(p.frame_errors.errors(), g.frame_errors);
    EXPECT_EQ(p.undetected_errors.errors(), g.undetected_errors);
    EXPECT_EQ(p.iterations_total, g.iterations_total);
  }
}

TEST(ResolveThreadsTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ResolveThreads(0), 1u);
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(6), 6u);
}

TEST(DecoderPoolTest, ClonesIndependentInstances) {
  DecoderPool pool(Factory(), 3);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.name(), pool.Get(0).Name());
  EXPECT_NE(&pool.Get(0), &pool.Get(1));
  EXPECT_NE(&pool.Get(1), &pool.Get(2));
  EXPECT_THROW(pool.Get(3), ContractViolation);
}

TEST(DecoderPoolTest, ConstructsLazilyPerSlot) {
  // A pool prepares slots only: no factory call until a worker (or
  // name()) first asks for its decoder, and each slot is built at
  // most once. Short runs with a huge --threads therefore never pay
  // O(threads * decoder state) setup.
  int calls = 0;
  auto& f = Shared();
  DecoderPool pool(
      [&f, &calls] {
        ++calls;
        return std::make_unique<ldpc::MinSumDecoder>(f.code, DecOpts());
      },
      64);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(pool.size(), 64u);
  auto& d2 = pool.Get(2);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(&pool.Get(2), &d2);  // cached, not re-cloned
  EXPECT_EQ(calls, 1);
  pool.name();  // materializes slot 0
  EXPECT_EQ(calls, 2);
  pool.Get(63);
  EXPECT_EQ(calls, 3);
}

TEST(DecoderPoolTest, RejectsEmptyFactoryAndZeroCount) {
  EXPECT_THROW(DecoderPool(DecoderFactory{}, 2), ContractViolation);
  EXPECT_THROW(DecoderPool(Factory(), 0), ContractViolation);
}

TEST(DecoderPoolTest, RejectsWrappedNegativeThreadCount) {
  // static_cast<std::size_t>(-1) from a CLI flag must fail loudly
  // instead of trying to allocate 2^64 decoders or threads.
  const auto wrapped = static_cast<std::size_t>(std::int64_t{-1});
  EXPECT_THROW(DecoderPool(Factory(), wrapped), ContractViolation);
  EXPECT_THROW(ThreadPool pool(wrapped), ContractViolation);
}

}  // namespace
}  // namespace cldpc::engine
