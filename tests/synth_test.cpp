// Tests for the synthetic-application substrate: address patterns, scaling
// laws, the two application models, comm-trace safety and the tracer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "machine/targets.hpp"
#include "reference_stream.hpp"
#include "simmpi/replay.hpp"
#include "synth/app.hpp"
#include "synth/patterns.hpp"
#include "synth/hpcg.hpp"
#include "synth/registry.hpp"
#include "synth/specfem.hpp"
#include "synth/tracer.hpp"
#include "synth/uh3d.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace pmacx {
namespace {

using synth::Pattern;
using synth::RefStream;
using synth::StreamSpec;

StreamSpec spec_of(Pattern pattern, std::uint64_t footprint = 4096) {
  StreamSpec spec;
  spec.pattern = pattern;
  spec.base_addr = 1 << 20;
  spec.footprint_bytes = footprint;
  spec.elem_bytes = 8;
  spec.stride_elems = 4;
  spec.store_fraction = 0.25;
  return spec;
}

// ------------------------------------------------------------- patterns ----

class PatternBoundsTest : public ::testing::TestWithParam<Pattern> {};

TEST_P(PatternBoundsTest, AllRefsInsideFootprint) {
  const StreamSpec spec = spec_of(GetParam());
  RefStream stream(spec, 1);
  for (int i = 0; i < 5000; ++i) {
    const auto ref = stream.next();
    EXPECT_GE(ref.addr, spec.base_addr);
    EXPECT_LT(ref.addr + ref.size, spec.base_addr + spec.footprint_bytes + spec.elem_bytes);
    EXPECT_EQ(ref.size, spec.elem_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternBoundsTest,
                         ::testing::Values(Pattern::Sequential, Pattern::Strided,
                                           Pattern::Random, Pattern::Gather,
                                           Pattern::Stencil3d),
                         [](const auto& info) { return synth::pattern_name(info.param); });

TEST(PatternTest, SequentialCoversWholeFootprint) {
  const StreamSpec spec = spec_of(Pattern::Sequential, 512);  // 64 elements
  RefStream stream(spec, 1);
  std::set<std::uint64_t> addresses;
  for (int i = 0; i < 64; ++i) addresses.insert(stream.next().addr);
  EXPECT_EQ(addresses.size(), 64u);
}

TEST(PatternTest, SequentialWraps) {
  const StreamSpec spec = spec_of(Pattern::Sequential, 64);  // 8 elements
  RefStream stream(spec, 1);
  const auto first = stream.next().addr;
  for (int i = 0; i < 7; ++i) stream.next();
  EXPECT_EQ(stream.next().addr, first);
}

TEST(PatternTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    RefStream stream(spec_of(Pattern::Random), seed);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 100; ++i) addrs.push_back(stream.next().addr);
    return addrs;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(PatternTest, StoreFractionRoughlyHonored) {
  StreamSpec spec = spec_of(Pattern::Sequential);
  spec.store_fraction = 0.3;
  RefStream stream(spec, 5);
  int stores = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (stream.next().is_store) ++stores;
  EXPECT_NEAR(static_cast<double>(stores) / n, 0.3, 0.02);
}

TEST(PatternTest, RejectsBadSpecs) {
  StreamSpec spec = spec_of(Pattern::Sequential);
  spec.footprint_bytes = 4;  // smaller than one element
  EXPECT_THROW(RefStream(spec, 1), util::Error);
  spec = spec_of(Pattern::Sequential);
  spec.store_fraction = 1.5;
  EXPECT_THROW(RefStream(spec, 1), util::Error);
  spec = spec_of(Pattern::Strided);
  spec.stride_elems = 0;
  EXPECT_THROW(RefStream(spec, 1), util::Error);
}

// ------------------------------------------------------ bulk generation ----

/// Runs `schedule` on a RefStream — fill(n) for an entry n > 0, next() for
/// an entry 0 — and expects each reference to equal the per-reference
/// oracle's (tests/reference_stream.hpp) at the same position.
void expect_matches_oracle(const StreamSpec& spec, std::uint64_t seed,
                           const std::vector<std::size_t>& schedule) {
  RefStream stream(spec, seed);
  test::ReferenceRefStream oracle(spec, seed);
  std::vector<std::uint64_t> addr;
  std::vector<std::uint8_t> store;
  std::size_t position = 0;
  for (const std::size_t n : schedule) {
    if (n == 0) {
      const memsim::MemRef ref = stream.next();
      ASSERT_EQ(ref.size, spec.elem_bytes);
      addr.assign(1, ref.addr);
      store.assign(1, ref.is_store ? 1 : 0);
    } else {
      addr.assign(n, 0);
      store.assign(n, 2);
      stream.fill(addr.data(), store.data(), n);
    }
    for (std::size_t k = 0; k < addr.size(); ++k, ++position) {
      const memsim::MemRef want = oracle.next();
      ASSERT_EQ(addr[k], want.addr) << "reference " << position;
      ASSERT_EQ(store[k], want.is_store ? 1 : 0) << "reference " << position;
    }
  }
}

class FillOracleTest : public ::testing::TestWithParam<Pattern> {};

TEST_P(FillOracleTest, MatchesPerReferenceGenerator) {
  // Footprints: 8 elements (many wraps, and a stencil grid larger than the
  // footprint), 125 (a 5³ grid that wraps after 875 references), 65, one
  // element, 3072 and 2^17 (rejection thresholds that are not zero).
  // Strides: at, above and a multiple-plus-one of the element count, and
  // one that shares a factor with it.
  struct Case {
    std::uint64_t footprint;
    std::uint32_t elem_bytes;
    std::uint32_t stride;
    double store_fraction;
  };
  const Case cases[] = {
      {64, 8, 3, 0.25},      {1000, 8, 4, 0.5},     {520, 8, 65, 0.3},
      {520, 8, 66, 1.0},     {8, 8, 1, 0.25},       {8, 8, 7, 0.0},
      {96, 8, 8, 0.25},      {64, 8, 13, 0.25},     {64, 8, 25, 0.75},
      {24u << 10, 8, 5, 0.25}, {1u << 20, 8, 3, 0.25}, {1000, 4, 6, 0.25},
      {4096, 16, 9, 0.25},
  };
  // Fills of 1, 7 and 4096 interleaved with next(); a first next() leaves
  // a gather at an odd position, three leave a stencil mid-cycle.
  const std::vector<std::vector<std::size_t>> schedules = {
      {1, 7, 4096, 0, 0, 1, 7, 0, 4096, 3},
      {0, 4096, 7, 0, 1},
      {0, 0, 0, 4096, 0, 0, 0, 0, 7},
      {4096, 4096, 4096},
  };
  for (const Case& c : cases) {
    StreamSpec spec = spec_of(GetParam(), c.footprint);
    spec.elem_bytes = c.elem_bytes;
    spec.stride_elems = c.stride;
    spec.store_fraction = c.store_fraction;
    for (std::size_t s = 0; s < schedules.size(); ++s) {
      SCOPED_TRACE("footprint " + std::to_string(c.footprint) + ", stride " +
                   std::to_string(c.stride) + ", schedule " + std::to_string(s));
      expect_matches_oracle(spec, 17 + s, schedules[s]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, FillOracleTest,
                         ::testing::Values(Pattern::Sequential, Pattern::Strided,
                                           Pattern::Random, Pattern::Gather,
                                           Pattern::Stencil3d),
                         [](const auto& info) { return synth::pattern_name(info.param); });

// ----------------------------------------------------------------- laws ----

TEST(LawsTest, PerCoreDividesAndFloors) {
  EXPECT_DOUBLE_EQ(synth::laws::per_core(1000, 10), 100);
  EXPECT_DOUBLE_EQ(synth::laws::per_core(10, 1000), 1);  // floored
}

TEST(LawsTest, SurfaceIsTwoThirdsPower) {
  const double v = synth::laws::surface(1e6, 1.0, 1.0);
  EXPECT_NEAR(v, std::pow(1e6, 2.0 / 3.0), 1e-6);
  // Surface shrinks slower than volume under strong scaling.
  const double s8 = synth::laws::surface(1e6, 8.0, 1.0);
  EXPECT_GT(s8, v / 8.0);
}

TEST(LawsTest, GrowthLaws) {
  EXPECT_DOUBLE_EQ(synth::laws::log_growth(1, 2, 8), 7);   // 1 + 2·3
  EXPECT_DOUBLE_EQ(synth::laws::linear_growth(1, 2, 8), 17);
}

TEST(LawsTest, ImbalancePeaksAtRankZero) {
  const std::uint32_t cores = 64;
  const double peak = synth::imbalance_factor(0, cores, 0.1);
  EXPECT_NEAR(peak, 1.1, 1e-9);
  for (std::uint32_t r = 1; r < cores; ++r) {
    const double f = synth::imbalance_factor(r, cores, 0.1);
    EXPECT_LT(f, peak);
    EXPECT_GE(f, 1.0);
  }
}

// ----------------------------------------------------------------- apps ----

template <typename App>
class AppModelTest : public ::testing::Test {};

using AppTypes = ::testing::Types<synth::Specfem3dApp, synth::Uh3dApp, synth::HpcgApp>;
TYPED_TEST_SUITE(AppModelTest, AppTypes);

TYPED_TEST(AppModelTest, KernelsValidateAndHaveStableIds) {
  const TypeParam app;
  const auto k96 = app.kernels(96, 0);
  const auto k384 = app.kernels(384, 0);
  ASSERT_EQ(k96.size(), k384.size());
  for (std::size_t i = 0; i < k96.size(); ++i) {
    EXPECT_EQ(k96[i].block_id, k384[i].block_id);
    EXPECT_NO_THROW(k96[i].validate());
  }
}

TYPED_TEST(AppModelTest, StrongScalingShrinksDominantKernel) {
  const TypeParam app;
  // Total memory refs of the dominant kernel must shrink as cores grow.
  const auto small = app.kernels(128, 0);
  const auto large = app.kernels(4096, 0);
  std::uint64_t small_max = 0, large_max = 0;
  for (const auto& k : small) small_max = std::max(small_max, k.total_refs());
  for (const auto& k : large) large_max = std::max(large_max, k.total_refs());
  EXPECT_LT(large_max, small_max);
}

TYPED_TEST(AppModelTest, DemandingRankHasMostWork) {
  const TypeParam app;
  const std::uint32_t cores = 64;
  const std::uint32_t demanding = app.demanding_rank(cores);
  const double peak = app.work_units(cores, demanding);
  for (std::uint32_t r = 0; r < cores; r += 7)
    EXPECT_LE(app.work_units(cores, r), peak) << "rank " << r;
}

TYPED_TEST(AppModelTest, CommTracesReplayWithoutDeadlock) {
  const TypeParam app;
  for (std::uint32_t cores : {4u, 6u, 16u}) {
    std::vector<trace::CommTrace> traces;
    for (std::uint32_t r = 0; r < cores; ++r) traces.push_back(app.comm_trace(cores, r));
    const std::vector<double> scales(cores, 1e-9);
    simmpi::NetworkModel net;
    EXPECT_NO_THROW(simmpi::replay(simmpi::timelines_from_comm(traces, scales), net))
        << cores << " cores";
  }
}

TYPED_TEST(AppModelTest, WorkUnitsPositiveAndDeterministic) {
  const TypeParam app;
  EXPECT_GT(app.work_units(64, 0), 0.0);
  EXPECT_DOUBLE_EQ(app.work_units(64, 3), app.work_units(64, 3));
}

TEST(AppModelTest2, SpecfemHasLogGrowthKernel) {
  // reduce_norm's refs/visit must grow with cores (the Fig. 5 shape).
  const synth::Specfem3dApp app;
  const auto small = app.kernels(128, 0);
  const auto large = app.kernels(4096, 0);
  bool found_growth = false;
  for (std::size_t i = 0; i < small.size(); ++i)
    if (large[i].refs_per_visit > small[i].refs_per_visit * 1.2) found_growth = true;
  EXPECT_TRUE(found_growth);
}

TEST(AppModelTest2, CommTraceRequiresEvenCores) {
  const synth::Specfem3dApp app;
  EXPECT_THROW(app.comm_trace(5, 0), util::Error);
}

// --------------------------------------------------------------- registry ----

TEST(RegistryTest, MakesEveryKnownApp) {
  for (const std::string& name : synth::app_names()) {
    const auto app = synth::make_app(name);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), name);
    EXPECT_GT(app->work_units(64, 0), 0.0);
  }
}

TEST(RegistryTest, WorkScaleMultipliesWork) {
  const auto base = synth::make_app("hpcg", 1.0);
  const auto scaled = synth::make_app("hpcg", 10.0);
  EXPECT_NEAR(scaled->work_units(64, 0), 10.0 * base->work_units(64, 0),
              0.01 * scaled->work_units(64, 0));
}

TEST(RegistryTest, RejectsUnknownAppAndBadScale) {
  EXPECT_THROW(synth::make_app("linpack"), util::Error);
  EXPECT_THROW(synth::make_app("hpcg", 0.0), util::Error);
}

// ----------------------------------------------------------------- tracer ----

synth::TracerOptions tracer_options(std::uint64_t cap = 200'000) {
  synth::TracerOptions options;
  options.target = machine::bluewaters_p1().hierarchy;
  options.max_refs_per_kernel = cap;
  return options;
}

TEST(TracerTest, TraceStructureComplete) {
  const synth::Specfem3dApp app;
  const auto task = synth::trace_task(app, 96, 0, tracer_options());
  EXPECT_EQ(task.app, "specfem3d");
  EXPECT_EQ(task.core_count, 96u);
  EXPECT_FALSE(task.extrapolated);
  EXPECT_EQ(task.blocks.size(), app.kernels(96, 0).size());
  for (const auto& block : task.blocks) {
    EXPECT_GT(block.get(trace::BlockElement::VisitCount), 0.0);
    EXPECT_FALSE(block.instructions.empty());
  }
}

TEST(TracerTest, HitRatesValidAndMonotone) {
  const synth::Uh3dApp app;
  const auto task = synth::trace_task(app, 1024, 0, tracer_options());
  for (const auto& block : task.blocks) {
    const double h1 = block.get(trace::BlockElement::HitRateL1);
    const double h2 = block.get(trace::BlockElement::HitRateL2);
    const double h3 = block.get(trace::BlockElement::HitRateL3);
    EXPECT_GE(h1, 0.0);
    EXPECT_LE(h3, 1.0);
    EXPECT_LE(h1, h2);
    EXPECT_LE(h2, h3);
    for (const auto& instr : block.instructions) {
      EXPECT_LE(instr.get(trace::InstrElement::HitRateL1),
                instr.get(trace::InstrElement::HitRateL2) + 1e-12);
    }
  }
}

TEST(TracerTest, CountsAreAnalyticDespiteSampling) {
  // The recorded memory-op totals must not depend on the sampling cap.
  const synth::Specfem3dApp app;
  const auto coarse = synth::trace_task(app, 96, 0, tracer_options(50'000));
  const auto fine = synth::trace_task(app, 96, 0, tracer_options(400'000));
  for (std::size_t b = 0; b < coarse.blocks.size(); ++b) {
    const double c = coarse.blocks[b].memory_ops();
    const double f = fine.blocks[b].memory_ops();
    EXPECT_NEAR(c, f, 0.02 * std::max(c, f)) << "block " << coarse.blocks[b].id;
  }
}

TEST(TracerTest, SmallerL1TargetLowersHitRate) {
  const synth::Specfem3dApp app;
  synth::TracerOptions a = tracer_options();
  a.target = machine::system_a_12kb().hierarchy;
  synth::TracerOptions b = tracer_options();
  b.target = machine::system_b_56kb().hierarchy;
  const auto trace_a = synth::trace_task(app, 96, 0, a);
  const auto trace_b = synth::trace_task(app, 96, 0, b);
  // The constant source-injection kernel (24 KB footprint) fits system B's
  // L1 but not system A's — the Table III contrast.
  const auto* block_a = trace_a.find_block(4);
  const auto* block_b = trace_b.find_block(4);
  ASSERT_NE(block_a, nullptr);
  ASSERT_NE(block_b, nullptr);
  EXPECT_GT(block_b->get(trace::BlockElement::HitRateL1),
            block_a->get(trace::BlockElement::HitRateL1) + 0.05);
}

TEST(TracerTest, CollectSignatureDefaultsToDemandingRank) {
  const synth::Uh3dApp app;
  const auto signature = synth::collect_signature(app, 16, tracer_options());
  EXPECT_EQ(signature.tasks.size(), 1u);
  EXPECT_EQ(signature.tasks[0].rank, app.demanding_rank(16));
  EXPECT_EQ(signature.comm.size(), 16u);
  EXPECT_NO_THROW(signature.validate());
}

TEST(TracerTest, CollectSignatureExtraRanks) {
  const synth::Uh3dApp app;
  const auto signature =
      synth::collect_signature(app, 16, tracer_options(), {0, 8, 8, 15});
  EXPECT_EQ(signature.tasks.size(), 3u);  // deduplicated

  // The tools fan ranks out across a pool; each rank owns its hierarchy and
  // streams and results keep rank order, so not one bit may move.
  util::ThreadPool pool(4);
  synth::TracerOptions pooled = tracer_options();
  pooled.pool = &pool;
  const auto parallel = synth::collect_signature(app, 16, pooled, {0, 8, 15});
  EXPECT_EQ(parallel.tasks, signature.tasks);
  EXPECT_EQ(parallel.comm, signature.comm);
}

TEST(TracerTest, SetSamplingPreservesHitRates) {
  const synth::Uh3dApp app;
  const auto full = synth::trace_task(app, 1024, 0, tracer_options());
  synth::TracerOptions sampled_options = tracer_options();
  sampled_options.sample_shift = 3;  // simulate 1/8 of the lines
  const auto sampled = synth::trace_task(app, 1024, 0, sampled_options);

  ASSERT_EQ(sampled.blocks.size(), full.blocks.size());
  for (std::size_t b = 0; b < full.blocks.size(); ++b) {
    // Counts are analytic and unaffected; hit rates agree within sampling
    // noise.
    EXPECT_NEAR(sampled.blocks[b].memory_ops(), full.blocks[b].memory_ops(),
                1e-6 * full.blocks[b].memory_ops());
    EXPECT_NEAR(sampled.blocks[b].get(trace::BlockElement::HitRateL3),
                full.blocks[b].get(trace::BlockElement::HitRateL3), 0.05)
        << "block " << full.blocks[b].id;
  }
}

TEST(TracerTest, DeterministicTraces) {
  const synth::Specfem3dApp app;
  const auto a = synth::trace_task(app, 96, 0, tracer_options());
  const auto b = synth::trace_task(app, 96, 0, tracer_options());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace pmacx
