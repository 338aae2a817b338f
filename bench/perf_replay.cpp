// Microbenchmark P4 — replay-engine and comm-extrapolation throughput.
//
// PSiNS replays every rank's timeline per prediction; at 8192 ranks that is
// hundreds of thousands of matched events, so engine throughput bounds how
// cheap a what-if prediction is (BM_ReplayOnTarget is the shape PREDICT
// replays).  Comm extrapolation instantiates all target ranks' timelines,
// so its cost scales the same way.
#include <benchmark/benchmark.h>

#include "core/comm_extrap.hpp"
#include "machine/targets.hpp"
#include "simmpi/replay.hpp"
#include "synth/registry.hpp"
#include "synth/specfem.hpp"

namespace {

using namespace pmacx;

synth::Specfem3dApp small_app() {
  synth::SpecfemConfig config;
  config.global_elements = 50'000;
  config.global_field_bytes = 1'000'000'000;
  config.timesteps = 5;
  return synth::Specfem3dApp(config);
}

void BM_ReplayRanks(benchmark::State& state) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  const synth::Specfem3dApp app = small_app();
  const std::vector<trace::CommTrace> traces = synth::comm_traces(app, cores);
  const std::vector<double> scales(cores, 1e-9);
  const auto timelines = simmpi::timelines_from_comm(traces, scales);
  simmpi::NetworkModel net;

  std::size_t events = 0;
  for (const auto& tl : timelines) events += tl.events.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simmpi::replay(timelines, net));
  }
  state.SetItemsProcessed(state.iterations() * events);
  state.SetLabel(std::to_string(events) + " events");
}
BENCHMARK(BM_ReplayRanks)->Arg(64)->Arg(512)->Arg(2048)->Arg(8192)->Unit(benchmark::kMillisecond);

// The shape PREDICT replays: every rank of a registry app at serving scale,
// with one seconds-per-unit rate for all ranks, on a target's own network
// (eager threshold, torus on cray-xt5).
void BM_ReplayOnTarget(benchmark::State& state, const char* app_name, const char* target) {
  const auto cores = static_cast<std::uint32_t>(state.range(0));
  const auto app = synth::make_app(app_name);
  const std::vector<trace::CommTrace> traces = synth::comm_traces(*app, cores);
  const std::vector<double> scales(cores, 1e-9);
  const auto timelines = simmpi::timelines_from_comm(traces, scales);
  const simmpi::NetworkModel net = machine::target_by_name(target).network;

  std::size_t events = 0;
  for (const auto& tl : timelines) events += tl.events.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simmpi::replay(timelines, net));
  }
  state.SetItemsProcessed(state.iterations() * events);
  state.SetLabel(std::to_string(events) + " events");
}
BENCHMARK_CAPTURE(BM_ReplayOnTarget, specfem3d_bluewaters_p1, "specfem3d", "bluewaters-p1")
    ->Arg(8192)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReplayOnTarget, specfem3d_cray_xt5, "specfem3d", "cray-xt5")
    ->Arg(8192)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReplayOnTarget, uh3d_bluewaters_p1, "uh3d", "bluewaters-p1")
    ->Arg(8192)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReplayOnTarget, uh3d_cray_xt5, "uh3d", "cray-xt5")
    ->Arg(8192)->Unit(benchmark::kMillisecond);

void BM_CommExtrapolate(benchmark::State& state) {
  const auto target = static_cast<std::uint32_t>(state.range(0));
  const synth::Specfem3dApp app = small_app();
  std::vector<trace::AppSignature> inputs;
  for (std::uint32_t cores : {16u, 32u, 64u}) {
    trace::AppSignature signature;
    signature.app = app.name();
    signature.core_count = cores;
    signature.target_system = "t";
    signature.comm = synth::comm_traces(app, cores);
    inputs.push_back(std::move(signature));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extrapolate_comm(inputs, target));
  }
  state.SetItemsProcessed(state.iterations() * target);
}
BENCHMARK(BM_CommExtrapolate)->Arg(256)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace
