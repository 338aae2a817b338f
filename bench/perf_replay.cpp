// Microbenchmark P4 — replay-engine and comm-extrapolation throughput.
//
// PSiNS replays every rank's timeline per prediction; at 8192 ranks that is
// hundreds of thousands of matched events, so engine throughput bounds how
// cheap a what-if prediction is.  Comm extrapolation instantiates all
// target ranks' timelines, so its cost scales the same way.
#include <benchmark/benchmark.h>

#include "core/comm_extrap.hpp"
#include "simmpi/replay.hpp"
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
  for (const auto& tl : timelines) events += tl.steps.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simmpi::replay(timelines, net));
  }
  state.SetItemsProcessed(state.iterations() * events);
  state.SetLabel(std::to_string(events) + " events");
}
BENCHMARK(BM_ReplayRanks)->Arg(64)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

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
