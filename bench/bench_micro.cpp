// Micro-benchmarks (google-benchmark): throughput of the building blocks —
// golden DES, the assembler, the cycle-accurate simulator with and without
// the energy back end, the forward slicer, and the DPA kernel.
#include <benchmark/benchmark.h>

#include "analysis/dpa.hpp"
#include "assembler/assembler.hpp"
#include "compiler/masking.hpp"
#include "core/masking_pipeline.hpp"
#include "des/asm_generator.hpp"
#include "des/des.hpp"
#include "energy/model.hpp"
#include "sim/pipeline.hpp"
#include "util/rng.hpp"

namespace {

using namespace emask;

void BM_GoldenDesEncrypt(benchmark::State& state) {
  util::Rng rng(1);
  std::uint64_t pt = rng.next_u64();
  const std::uint64_t key = rng.next_u64();
  for (auto _ : state) {
    pt = des::encrypt_block(pt, key);
    benchmark::DoNotOptimize(pt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoldenDesEncrypt);

void BM_GoldenDesKeySchedule(benchmark::State& state) {
  util::Rng rng(2);
  std::uint64_t key = rng.next_u64();
  for (auto _ : state) {
    const des::KeySchedule ks = des::key_schedule(key);
    benchmark::DoNotOptimize(ks);
    ++key;
  }
}
BENCHMARK(BM_GoldenDesKeySchedule);

void BM_GenerateDesAsm(benchmark::State& state) {
  for (auto _ : state) {
    const std::string src = des::generate_des_asm(0, 0, {});
    benchmark::DoNotOptimize(src);
  }
}
BENCHMARK(BM_GenerateDesAsm);

void BM_AssembleDesProgram(benchmark::State& state) {
  const std::string src = des::generate_des_asm(0, 0, {});
  for (auto _ : state) {
    const assembler::Program p = assembler::assemble(src);
    benchmark::DoNotOptimize(p);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_AssembleDesProgram);

void BM_ForwardSliceDes(benchmark::State& state) {
  const assembler::Program p =
      assembler::assemble(des::generate_des_asm(0, 0, {}));
  for (auto _ : state) {
    const auto r = compiler::forward_slice(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ForwardSliceDes);

// Simulator speed in simulated cycles per second, performance model only.
void BM_PipelineSimulation(benchmark::State& state) {
  const auto masked = compiler::apply_masking(
      assembler::assemble(des::generate_des_asm(1, 2, {})),
      compiler::Policy::kSelective);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    sim::Pipeline p(masked.program);
    const sim::SimResult r = p.run();
    cycles += r.cycles;
    benchmark::DoNotOptimize(r);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineSimulation)->Unit(benchmark::kMillisecond);

// Simulator + transition-sensitive energy accounting (the SimplePower
// configuration used by every experiment).
void BM_PipelineWithEnergyModel(benchmark::State& state) {
  const auto pipeline = core::MaskingPipeline::des(compiler::Policy::kSelective);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto run = pipeline.run_des(1, 2);
    cycles += run.sim.cycles;
    benchmark::DoNotOptimize(run);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineWithEnergyModel)->Unit(benchmark::kMillisecond);

void BM_EnergyModelCycle(benchmark::State& state) {
  energy::ProcessorEnergyModel model;
  util::Rng rng(3);
  energy::CycleActivity a;
  a.fetch = true;
  a.decode = true;
  a.rf_reads = 2;
  a.ex.valid = true;
  a.ex.unit = isa::FuncUnit::kAdder;
  a.mem.read = true;
  a.rf_write = true;
  a.id_ex = energy::LatchWrite{true, false, 0};
  for (auto _ : state) {
    a.fetch_bits = rng.next_u64();
    a.ex.result = rng.next_u32();
    a.mem.address = rng.next_u32() & ~3u;
    a.mem.data = rng.next_u32();
    a.id_ex.payload = rng.next_u64();
    benchmark::DoNotOptimize(model.cycle(a));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnergyModelCycle);

void BM_DpaAddTrace(benchmark::State& state) {
  analysis::DpaConfig cfg;
  cfg.window_end = 10000;
  analysis::DpaAttack attack(cfg);
  const analysis::Trace trace(std::vector<double>(10000, 150.0));
  util::Rng rng(4);
  for (auto _ : state) {
    attack.add_trace(rng.next_u64(), trace);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DpaAddTrace);

void BM_DpaPredictBit(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::DpaAttack::predict_bit(
        rng.next_u64(), 3, 1, static_cast<int>(rng.next_below(64))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DpaPredictBit);

}  // namespace

BENCHMARK_MAIN();
