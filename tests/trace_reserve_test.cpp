// Cold runs to halt reserve their whole trace up front: a device remembers
// the length of its latest run to halt (a relaxed atomic shared by the
// BatchRunner workers of one const device) and the next cold run reserves
// that plus MaskingPipeline::kHaltTraceSlack, so the trace never regrows.
// The hint is capacity only: it must never change a trace.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "support/capture.hpp"
#include "core/masking_pipeline.hpp"
#include "des/asm_generator.hpp"
#include "hiding/policy.hpp"

namespace emask::core {
namespace {

constexpr std::uint64_t kKey = 0x133457799BBCDFF1ull;
constexpr std::uint64_t kPlain = 0x0123456789ABCDEFull;
constexpr std::uint64_t kOtherPlain = 0xFEDCBA9876543210ull;
constexpr std::size_t kSlack = MaskingPipeline::kHaltTraceSlack;

// The countermeasures.ini policy axis.
constexpr std::array<const char*, 8> kPolicies = {
    "original", "selective",        "naive_loadstore", "all_secure",
    "wddl",     "random_precharge", "shuffle_nop",     "selective+wddl"};

TEST(TraceReserve, SecondColdRunReservesItsTraceOnce) {
  for (const char* policy : kPolicies) {
    SCOPED_TRACE(policy);
    const MaskingPipeline device =
        MaskingPipeline::des(hiding::countermeasure_from_name(policy));
    const EncryptionRun first = device.run_des(kKey, kPlain);
    const EncryptionRun again = device.run_des(kKey, kPlain);
    ASSERT_EQ(again.trace.samples(), first.trace.samples());
    const std::size_t size = again.trace.size();
    const std::size_t capacity = again.trace.samples().capacity();
    EXPECT_GE(capacity, size);
    EXPECT_LE(capacity - size, kSlack);

    // Another plaintext may run longer or shorter (shuffle_nop), by less
    // than the slack: the reservation still holds it with no regrowth.
    const EncryptionRun other = device.run_des(kKey, kOtherPlain);
    EXPECT_LE(other.trace.samples().capacity(), size + kSlack);
    EXPECT_LE(other.trace.samples().capacity() - other.trace.size(),
              2 * kSlack);
  }
}

TEST(TraceReserve, SlackCoversTheShuffleNopSpread) {
  // The shortest and the longest shuffle_nop schedules: every delay slot
  // at zero, and every slot at kShuffleNopMaxDelay.
  const MaskingPipeline device = MaskingPipeline::des(
      hiding::countermeasure_from_name("shuffle_nop"));
  std::array<std::size_t, 2> lengths{};
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    assembler::Program image = device.program();
    des::poke_key(image, kKey);
    des::poke_plaintext(image, kPlain);
    des::poke_nop_schedule(
        image, std::vector<std::uint32_t>(
                   des::kShuffleSlotCount,
                   i == 0 ? 0u : hiding::kShuffleNopMaxDelay));
    lengths[i] = device.run({.image = &image}).trace.size();
  }
  EXPECT_GT(lengths[1], lengths[0]);
  EXPECT_LE(lengths[1] - lengths[0], kSlack);
}

TEST(TraceReserve, ColdBatchIsIdenticalAtOneAndEightJobs) {
  // shuffle_nop runs differ in length per plaintext, so the workers keep
  // overwriting the shared hint with different values.
  const MaskingPipeline device = MaskingPipeline::des(
      hiding::countermeasure_from_name("shuffle_nop"));
  std::vector<analysis::TraceSet> sets;
  for (const std::size_t jobs : {1u, 8u}) {
    BatchConfig config;
    config.threads = jobs;
    BatchRunner runner(device, config);
    sets.push_back(capture_set(runner, 12, random_plaintexts(kKey, 0x5EED)));
  }
  ASSERT_EQ(sets[0].size(), sets[1].size());
  EXPECT_EQ(sets[0].inputs, sets[1].inputs);
  for (std::size_t i = 0; i < sets[0].size(); ++i) {
    EXPECT_EQ(sets[0].traces[i].samples(), sets[1].traces[i].samples())
        << "trace " << i;
  }
}

TEST(TraceReserve, CopiedDeviceKeepsWorking) {
  const MaskingPipeline device =
      MaskingPipeline::des(compiler::Policy::kOriginal);
  const EncryptionRun first = device.run_des(kKey, kPlain);
  MaskingPipeline copy = device;  // carries the hint along
  const MaskingPipeline moved = std::move(copy);
  MaskingPipeline assigned = MaskingPipeline::des(compiler::Policy::kOriginal);
  assigned = moved;
  for (const MaskingPipeline* d :
       std::array<const MaskingPipeline*, 2>{&moved, &assigned}) {
    const EncryptionRun run = d->run_des(kKey, kPlain);
    EXPECT_EQ(run.trace.samples(), first.trace.samples());
    EXPECT_LE(run.trace.samples().capacity() - run.trace.size(), kSlack);
  }
}

}  // namespace
}  // namespace emask::core
