// Bitsliced backend equivalence: every sliced primitive, hypothesis
// generator, and energy kernel is checked bit-for-bit against the scalar
// reference it replaced — the correctness story behind bitslice being the
// only production path.  Suites are prefixed "Bitslice" so the TSan CI
// job picks them up alongside the Adversary suites.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/collision.hpp"
#include "analysis/cpa.hpp"
#include "analysis/dpa.hpp"
#include "analysis/mlpa.hpp"
#include "analysis/trace.hpp"
#include "bitslice/des_round1.hpp"
#include "bitslice/hamming.hpp"
#include "bitslice/providers.hpp"
#include "bitslice/slice.hpp"
#include "des/des.hpp"
#include "util/rng.hpp"

namespace emask::bitslice {
namespace {

// ---- slice.hpp primitives ----

TEST(BitsliceSlice, TransposeMatchesNaiveGather) {
  util::Rng rng(0xB175);
  Word a[64];
  for (auto& w : a) w = rng.next_u64();
  Word expected[64];
  for (int b = 0; b < 64; ++b) {
    Word plane = 0;
    for (int l = 0; l < 64; ++l) plane |= ((a[l] >> b) & 1ull) << l;
    expected[b] = plane;
  }
  transpose64(a);
  for (int b = 0; b < 64; ++b) EXPECT_EQ(a[b], expected[b]) << "plane " << b;
}

TEST(BitsliceSlice, TransposeIsAnInvolution) {
  util::Rng rng(0xB176);
  Word a[64];
  Word original[64];
  for (int i = 0; i < 64; ++i) original[i] = a[i] = rng.next_u64();
  transpose64(a);
  transpose64(a);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], original[i]);
}

TEST(BitsliceSlice, LaneIndexPlanesEncodeTheLaneIndex) {
  for (int i = 0; i < 6; ++i) {
    for (int g = 0; g < 64; ++g) {
      EXPECT_EQ((kLaneIndex[i] >> g) & 1ull,
                static_cast<std::uint64_t>((g >> i) & 1))
          << "plane " << i << " lane " << g;
    }
  }
}

TEST(BitsliceSlice, EvalTtMatchesTableLookup) {
  // Every lane evaluates a different input (lane = input via kLaneIndex),
  // for several truth-table sizes and random functions.
  util::Rng rng(0xB177);
  for (const int n : {1, 2, 3, 4, 5, 6}) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::uint64_t tt =
          n == 6 ? rng.next_u64() : rng.next_u64() & ((1ull << (1 << n)) - 1);
      const Word out = eval_tt(tt, kLaneIndex.data(), n);
      for (int lane = 0; lane < 64; ++lane) {
        const int x = lane & ((1 << n) - 1);
        EXPECT_EQ((out >> lane) & 1ull, (tt >> x) & 1ull)
            << "n=" << n << " lane=" << lane;
      }
    }
  }
}

TEST(BitsliceSlice, Hamming4MatchesPopcount) {
  util::Rng rng(0xB178);
  for (int trial = 0; trial < 16; ++trial) {
    Word o[4];
    for (auto& w : o) w = rng.next_u64();
    Word weight[3];
    hamming4_planes(o, weight);
    for (int lane = 0; lane < 64; ++lane) {
      int expected = 0;
      for (const Word w : o) expected += static_cast<int>((w >> lane) & 1);
      EXPECT_EQ(decode_weight(weight, lane), expected) << "lane " << lane;
    }
  }
}

// ---- des_round1.hpp hypothesis generators ----

TEST(BitsliceDesRound1, TruthTablesMatchSboxLookup) {
  for (int s = 0; s < 8; ++s) {
    for (int b = 0; b < 4; ++b) {
      const std::uint64_t tt = sbox_truth_table(s, b);
      for (int x = 0; x < 64; ++x) {
        EXPECT_EQ((tt >> x) & 1ull,
                  static_cast<std::uint64_t>(
                      (des::sbox_lookup(s, static_cast<std::uint8_t>(x)) >> b) &
                      1))
            << "sbox " << s << " bit " << b << " x " << x;
      }
    }
  }
}

TEST(BitsliceDesRound1, SboxPlanesEvaluateAllLanesAtOnce) {
  // Lane x carries input x: the output planes must reproduce the table.
  for (int s = 0; s < 8; ++s) {
    Word out[4];
    sbox_planes(s, kLaneIndex.data(), out);
    for (int x = 0; x < 64; ++x) {
      int value = 0;
      for (int b = 0; b < 4; ++b) {
        value |= static_cast<int>((out[b] >> x) & 1ull) << b;
      }
      EXPECT_EQ(value, des::sbox_lookup(s, static_cast<std::uint8_t>(x)))
          << "sbox " << s << " x " << x;
    }
  }
}

TEST(BitsliceDesRound1, RoundOneSixMatchesGoldenModel) {
  util::Rng rng(0xB179);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t pt = rng.next_u64();
    for (int s = 0; s < 8; ++s) {
      EXPECT_EQ(round1_six(pt, s), des::round1_sbox_input(pt, s))
          << "sbox " << s;
    }
  }
}

TEST(BitsliceDesRound1, CpaRowMatchesScalarWeights) {
  for (int s = 0; s < 8; ++s) {
    for (int six = 0; six < 64; ++six) {
      std::array<int, 64> row{};
      cpa_hypothesis_row(s, static_cast<std::uint8_t>(six), row);
      for (int g = 0; g < 64; ++g) {
        EXPECT_EQ(row[g],
                  std::popcount(static_cast<unsigned>(des::sbox_lookup(
                      s, static_cast<std::uint8_t>(six ^ g)))))
            << "sbox " << s << " six " << six << " guess " << g;
      }
    }
  }
}

TEST(BitsliceDesRound1, DpaRowMatchesScalarBits) {
  for (int s = 0; s < 8; ++s) {
    for (int bit = 0; bit < 4; ++bit) {  // 0 = MSB, DpaAttack convention
      for (int six = 0; six < 64; ++six) {
        std::array<int, 64> row{};
        dpa_hypothesis_row(s, bit, static_cast<std::uint8_t>(six), row);
        for (int g = 0; g < 64; ++g) {
          EXPECT_EQ(row[g],
                    (des::sbox_lookup(s, static_cast<std::uint8_t>(six ^ g)) >>
                     (3 - bit)) &
                        1)
              << "sbox " << s << " bit " << bit << " six " << six;
        }
      }
    }
  }
}

TEST(BitsliceDesRound1, BlockModeMatchesPredictWeight) {
  util::Rng rng(0xB17A);
  std::uint64_t pts[64];
  for (auto& pt : pts) pt = rng.next_u64();
  for (int s = 0; s < 8; ++s) {
    std::array<std::array<int, 64>, 64> matrix{};
    cpa_hypothesis_block(s, pts, matrix);
    for (int p = 0; p < 64; ++p) {
      for (int g = 0; g < 64; ++g) {
        EXPECT_EQ(matrix[p][g], analysis::CpaAttack::predict_weight(pts[p], s, g))
            << "sbox " << s << " pt " << p << " guess " << g;
      }
    }
  }
}

TEST(BitsliceDesRound1, SelectionParityPlaneMatchesScalarParity) {
  for (int mask = 0; mask < 64; ++mask) {
    const Word plane = selection_parity_plane(mask);
    for (int e = 0; e < 64; ++e) {
      EXPECT_EQ((plane >> e) & 1ull,
                static_cast<std::uint64_t>(std::popcount(
                                               static_cast<unsigned>(mask & e)) &
                                           1))
          << "mask " << mask << " e " << e;
    }
  }
}

// ---- hamming.hpp energy kernels ----

TEST(BitsliceKernels, CouplingEventsMatchesScalarExhaustively) {
  // Every (last, value) pair on narrow buses — all nine delta cases per
  // adjacent pair are covered many times over.
  for (const int width : {1, 2, 3, 5, 8}) {
    const std::uint64_t limit = 1ull << width;
    for (std::uint64_t last = 0; last < limit; ++last) {
      for (std::uint64_t value = 0; value < limit; ++value) {
        EXPECT_EQ(coupling_events(last, value, width),
                  coupling_events_scalar(last, value, width))
            << "width " << width << " last " << last << " value " << value;
      }
    }
  }
}

TEST(BitsliceKernels, CouplingEventsMatchesScalarOnWideBuses) {
  util::Rng rng(0xB17B);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t last = rng.next_u64();
    const std::uint64_t value = rng.next_u64();
    for (const int width : {32, 33, 64}) {
      const std::uint64_t mask =
          width >= 64 ? ~0ull : ((1ull << width) - 1ull);
      EXPECT_EQ(coupling_events(last & mask, value & mask, width),
                coupling_events_scalar(last & mask, value & mask, width))
          << "width " << width;
    }
  }
}

TEST(BitsliceKernels, SecureOpposingMatchesScalar) {
  for (const int width : {1, 2, 3, 5, 8}) {
    for (std::uint64_t value = 0; value < (1ull << width); ++value) {
      EXPECT_EQ(secure_opposing(value, width),
                secure_opposing_scalar(value, width))
          << "width " << width << " value " << value;
    }
  }
  util::Rng rng(0xB17C);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t v = rng.next_u64();
    EXPECT_EQ(secure_opposing(v & 0x1FFFFFFFFull, 33),
              secure_opposing_scalar(v & 0x1FFFFFFFFull, 33));
    EXPECT_EQ(secure_opposing(v, 64), secure_opposing_scalar(v, 64));
  }
}

// ---- providers.hpp: attack-level equivalence ----

// Feeds the identical (plaintext, trace) stream to a scalar attack and a
// provider-backed one; both must produce *exactly* the same result object.
struct Stream {
  std::vector<std::uint64_t> plaintexts;
  std::vector<analysis::Trace> traces;

  explicit Stream(std::uint64_t seed, int count = 48, int cycles = 6) {
    util::Rng rng(seed);
    for (int i = 0; i < count; ++i) {
      plaintexts.push_back(rng.next_u64());
      std::vector<double> samples;
      for (int c = 0; c < cycles; ++c) {
        samples.push_back(static_cast<double>(rng.next_u32() & 0xFFFF));
      }
      traces.emplace_back(std::move(samples));
    }
  }
};

TEST(BitsliceProviders, CpaAttackMatchesScalarExactly) {
  const Stream stream(0xB17F);
  analysis::CpaConfig cfg;
  cfg.sbox = 2;
  analysis::CpaAttack scalar(cfg), sliced(cfg);
  sliced.set_provider(std::make_shared<CpaProvider>(cfg.sbox));
  for (std::size_t i = 0; i < stream.traces.size(); ++i) {
    scalar.add_trace(stream.plaintexts[i], stream.traces[i]);
    sliced.add_trace(stream.plaintexts[i], stream.traces[i]);
  }
  const analysis::CpaResult a = scalar.solve();
  const analysis::CpaResult b = sliced.solve();
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(a.best_corr, b.best_corr);  // bit-identical doubles
  for (int g = 0; g < 64; ++g) EXPECT_EQ(a.corr_per_guess[g], b.corr_per_guess[g]);
}

TEST(BitsliceProviders, DpaAttackMatchesScalarExactly) {
  const Stream stream(0xB180);
  analysis::DpaConfig cfg;
  cfg.sbox = 5;
  cfg.bit = 1;
  analysis::DpaAttack scalar(cfg), sliced(cfg);
  sliced.set_provider(std::make_shared<DpaProvider>(cfg.sbox, cfg.bit));
  for (std::size_t i = 0; i < stream.traces.size(); ++i) {
    scalar.add_trace(stream.plaintexts[i], stream.traces[i]);
    sliced.add_trace(stream.plaintexts[i], stream.traces[i]);
  }
  const analysis::DpaResult a = scalar.solve();
  const analysis::DpaResult b = sliced.solve();
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(a.best_peak, b.best_peak);
  for (int g = 0; g < 64; ++g) EXPECT_EQ(a.peak_per_guess[g], b.peak_per_guess[g]);
}

TEST(BitsliceProviders, MlpaAttackMatchesScalarExactly) {
  const Stream stream(0xB181);
  analysis::MlpaConfig cfg;
  cfg.sbox = 0;
  analysis::MlpaAttack scalar(cfg), sliced(cfg);
  std::vector<int> in_masks;
  for (const analysis::LinearApprox& approx : sliced.approximations()) {
    in_masks.push_back(approx.in_mask);
  }
  sliced.set_provider(std::make_shared<MlpaProvider>(cfg.sbox, in_masks));
  for (std::size_t i = 0; i < stream.traces.size(); ++i) {
    scalar.add_trace(stream.plaintexts[i], stream.traces[i]);
    sliced.add_trace(stream.plaintexts[i], stream.traces[i]);
  }
  const analysis::MlpaResult a = scalar.solve();
  const analysis::MlpaResult b = sliced.solve();
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(a.best_score, b.best_score);
  for (int g = 0; g < 64; ++g) EXPECT_EQ(a.score_per_guess[g], b.score_per_guess[g]);
}

TEST(BitsliceProviders, CollisionAttackMatchesScalarExactly) {
  const Stream stream(0xB182, /*count=*/128);
  analysis::CollisionConfig cfg;
  cfg.sbox = 0;
  analysis::CollisionAttack scalar(cfg), sliced(cfg);
  sliced.set_provider(std::make_shared<CollisionProvider>(cfg.sbox));
  for (std::size_t i = 0; i < stream.traces.size(); ++i) {
    scalar.add_trace(stream.plaintexts[i], stream.traces[i]);
    sliced.add_trace(stream.plaintexts[i], stream.traces[i]);
  }
  const analysis::CollisionResult a = scalar.solve();
  const analysis::CollisionResult b = sliced.solve();
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.classes_seen, b.classes_seen);
  for (int g = 0; g < 64; ++g) EXPECT_EQ(a.score_per_guess[g], b.score_per_guess[g]);
}

TEST(BitsliceProviders, CountMismatchIsRejected) {
  analysis::CpaAttack cpa(analysis::CpaConfig{});
  EXPECT_THROW(cpa.set_provider(std::make_shared<CollisionProvider>(0)),
               std::invalid_argument);
  analysis::CollisionAttack collision(analysis::CollisionConfig{});
  EXPECT_THROW(collision.set_provider(std::make_shared<CpaProvider>(0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace emask::bitslice
