// Byte guard for campaign artifacts: FNV-1a digests of every file a tiny
// campaign writes under scenarios/, of summary.csv, and of manifest.json
// with its `generator` (git describe) value blanked, pinned for the single-
// block key attacks (plain and shuffled), the session-cipher attacks, the
// AES CPA / TVLA paths and second-order DPA.  A refactor of the campaign
// runner must leave every digest untouched; a change that alters an
// artifact on purpose must re-pin.  timings.json is wall-clock data and is
// not covered.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "util/fsio.hpp"

namespace emask::campaign {
namespace {

namespace fs = std::filesystem;
using util::read_text_file;

using Digests = std::map<std::string, std::string>;  // relative path -> hex

/// Runs `spec_text` at two worker threads and digests its artifacts.
Digests run_and_digest(const std::string& name, const std::string& spec_text) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("emask_golden_" + name);
  fs::remove_all(dir);
  RunnerOptions options;
  options.out_dir = dir.string();
  options.jobs = 2;
  options.quiet = true;
  EXPECT_TRUE(
      CampaignRunner(CampaignSpec::parse(spec_text), options).run().complete);

  Digests digests;
  for (const auto& entry : fs::recursive_directory_iterator(dir / "scenarios")) {
    if (!entry.is_regular_file()) continue;
    digests[fs::relative(entry.path(), dir).generic_string()] =
        fnv1a_hex(read_text_file(entry.path()));
  }
  digests["summary.csv"] = fnv1a_hex(read_text_file(dir / "summary.csv"));
  static const std::regex generator("\"generator\": *\"[^\"]*\"");
  digests["manifest.json"] = fnv1a_hex(std::regex_replace(
      read_text_file(dir / "manifest.json"), generator, "\"generator\": \"\""));
  fs::remove_all(dir);
  return digests;
}

/// Compares digests file by file; on any difference prints the full
/// actual table in the initializer form used below.
void expect_digests(const Digests& actual, const Digests& expected) {
  EXPECT_EQ(actual, expected) << [&] {
    std::ostringstream table;
    table << "actual digests:\n";
    for (const auto& [path, hex] : actual) {
      table << "      {\"" << path << "\", \"" << hex << "\"},\n";
    }
    return table.str();
  }();
}

TEST(CampaignGolden, SingleBlockKeyAttacks) {
  const Digests expected = {
      {"manifest.json", "5c3c9ebd82615764"},
      {"scenarios/0000-des-original-energy-n0-t40-c0/breakdown.csv", "a5c0e04bf17a6374"},
      {"scenarios/0000-des-original-energy-n0-t40-c0/result.csv", "d8dcfe71fd8af291"},
      {"scenarios/0001-des-original-dpa-n0-t40-c0/disclosure.csv", "f11f3891f7b72374"},
      {"scenarios/0001-des-original-dpa-n0-t40-c0/guesses.csv", "4811e3731c8e121e"},
      {"scenarios/0001-des-original-dpa-n0-t40-c0/result.csv", "89c32f8ebd02906a"},
      {"scenarios/0002-des-original-cpa-n0-t40-c0/disclosure.csv", "73bf711a5b92f1ae"},
      {"scenarios/0002-des-original-cpa-n0-t40-c0/guesses.csv", "4b9a12300e61adda"},
      {"scenarios/0002-des-original-cpa-n0-t40-c0/result.csv", "a2456aae71baf27d"},
      {"scenarios/0003-des-original-mlpa-n0-t40-c0/disclosure.csv", "e38765ba41aeb5eb"},
      {"scenarios/0003-des-original-mlpa-n0-t40-c0/guesses.csv", "84c5e21973f88587"},
      {"scenarios/0003-des-original-mlpa-n0-t40-c0/result.csv", "28581f8c48e65206"},
      {"scenarios/0004-des-original-collision-n0-t40-c0/disclosure.csv", "fc86d94765e1071a"},
      {"scenarios/0004-des-original-collision-n0-t40-c0/guesses.csv", "a1bd5b7447da2fa6"},
      {"scenarios/0004-des-original-collision-n0-t40-c0/result.csv", "37b705e6a51d738b"},
      {"scenarios/0005-des-shuffle_nop-energy-n0-t40-c0/breakdown.csv", "48e5ae576441f2ea"},
      {"scenarios/0005-des-shuffle_nop-energy-n0-t40-c0/result.csv", "e46f711656aba1d3"},
      {"scenarios/0006-des-shuffle_nop-dpa-n0-t40-c0/disclosure.csv", "87a48605a3592b3e"},
      {"scenarios/0006-des-shuffle_nop-dpa-n0-t40-c0/guesses.csv", "9c8f619990cbe862"},
      {"scenarios/0006-des-shuffle_nop-dpa-n0-t40-c0/result.csv", "1290058f263ba24f"},
      {"scenarios/0007-des-shuffle_nop-cpa-n0-t40-c0/disclosure.csv", "319b9b8e3c34cdd8"},
      {"scenarios/0007-des-shuffle_nop-cpa-n0-t40-c0/guesses.csv", "5f665a33f6612a57"},
      {"scenarios/0007-des-shuffle_nop-cpa-n0-t40-c0/result.csv", "e9dc920e7246c8d8"},
      {"scenarios/0008-des-shuffle_nop-mlpa-n0-t40-c0/disclosure.csv", "758646d08e921c77"},
      {"scenarios/0008-des-shuffle_nop-mlpa-n0-t40-c0/guesses.csv", "693b9332fea496f9"},
      {"scenarios/0008-des-shuffle_nop-mlpa-n0-t40-c0/result.csv", "bf46bfa35df28e73"},
      {"scenarios/0009-des-shuffle_nop-collision-n0-t40-c0/disclosure.csv", "b512ffa9be73298e"},
      {"scenarios/0009-des-shuffle_nop-collision-n0-t40-c0/guesses.csv", "01d72da8b356a495"},
      {"scenarios/0009-des-shuffle_nop-collision-n0-t40-c0/result.csv", "f2d4644b282c108f"},
      {"summary.csv", "0aed24541a0fc45a"},
  };
  expect_digests(run_and_digest("single_block",
                                "[campaign]\n"
                                "name = golden_single_block\n"
                                "[axes]\n"
                                "cipher = des\n"
                                "policy = original, shuffle_nop\n"
                                "analysis = energy, dpa, cpa, mlpa, collision\n"
                                "traces = 40\n"),
                 expected);
}

TEST(CampaignGolden, SessionKeyAttacks) {
  const Digests expected = {
      {"manifest.json", "171971b81fec2b50"},
      {"scenarios/0000-des_cbc-original-energy-n0-t1-s16-c0/blocks.csv", "57c2ab96b6c0e595"},
      {"scenarios/0000-des_cbc-original-energy-n0-t1-s16-c0/breakdown.csv", "df0bc9247368c3c4"},
      {"scenarios/0000-des_cbc-original-energy-n0-t1-s16-c0/result.csv", "b45def3e06be5027"},
      {"scenarios/0000-des_cbc-original-energy-n0-t1-s16-c0/session.csv", "2e180ca941083eee"},
      {"scenarios/0001-des_cbc-original-dpa-n0-t1-s16-c0/blocks.csv", "da802353c33fb78a"},
      {"scenarios/0001-des_cbc-original-dpa-n0-t1-s16-c0/disclosure.csv", "88eafb31bbaa9d36"},
      {"scenarios/0001-des_cbc-original-dpa-n0-t1-s16-c0/guesses.csv", "99f66efc917e8559"},
      {"scenarios/0001-des_cbc-original-dpa-n0-t1-s16-c0/result.csv", "ad09818833174a49"},
      {"scenarios/0001-des_cbc-original-dpa-n0-t1-s16-c0/session.csv", "09167c75bf137ff8"},
      {"scenarios/0002-des_cbc-original-cpa-n0-t1-s16-c0/blocks.csv", "f787e982dbeea593"},
      {"scenarios/0002-des_cbc-original-cpa-n0-t1-s16-c0/disclosure.csv", "c376a05bfb78949d"},
      {"scenarios/0002-des_cbc-original-cpa-n0-t1-s16-c0/guesses.csv", "2e7e0929c542a630"},
      {"scenarios/0002-des_cbc-original-cpa-n0-t1-s16-c0/result.csv", "c24a6b25158bff5e"},
      {"scenarios/0002-des_cbc-original-cpa-n0-t1-s16-c0/session.csv", "dffa38d2e75b6589"},
      {"scenarios/0003-des_cbc-original-mlpa-n0-t1-s16-c0/blocks.csv", "a4c203a14d42f48f"},
      {"scenarios/0003-des_cbc-original-mlpa-n0-t1-s16-c0/disclosure.csv", "cceffd36f552f8b5"},
      {"scenarios/0003-des_cbc-original-mlpa-n0-t1-s16-c0/guesses.csv", "adb4e1fc106704dd"},
      {"scenarios/0003-des_cbc-original-mlpa-n0-t1-s16-c0/result.csv", "4807bce36d9dfecd"},
      {"scenarios/0003-des_cbc-original-mlpa-n0-t1-s16-c0/session.csv", "793a3f1f53b65224"},
      {"scenarios/0004-des_cbc-original-collision-n0-t1-s16-c0/blocks.csv", "7e153ee3e8209ff2"},
      {"scenarios/0004-des_cbc-original-collision-n0-t1-s16-c0/disclosure.csv", "27ac970eef12e1b3"},
      {"scenarios/0004-des_cbc-original-collision-n0-t1-s16-c0/guesses.csv", "f72400d6b009577c"},
      {"scenarios/0004-des_cbc-original-collision-n0-t1-s16-c0/result.csv", "699d943e083e1035"},
      {"scenarios/0004-des_cbc-original-collision-n0-t1-s16-c0/session.csv", "1238d021171b9a5a"},
      {"scenarios/0005-tdes_cbc-original-energy-n0-t1-s16-c0/blocks.csv", "f9ba38cb3768ad5c"},
      {"scenarios/0005-tdes_cbc-original-energy-n0-t1-s16-c0/breakdown.csv", "75eb661842a4d41c"},
      {"scenarios/0005-tdes_cbc-original-energy-n0-t1-s16-c0/result.csv", "94ecb1d26ae322c4"},
      {"scenarios/0005-tdes_cbc-original-energy-n0-t1-s16-c0/session.csv", "018f91f39af469f3"},
      {"scenarios/0006-tdes_cbc-original-dpa-n0-t1-s16-c0/blocks.csv", "7e27cd804e11e2ee"},
      {"scenarios/0006-tdes_cbc-original-dpa-n0-t1-s16-c0/disclosure.csv", "3fcfa7c5aa9aa7ea"},
      {"scenarios/0006-tdes_cbc-original-dpa-n0-t1-s16-c0/guesses.csv", "e882765628a29ef3"},
      {"scenarios/0006-tdes_cbc-original-dpa-n0-t1-s16-c0/result.csv", "6a5fb93490d65078"},
      {"scenarios/0006-tdes_cbc-original-dpa-n0-t1-s16-c0/session.csv", "b217a03bba21ccc6"},
      {"scenarios/0007-tdes_cbc-original-cpa-n0-t1-s16-c0/blocks.csv", "a75bbd7662a51ce5"},
      {"scenarios/0007-tdes_cbc-original-cpa-n0-t1-s16-c0/disclosure.csv", "0e28bc1b17e884aa"},
      {"scenarios/0007-tdes_cbc-original-cpa-n0-t1-s16-c0/guesses.csv", "27ecc23a7d13929f"},
      {"scenarios/0007-tdes_cbc-original-cpa-n0-t1-s16-c0/result.csv", "6e87ce60a2fddef5"},
      {"scenarios/0007-tdes_cbc-original-cpa-n0-t1-s16-c0/session.csv", "e387910ffe1a14f0"},
      {"scenarios/0008-tdes_cbc-original-mlpa-n0-t1-s16-c0/blocks.csv", "814c94cc025ee2e0"},
      {"scenarios/0008-tdes_cbc-original-mlpa-n0-t1-s16-c0/disclosure.csv", "ca48f399fae87ba8"},
      {"scenarios/0008-tdes_cbc-original-mlpa-n0-t1-s16-c0/guesses.csv", "f4472accd86a16b0"},
      {"scenarios/0008-tdes_cbc-original-mlpa-n0-t1-s16-c0/result.csv", "19d133b218726771"},
      {"scenarios/0008-tdes_cbc-original-mlpa-n0-t1-s16-c0/session.csv", "bf356ce8ae43779e"},
      {"scenarios/0009-tdes_cbc-original-collision-n0-t1-s16-c0/blocks.csv", "f5fea6e2a6564c18"},
      {"scenarios/0009-tdes_cbc-original-collision-n0-t1-s16-c0/disclosure.csv", "c205707b56308f36"},
      {"scenarios/0009-tdes_cbc-original-collision-n0-t1-s16-c0/guesses.csv", "52c97240a042ed28"},
      {"scenarios/0009-tdes_cbc-original-collision-n0-t1-s16-c0/result.csv", "1a88a24ff96bb047"},
      {"scenarios/0009-tdes_cbc-original-collision-n0-t1-s16-c0/session.csv", "6f6b64faaa7af42b"},
      {"summary.csv", "d776672f27670291"},
  };
  expect_digests(run_and_digest("session",
                                "[campaign]\n"
                                "name = golden_session\n"
                                "[axes]\n"
                                "cipher = des_cbc, tdes_cbc\n"
                                "policy = original\n"
                                "analysis = energy, dpa, cpa, mlpa, collision\n"
                                "session_length = 16\n"),
                 expected);
}

TEST(CampaignGolden, CpaTvlaAndSecondOrder) {
  // AES halts before the default window_end, so both specs shorten it.
  const Digests expected_cpa_tvla = {
      {"manifest.json", "4a195fc5755ff45b"},
      {"scenarios/0000-des-original-cpa-n0-t20-c0/disclosure.csv", "fa29adba3d035f23"},
      {"scenarios/0000-des-original-cpa-n0-t20-c0/guesses.csv", "d6c0965156243bb2"},
      {"scenarios/0000-des-original-cpa-n0-t20-c0/result.csv", "afd0df1fb5af5745"},
      {"scenarios/0001-des-original-tvla-n0-t20-c0/result.csv", "b909fa873823aa4f"},
      {"scenarios/0001-des-original-tvla-n0-t20-c0/t_per_cycle.csv", "68e3c4622be69464"},
      {"scenarios/0002-aes-original-cpa-n0-t20-c0/guesses.csv", "a7e733584a8eaf09"},
      {"scenarios/0002-aes-original-cpa-n0-t20-c0/result.csv", "166665908ee1d884"},
      {"scenarios/0003-aes-original-tvla-n0-t20-c0/result.csv", "364c505fe8fc1991"},
      {"scenarios/0003-aes-original-tvla-n0-t20-c0/t_per_cycle.csv", "9e7bac70025d0884"},
      {"summary.csv", "cf2db28d0cc067a7"},
  };
  expect_digests(run_and_digest("cpa_tvla",
                                "[campaign]\n"
                                "name = golden_cpa_tvla\n"
                                "window_end = 12000\n"
                                "[axes]\n"
                                "cipher = des, aes\n"
                                "policy = original\n"
                                "analysis = cpa, tvla\n"
                                "traces = 20\n"),
                 expected_cpa_tvla);
  const Digests expected_second_order = {
      {"manifest.json", "9f71fe65eee58854"},
      {"scenarios/0000-des-original-second_order-n0-t20-c0/guesses.csv", "df5df5d8e0ae1f10"},
      {"scenarios/0000-des-original-second_order-n0-t20-c0/result.csv", "12945e1bebd62357"},
      {"summary.csv", "a209c00801b84310"},
  };
  expect_digests(run_and_digest("second_order",
                                "[campaign]\n"
                                "name = golden_second_order\n"
                                "window_end = 12000\n"
                                "[axes]\n"
                                "cipher = des\n"
                                "policy = original\n"
                                "analysis = second_order\n"
                                "traces = 20\n"),
                 expected_second_order);
}

}  // namespace
}  // namespace emask::campaign
