#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/argparse.hpp"
#include "util/bitops.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/ini.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace emask::util {
namespace {

TEST(Bitops, HammingDistance) {
  EXPECT_EQ(hamming_distance(0, 0), 0);
  EXPECT_EQ(hamming_distance(0xFFFFFFFFu, 0), 32);
  EXPECT_EQ(hamming_distance(0b1010, 0b0101), 4);
  EXPECT_EQ(hamming_distance(0x80000000u, 0), 1);
}

TEST(Bitops, PopcountMatchesStd) {
  static_assert(popcount(0) == 0 && popcount(~0ull) == 64);
  Rng rng(0xB17);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng.next_u64();
    // Sparse and dense words as well as uniform ones.
    for (const std::uint64_t w : {x, x & rng.next_u64(), x | rng.next_u64()}) {
      ASSERT_EQ(popcount(w), std::popcount(w)) << w;
    }
  }
  for (unsigned b = 0; b < 64; ++b) EXPECT_EQ(popcount(1ull << b), 1) << b;
}

TEST(Bitops, BitOfAndWithBit) {
  EXPECT_EQ(bit_of(0b100, 2), 1u);
  EXPECT_EQ(bit_of(0b100, 1), 0u);
  EXPECT_EQ(with_bit(0, 5, 1), 32u);
  EXPECT_EQ(with_bit(0xFFFFFFFFu, 0, 0), 0xFFFFFFFEu);
}

TEST(Bitops, SignExtend) {
  EXPECT_EQ(sign_extend(0xFFFF, 16), 0xFFFFFFFFu);
  EXPECT_EQ(sign_extend(0x7FFF, 16), 0x7FFFu);
  EXPECT_EQ(sign_extend(0x80, 8), 0xFFFFFF80u);
  EXPECT_EQ(sign_extend(0x7F, 8), 0x7Fu);
}

TEST(Bitops, PackUnpackRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = rng.next_u64();
    EXPECT_EQ(pack_block_msb_first(unpack_block_msb_first(x)), x);
  }
}

TEST(Bitops, UnpackIsMsbFirst) {
  const auto bits = unpack_block_msb_first(1ull << 63);
  EXPECT_EQ(bits[0], 1u);
  for (int i = 1; i < 64; ++i) EXPECT_EQ(bits[static_cast<std::size_t>(i)], 0u);
}

TEST(Bitops, PackRejectsWrongSize) {
  EXPECT_THROW((void)pack_block_msb_first(std::vector<std::uint32_t>(63)),
               std::invalid_argument);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NthGivesRandomAccessIntoTheStream) {
  // Rng::nth(seed, n) must equal the (n+1)-th sequential draw — this is
  // what lets parallel trace capture reproduce a serial plaintext stream.
  for (const std::uint64_t seed : {0ull, 42ull, 0xD9Aull, ~0ull}) {
    Rng sequential(seed);
    for (std::uint64_t n = 0; n < 50; ++n) {
      EXPECT_EQ(Rng::nth(seed, n), sequential.next_u64())
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Stats, RunningStatsMeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Stats, VarianceOfSingleSampleIsZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> b{2, 4, 6, 8};
  std::vector<double> c{-1, -2, -3, -4};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateIsZero) {
  std::vector<double> a{1, 1, 1};
  std::vector<double> b{1, 2, 3};
  EXPECT_EQ(pearson(a, b), 0.0);
}

TEST(Stats, PearsonSizeMismatchThrows) {
  EXPECT_THROW((void)pearson({1, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Stats, ArgmaxAbs) {
  EXPECT_EQ(argmax_abs({1.0, -5.0, 3.0}), 1u);
  EXPECT_EQ(argmax_abs({}), 0u);
}

TEST(Stats, WelchTSeparatesDistinctMeans) {
  RunningStats g0, g1;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    g0.add(rng.next_gaussian());
    g1.add(rng.next_gaussian() + 1.0);
  }
  EXPECT_LT(welch_t(g0, g1), -5.0);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/emask_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"a", "b"});
    csv.write_row({1.5, 2.0});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::remove(path.c_str());
}

TEST(Csv, CreatesMissingOutputDirectory) {
  // The writer owns directory creation: pointing it into a directory that
  // does not exist yet must succeed, not silently truncate or throw.
  const std::string dir = ::testing::TempDir() + "/emask_csv_mkdir/a/b";
  const std::string path = dir + "/out.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"a"});
    csv.write_row({1.0});
    csv.flush();
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::filesystem::remove_all(::testing::TempDir() + "/emask_csv_mkdir");
}

TEST(Csv, ThrowsOnUnopenablePath) {
  // /dev/null is a file, so a path *through* it can never be created —
  // the error must name the path instead of deferring to a later flush.
  EXPECT_THROW(CsvWriter("/dev/null/sub/x.csv"), std::runtime_error);
}

TEST(Fsio, OpenForWriteCreatesNestedDirectories) {
  const std::string root = ::testing::TempDir() + "/emask_fsio_test";
  const std::string path = root + "/x/y/z.txt";
  {
    std::ofstream out = open_for_write(path);
    out << "hello";
    close_or_throw(out, path);
  }
  EXPECT_EQ(read_text_file(path), "hello");
  std::filesystem::remove_all(root);
}

TEST(Fsio, OpenForWriteThrowsWithPathInMessage) {
  try {
    (void)open_for_write("/dev/null/sub/file.txt");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/null/sub"),
              std::string::npos);
  }
}

TEST(Fsio, CloseOrThrowReportsWriteFailure) {
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "no /dev/full on this platform";
  std::ofstream out("/dev/full");
  out << "spill";
  EXPECT_THROW(close_or_throw(out, "/dev/full"), std::runtime_error);
}

TEST(Csv, ParseRoundTripsWriterOutput) {
  const CsvTable t = parse_csv("a,b\n1.5,2\n3,4\n");
  ASSERT_EQ(t.columns.size(), 2u);
  EXPECT_EQ(t.columns[0], "a");
  EXPECT_EQ(t.column("b"), 1u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0], "1.5");
  EXPECT_EQ(t.rows[1][1], "4");
}

TEST(Csv, ParseHandlesQuotedCellsAndCrlf) {
  const CsvTable t =
      parse_csv("id,note\r\n\"a,b\",\"say \"\"hi\"\"\"\r\n1,\"multi\nline\"");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0], "a,b");
  EXPECT_EQ(t.rows[0][1], "say \"hi\"");
  EXPECT_EQ(t.rows[1][1], "multi\nline");
}

TEST(Csv, ParseRejectsRaggedRows) {
  try {
    (void)parse_csv("a,b\n1\n");
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos);
  }
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv("a\n\"open"), CsvError);
}

TEST(Csv, ColumnLookupNamesTheMissingColumn) {
  const CsvTable t = parse_csv("x,y\n1,2\n");
  try {
    (void)t.column("z");
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_NE(std::string(e.what()).find("'z'"), std::string::npos);
  }
}

TEST(Csv, EscapeFollowsRfc4180) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvWriter::escape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(Csv, StringRowsAreEscaped) {
  const std::string path = ::testing::TempDir() + "/emask_csv_str_test.csv";
  {
    CsvWriter csv(path);
    csv.write_header({"id", "note"});
    csv.write_row({std::string("a,b"), std::string("x")});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "id,note");
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\",x");
  std::remove(path.c_str());
}

TEST(Csv, FlushThrowsOnWriteFailure) {
  // /dev/full accepts the open but fails every write with ENOSPC.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "no /dev/full on this platform";
  CsvWriter csv("/dev/full");
  csv.write_header({"a"});
  EXPECT_THROW(csv.flush(), std::runtime_error);
}

TEST(ArgParser, ParsesOptionsAndPositionals) {
  std::string pos;
  std::string name = "default";
  std::size_t count = 0;
  std::uint64_t key = 0;
  double sigma = 0.0;
  bool on = false;
  ArgParser parser("t", "FILE [options]");
  parser.positional("FILE", &pos, true, "input");
  parser.opt_string("name", &name, "S", "a string");
  parser.opt_size("count", &count, "a count");
  parser.opt_hex("key", &key, "a key");
  parser.opt_double("sigma", &sigma, "noise");
  parser.flag("on", &on, "a switch");
  const char* argv[] = {"t",          "--name=x", "--count=7", "in.txt",
                        "--key=0xAB", "--sigma=1.5", "--on"};
  EXPECT_TRUE(parser.parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(pos, "in.txt");
  EXPECT_EQ(name, "x");
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(key, 0xABu);
  EXPECT_DOUBLE_EQ(sigma, 1.5);
  EXPECT_TRUE(on);
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser parser("t", "");
  const char* argv[] = {"t", "--bogus=1"};
  EXPECT_THROW((void)parser.parse(2, const_cast<char**>(argv)), ArgError);
}

TEST(ArgParser, RejectsMissingRequiredPositional) {
  std::string pos;
  ArgParser parser("t", "FILE");
  parser.positional("FILE", &pos, true, "input");
  const char* argv[] = {"t"};
  EXPECT_THROW((void)parser.parse(1, const_cast<char**>(argv)), ArgError);
}

TEST(ArgParser, RejectsValueOutsideChoices) {
  std::string mode = "a";
  ArgParser parser("t", "");
  parser.opt_choice("mode", &mode, {"a", "b"}, "pick one");
  const char* argv[] = {"t", "--mode=c"};
  EXPECT_THROW((void)parser.parse(2, const_cast<char**>(argv)), ArgError);
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser parser("t", "");
  const char* argv[] = {"t", "--help"};
  EXPECT_FALSE(parser.parse(2, const_cast<char**>(argv)));
}

TEST(ArgParser, StrictScalarParsing) {
  EXPECT_EQ(ArgParser::parse_int("-42", "x"), -42);
  EXPECT_EQ(ArgParser::parse_u64("18446744073709551615", "x"),
            0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(ArgParser::parse_hex("0xDEAD", "x"), 0xDEADu);
  EXPECT_EQ(ArgParser::parse_hex("beef", "x"), 0xBEEFu);
  EXPECT_DOUBLE_EQ(ArgParser::parse_double("2.5e-3", "x"), 2.5e-3);
  EXPECT_THROW((void)ArgParser::parse_int("12abc", "x"), ArgError);
  EXPECT_THROW((void)ArgParser::parse_int("", "x"), ArgError);
  EXPECT_THROW((void)ArgParser::parse_u64("-1", "x"), ArgError);
  EXPECT_THROW((void)ArgParser::parse_hex("0xZZ", "x"), ArgError);
  EXPECT_THROW((void)ArgParser::parse_double("1.5garbage", "x"), ArgError);
}

TEST(Ini, ParsesSectionsKeysAndComments) {
  const IniFile ini = IniFile::parse(
      "# leading comment\n"
      "[alpha]\n"
      "key = value  # trailing comment\n"
      "quoted = \" spaced # kept \"\n"
      "; another comment\n"
      "[beta]\n"
      "list = a, b , c\n");
  ASSERT_EQ(ini.sections().size(), 2u);
  EXPECT_EQ(*ini.find("alpha", "key"), "value");
  EXPECT_EQ(*ini.find("alpha", "quoted"), " spaced # kept ");
  EXPECT_EQ(ini.find("alpha", "absent"), nullptr);
  EXPECT_EQ(ini.get_or("beta", "missing", "fb"), "fb");
  const auto items = IniFile::split_list(*ini.find("beta", "list"));
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "a");
  EXPECT_EQ(items[1], "b");
  EXPECT_EQ(items[2], "c");
}

TEST(Ini, SplitListPreservesEmptyItems) {
  const auto items = IniFile::split_list("a,,b");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[1], "");
}

TEST(Ini, KeyOutsideSectionIsError) {
  EXPECT_THROW((void)IniFile::parse("key = 1\n"), IniError);
}

TEST(Ini, DuplicateSectionIsError) {
  EXPECT_THROW((void)IniFile::parse("[a]\nx = 1\n[a]\ny = 2\n"), IniError);
}

TEST(Ini, DuplicateKeyIsError) {
  EXPECT_THROW((void)IniFile::parse("[a]\nx = 1\nx = 2\n"), IniError);
}

TEST(Ini, MalformedLineIsErrorWithLineNumber) {
  try {
    (void)IniFile::parse("[a]\nnot an assignment\n");
    FAIL() << "expected IniError";
  } catch (const IniError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Json, EmitsDeterministicDocument) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("name");
  json.value("say \"hi\"\n");
  json.key("count");
  json.value(std::uint64_t{3});
  json.key("list");
  json.begin_array();
  json.value(1.5);
  json.value(true);
  json.end_array();
  json.end_object();
  json.finish();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"say \\\"hi\\\"\\n\""), std::string::npos);
  EXPECT_NE(text.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("true"), std::string::npos);
}

TEST(Json, FormatDoubleRoundTrips) {
  const double values[] = {0.0, 1.0 / 3.0, 22.738847, 1e-300, -2.5};
  for (const double v : values) {
    EXPECT_EQ(std::stod(JsonWriter::format_double(v)), v);
  }
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  // JSON has no NaN/Infinity literal; emitting format_double's "nan"/"inf"
  // would make the document unparsable.
  const double non_finite[] = {std::nan(""),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const double v : non_finite) {
    std::ostringstream out;
    JsonWriter json(out);
    json.begin_object();
    json.key("metric");
    json.value(v);
    json.end_object();
    json.finish();
    EXPECT_EQ(out.str(), "{\n  \"metric\": null\n}\n") << "value " << v;
    EXPECT_NO_THROW((void)parse_json(out.str()));
  }
}

TEST(Json, ExplicitNull) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.null();
  json.end_array();
  json.finish();
  EXPECT_EQ(out.str(), "[\n  null\n]\n");
}

TEST(Json, ParserRoundTripsWriterOutput) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("name");
  json.value("say \"hi\"\n");
  json.key("big");
  json.value(std::uint64_t{18446744073709551615ull});
  json.key("third");
  json.value(1.0 / 3.0);
  json.key("neg");
  json.value(-7);
  json.key("flags");
  json.begin_array();
  json.value(true);
  json.value(false);
  json.null();
  json.end_array();
  json.end_object();
  json.finish();

  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("name").as_string(), "say \"hi\"\n");
  // Raw tokens survive: a u64 above 2^53 loses nothing.
  EXPECT_EQ(doc.at("big").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(doc.at("big").text, "18446744073709551615");
  EXPECT_DOUBLE_EQ(doc.at("third").as_double(), 1.0 / 3.0);
  EXPECT_EQ(doc.at("third").text, JsonWriter::format_double(1.0 / 3.0));
  EXPECT_EQ(doc.at("neg").as_int(), -7);
  ASSERT_EQ(doc.at("flags").array.size(), 3u);
  EXPECT_TRUE(doc.at("flags").array[0].as_bool());
  EXPECT_FALSE(doc.at("flags").array[1].as_bool());
  EXPECT_TRUE(doc.at("flags").array[2].is_null());
  // Members preserve insertion order.
  EXPECT_EQ(doc.members.front().first, "name");
  EXPECT_EQ(doc.members.back().first, "flags");
}

TEST(Json, ParserDecodesEscapes) {
  const JsonValue doc = parse_json("\"a\\u00e9\\t\\\\b\\u0041\"");
  EXPECT_EQ(doc.as_string(), "a\xC3\xA9\t\\bA");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)parse_json(""), JsonError);
  EXPECT_THROW((void)parse_json("{\"a\": 1,}"), JsonError);
  EXPECT_THROW((void)parse_json("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)parse_json("[1, 2] trailing"), JsonError);
  EXPECT_THROW((void)parse_json("01"), JsonError);
  EXPECT_THROW((void)parse_json("nan"), JsonError);
  EXPECT_THROW((void)parse_json("\"unterminated"), JsonError);
}

TEST(Json, AccessorsRejectTypeMismatch) {
  const JsonValue doc = parse_json("{\"s\": \"x\", \"d\": 1.5, \"n\": -2}");
  EXPECT_THROW((void)doc.at("s").as_u64(), JsonError);
  EXPECT_THROW((void)doc.at("d").as_u64(), JsonError);   // not an integer
  EXPECT_THROW((void)doc.at("n").as_u64(), JsonError);   // negative
  EXPECT_THROW((void)doc.at("missing"), JsonError);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.at("n").as_int(), -2);
}

TEST(ArgParser, PositionalRestCollectsTail) {
  std::string cmd;
  std::vector<std::string> rest;
  std::string out;
  ArgParser parser("t", "CMD DIR... --out=X");
  parser.positional("CMD", &cmd, true, "subcommand");
  parser.positional_rest("DIR", &rest, "input directories");
  parser.opt_string("out", &out, "X", "output");
  const char* argv[] = {"t", "merge", "a", "b", "c", "--out=m"};
  ASSERT_TRUE(parser.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(cmd, "merge");
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], "a");
  EXPECT_EQ(rest[2], "c");
  EXPECT_EQ(out, "m");
}

}  // namespace
}  // namespace emask::util
