// Seeded mutation test of svc::read_request, the reader every transport
// (shard handler, router, chaos proxy) runs on each untrusted input line.
//
// Inputs: the request lines of examples/queries.jsonl and
// examples/cluster_smoke.jsonl and the wfcbench hot-corpus bodies.
// Mutations (SplitMix64 via wfc::Rng): byte flips, truncations, duplicated
// and escaped keys (the same key spelled with and without escapes,
// \uXXXX and surrogate pairs included), and long numbers.  Oracle, per
// mutated line:
//   * read_request never throws;
//   * it accepts exactly the lines a FlatJsonScanner walk accepts, and an
//     accepted line's Fields equal the last-wins std::map built from that
//     walk -- member by member, so in key order -- and find() agrees;
//   * the Fields survive a JsonWriter round trip.
// The walk runs for about two seconds; WFC_TEST_SEED reseeds it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "service/jsonl.hpp"

namespace wfc::svc {
namespace {

std::vector<std::string> seed_lines() {
  std::vector<std::string> out;
  for (const char* name : {"queries.jsonl", "cluster_smoke.jsonl"}) {
    std::ifstream in(std::string(WFC_EXAMPLES_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << name;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] == '{') out.push_back(line);
    }
  }
  for (const wfcbench::Line& line : wfcbench::hot_corpus()) {
    out.push_back(R"({"id":"7",)" + line.body + "}");
  }
  return out;
}

/// The reference reader: a scanner walk into a last-wins std::map.  Throws
/// exactly when the walk does.
std::map<std::string, std::string> reference_fields(std::string_view line) {
  std::map<std::string, std::string> out;
  FlatJsonScanner scan(line);
  FlatJsonScanner::Member m;
  while (scan.next(&m)) {
    out[unescape_json(m.key)] =
        m.quoted ? unescape_json(m.value) : std::string(m.value);
  }
  return out;
}

/// Offsets just past each top-level '{' or ',' outside strings: the places
/// a member can be inserted.
std::vector<std::size_t> member_starts(const std::string& line) {
  std::vector<std::size_t> out;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == ',') {
      out.push_back(i + 1);
    }
  }
  return out;
}

std::string mutate(std::string line, Rng& rng) {
  static constexpr char kBytes[] = {'"', '\\', '{', '}', ',', ':', ' ',
                                    '\0', '\n', '\r', '\t', '/', 'u', '-',
                                    '.', '0', '9', 'e', '\x1f', '\x80',
                                    '\xff'};
  // Each key with a spelling that escapes some of its bytes.
  struct Key {
    const char* raw;
    const char* escaped;
  };
  static constexpr Key kKeys[] = {
      {"id", "\\u0069d"},
      {"op", "o\\u0070"},
      {"task", "ta\\u0073k"},
      {"procs", "\\u0070rocs"},
      {"model", "mod\\u0065l"},
      {"budget", "budg\\u0065t"},
      {"max_level", "max\\u005Flevel"},
      {"a/b", "a\\/b"},
      {"\t\b\f", "\\t\\b\\f"},
      {"\xc3\xa9t\xc3\xa9", "\\u00e9t\\u00E9"},
      {"\xe2\x82\xac", "\\u20ac"},
      {"\xf0\x9f\x98\x80", "\\ud83d\\uDE00"}};
  const int steps = rng.between(1, 3);
  for (int s = 0; s < steps; ++s) {
    const std::vector<std::size_t> starts = member_starts(line);
    const std::uint64_t kind = rng.below(6);
    switch (kind) {
      case 0:  // byte flip
        if (!line.empty()) {
          const std::size_t at = rng.below(line.size());
          line[at] = rng.coin() ? kBytes[rng.below(sizeof kBytes)]
                                : static_cast<char>(rng.below(256));
        }
        break;
      case 1:  // truncation
        line.resize(rng.below(line.size() + 1));
        break;
      case 2:    // a duplicated key, later in the line than the original
      case 3: {  // ... or spelled with escapes ("o\u0070" is "op")
        if (starts.empty()) break;
        const Key& k = kKeys[rng.below(std::size(kKeys))];
        const std::string key = kind == 3 ? k.escaped : k.raw;
        const std::string value =
            rng.coin() ? std::to_string(rng.below(1000))
                       : "\"v\\\"" + std::to_string(rng.below(10)) + "\\\\\"";
        const std::size_t at = starts[rng.below(starts.size())];
        const bool last = at == line.size() || line[at] == '}';
        line.insert(at, "\"" + key + "\":" + value + (last ? "" : ","));
        break;
      }
      case 4: {  // a long number
        if (starts.empty()) break;
        std::string digits = rng.coin() ? "-" : "";
        const int n = rng.between(19, 400);
        for (int d = 0; d < n; ++d) {
          digits.push_back(static_cast<char>('0' + rng.below(10)));
        }
        if (rng.coin()) digits += ".5";
        const std::size_t at = starts[rng.below(starts.size())];
        line.insert(at, "\"budget\":" + digits + ",");
        break;
      }
      default: {  // a key escaped in place: "op" -> "o\/p"-style spelling
        const std::size_t quote = line.find("\":");
        if (quote != std::string::npos && quote > 0) {
          line.insert(quote, rng.coin() ? "\\/" : "\\\"");
        }
        break;
      }
    }
  }
  return line;
}

TEST(ReadRequestFuzz, SeededMutationsKeepTheReaderTotalAndLastWins) {
  const std::vector<std::string> seeds = seed_lines();
  ASSERT_GE(seeds.size(), 40u);
  Rng rng(logged_test_seed("jsonl_fuzz_test", 0x1D5EED));
  const auto stop = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0;
       i < 400000 && (i % 256 != 0 || std::chrono::steady_clock::now() < stop);
       ++i) {
    const std::string line = mutate(seeds[rng.below(seeds.size())], rng);
    RequestLine read;
    ASSERT_NO_THROW(read = read_request(line, 1, 1 << 20)) << line;
    if (read.kind == RequestLine::Kind::kSkip) continue;

    std::map<std::string, std::string> expected;
    bool reference_accepts = true;
    try {
      std::string_view text = line;
      if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
      expected = reference_fields(text);
    } catch (const std::invalid_argument&) {
      reference_accepts = false;
    }
    ASSERT_EQ(read.kind == RequestLine::Kind::kRequest, reference_accepts)
        << line;
    if (!reference_accepts) {
      EXPECT_NE(read.error.find("\"status\":\"invalid_argument\""),
                std::string::npos);
      ++rejected;
      continue;
    }
    ++accepted;

    // Member by member, in key order, last value wins.
    ASSERT_EQ(read.fields.size(), expected.size()) << line;
    auto want = expected.begin();
    for (const auto& [key, value] : read.fields) {
      ASSERT_EQ(key, want->first) << line;
      ASSERT_EQ(value, want->second) << line;
      ++want;
    }
    for (const auto& [key, value] : expected) {
      ASSERT_EQ(read.fields.count(key), 1u) << line;
      ASSERT_EQ(read.fields.at(key), value) << line;
    }
    EXPECT_EQ(read.fields.count("\x01missing"), 0u);
    EXPECT_EQ(read.op, expected.count("op") != 0 ? expected["op"] : "");

    JsonWriter w;
    for (const auto& [key, value] : read.fields) w.field(key, value);
    const std::string written = std::move(w).str();
    Fields back;
    ASSERT_NO_THROW(back = parse_flat_json(written)) << written;
    EXPECT_TRUE(std::equal(
        back.begin(), back.end(), read.fields.begin(), read.fields.end(),
        [](const Fields::Member& a, const Fields::Member& b) {
          return a.first == b.first && a.second == b.second;
        }))
        << written;
  }
  // The walk must exercise both verdicts.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
  std::fprintf(stderr, "jsonl_fuzz_test: %llu accepted, %llu rejected\n",
               static_cast<unsigned long long>(accepted),
               static_cast<unsigned long long>(rejected));
}

}  // namespace
}  // namespace wfc::svc
