// Seeded mutation fuzz of the scenario parser (parse only).
//
// Mutates the shipped scenarios, the wimesh_run demo text and a few fault
// plans: numeric tokens are replaced by hostile values and tokens are
// dropped or duplicated. Every mutant must either be rejected with an
// error or parse to a Scenario whose node ids lie in [0, node_count) and
// whose integer fields lie in the ranges documented in core/scenario.h.
// Under the ASan+UBSan build any undefined behaviour in the parser (an
// out-of-range float->int cast, SimTime overflow) fails the test too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "wimesh/common/strings.h"
#include "wimesh/core/scenario.h"

namespace wimesh {
namespace {

// wimesh_run's built-in --demo scenario.
constexpr const char* kDemo = R"(topology = grid 3 3 100
comm_range = 110
interference_range = 220
phy = ofdm54
frame_ms = 10
control_slots = 4
data_slots = 96
scheduler = ilp-delay
routing = hop
mac = tdma
duration_s = 5
seed = 1

voip 0 8 0 g729 100
voip 2 6 0 g711 100
bulk 50 2 6 1200 2000000
)";

std::vector<std::string> corpus() {
  // Every shipped scenario, in name order so the mutants are reproducible.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(WIMESH_SCENARIO_DIR)) {
    if (entry.path().extension() == ".wimesh") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 7u);
  std::vector<std::string> texts;
  for (const std::string& file : files) {
    const auto text = read_text_file(file);
    EXPECT_TRUE(text.has_value()) << text.error();
    if (text.has_value()) texts.push_back(*text);
  }
  texts.emplace_back(kDemo);
  for (const char* plan :
       {"fault = node-crash@2 node=4; master-fail@3\n",
        "fault = burst@1..2.5 link=0-1 p_gb=0.2 p_bg=0.3 per_bad=1\n",
        "fault = clock-step@1 node=3 step_us=50; link-down@2 link=1-2; "
        "link-up@3 link=1-2; detect_ms=50\n",
        "admit = rate=2,holding=30,events=500,max_delay_ms=80,seed=3\n"
        "ilp = threads=2,portfolio=2,max_nodes=1000,time_limit_s=1\n"
        "radio = on,oscillators=8,probe=16,seed=3,ewma=0.5\n"}) {
    texts.push_back(std::string(kDemo) + plan);
  }
  return texts;
}

// Splits into alternating separator and token pieces so the text can be
// reassembled after mutating tokens.
std::vector<std::string> pieces(const std::string& text) {
  const auto is_sep = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0 || c == '=' ||
           c == ',' || c == ';' || c == '@';
  };
  std::vector<std::string> out;
  for (const char c : text) {
    if (out.empty() || is_sep(c) != is_sep(out.back().back())) {
      out.emplace_back();
    }
    out.back() += c;
  }
  return out;
}

bool is_numeric(const std::string& p) {
  return !p.empty() && (std::isdigit(static_cast<unsigned char>(p[0])) != 0 ||
                        (p[0] == '-' && p.size() > 1));
}

std::string mutate(const std::string& text, std::mt19937_64& rng) {
  static const char* const kHostile[] = {
      "0",   "-1",    "0.5", "1e30", "-1e30", "1e300",
      "nan", "inf",   "18446744073709551616"};
  std::vector<std::string> p = pieces(text);
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !p.empty(); ++e) {
    const std::size_t i = rng() % p.size();
    switch (rng() % 4) {
      case 0:
      case 1: {
        // Replace a numeric token (or the nearest one after i).
        for (std::size_t k = 0; k < p.size(); ++k) {
          std::string& tok = p[(i + k) % p.size()];
          if (is_numeric(tok)) {
            tok = kHostile[rng() % std::size(kHostile)];
            break;
          }
        }
        break;
      }
      case 2:
        p.erase(p.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      default: {
        const std::string copy = p[i];
        p.insert(p.begin() + static_cast<std::ptrdiff_t>(i), copy);
        break;
      }
    }
  }
  std::string out;
  for (const std::string& s : p) out += s;
  return out;
}

// The ranges core/scenario.h documents, for whatever parsed.
void expect_in_range(const Scenario& sc, const std::string& text) {
  const NodeId n = sc.config.topology.node_count();
  ASSERT_GE(n, 1) << text;
  const auto node_ok = [n](NodeId v) { return v >= 0 && v < n; };
  for (const FlowSpec& f : sc.flows) {
    EXPECT_TRUE(node_ok(f.src) && node_ok(f.dst)) << text;
    EXPECT_GE(f.id, 0) << text;
    EXPECT_GT(f.packet_interval, SimTime::zero()) << text;
    EXPECT_GT(f.max_delay, SimTime::zero()) << text;
  }
  const auto& floors = sc.config.radio.floors;
  EXPECT_TRUE(floors.empty() || floors.size() == static_cast<std::size_t>(n))
      << text;
  for (const faults::FaultEvent& e : sc.config.faults.events) {
    for (const NodeId v : {e.node, e.link_a, e.link_b}) {
      EXPECT_TRUE(v == kInvalidNode || node_ok(v)) << text;
    }
    EXPECT_GE(e.at, SimTime::zero()) << text;
  }
  const auto& frame = sc.config.emulation.frame;
  EXPECT_GE(frame.frame_duration, SimTime::milliseconds(1)) << text;
  EXPECT_LE(frame.frame_duration, SimTime::milliseconds(1000)) << text;
  EXPECT_TRUE(frame.control_slots >= 0 && frame.control_slots <= 4096)
      << text;
  EXPECT_TRUE(frame.data_slots >= 1 && frame.data_slots <= 4096) << text;
  EXPECT_GE(sc.config.emulation.guard_time, SimTime::zero()) << text;
  EXPECT_LE(sc.config.emulation.guard_time, SimTime::seconds(1)) << text;
  EXPECT_GE(sc.config.zones, 0) << text;
  const auto& ilp = sc.config.ilp;
  EXPECT_TRUE(ilp.threads >= 1 && ilp.threads <= 1024) << text;
  EXPECT_TRUE(ilp.portfolio >= 1 && ilp.portfolio <= 64) << text;
  EXPECT_GE(ilp.max_nodes, 0) << text;
  const auto& radio = sc.config.radio;
  EXPECT_TRUE(radio.fading.oscillators >= 1 && radio.fading.oscillators <= 1024)
      << text;
  EXPECT_TRUE(radio.rate_adapt.probe_interval >= 2 &&
              radio.rate_adapt.probe_interval <= 1'000'000)
      << text;
  EXPECT_TRUE(sc.admit_compaction >= 0 && sc.admit_compaction <= 1'000'000)
      << text;
  EXPECT_GT(sc.admit_churn.max_delay, SimTime::zero()) << text;
  EXPECT_GE(sc.duration, SimTime::zero()) << text;
  EXPECT_LE(sc.duration, SimTime::seconds(1'000'000)) << text;
}

TEST(ScenarioFuzzTest, MutantsAreRejectedOrParseInRange) {
  const std::vector<std::string> texts = corpus();
  for (const std::string& t : texts) {
    ASSERT_TRUE(parse_scenario(t).has_value()) << t;  // the seeds parse
  }
  std::mt19937_64 rng(20070101);
  int parsed = 0;
  constexpr int kIterations = 5000;
  for (int it = 0; it < kIterations; ++it) {
    const std::string text = mutate(texts[rng() % texts.size()], rng);
    const auto sc = parse_scenario(text);
    if (!sc.has_value()) {
      EXPECT_FALSE(sc.error().empty()) << text;
      continue;
    }
    ++parsed;
    expect_in_range(*sc, text);
    if (::testing::Test::HasFailure()) return;  // one report is enough
  }
  // Both outcomes are exercised, not just the error path.
  EXPECT_GT(parsed, kIterations / 20);
  EXPECT_LT(parsed, kIterations - kIterations / 20);
}

}  // namespace
}  // namespace wimesh
