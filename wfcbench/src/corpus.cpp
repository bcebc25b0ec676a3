// The two request corpora and their oracle.
//
// Every line carries the verdict the repo already reproduces for it, plus
// the minimal level when that verdict is SOLVABLE.  Sources:
//   E3   EXPERIMENTS.md, Prop 3.1 table (consensus, set consensus, renaming,
//        simplex agreement);
//   E11  the approximate-agreement staircase b = ceil(log3 m): m = 2, 3 at
//        level 1; 5, 9 at 2; 14, 27 at 3 -- and UNSOLVABLE below that;
//   E27  and tests/model_test.cpp Separations.* (model verdicts);
//   lib  the library's own answers where the documents give the verdict
//        but not the level (noted per line).
// Node counts are recorded by the generator but never pinned, so a pruning
// change cannot break the benchmark.
#include <string>

#include "bench.hpp"

namespace wfcbench {

namespace {

constexpr const char* kSolvable = "SOLVABLE";
constexpr const char* kUnsolvable = "UNSOLVABLE";

Line solve(const std::string& task, int max_level, const std::string& model,
           const char* verdict, int level = -1) {
  std::string body = "\"op\":\"solve\"," + task +
                     ",\"max_level\":" + std::to_string(max_level);
  if (!model.empty()) body += ",\"model\":\"" + model + "\"";
  return Line{std::move(body), verdict, level};
}

Line approx(int grid, int max_level, const std::string& model = "") {
  // E11: one IIS round 3-sects an edge.
  int need = 0;
  for (int reach = 1; reach < grid; reach *= 3) ++need;
  const std::string task =
      R"("task":"approx","procs":2,"grid":)" + std::to_string(grid);
  if (!model.empty()) {
    // Under either restricting model used here one round suffices (lib).
    return solve(task, max_level, model, kSolvable, 1);
  }
  return need <= max_level ? solve(task, max_level, "", kSolvable, need)
                           : solve(task, max_level, "", kUnsolvable);
}

Line op_ok(const std::string& members) { return Line{members, "OK", -1}; }

const std::string kCons22 = R"("task":"consensus","procs":2,"values":2)";
const std::string kCons23 = R"("task":"consensus","procs":2,"values":3)";
const std::string kCons32 = R"("task":"consensus","procs":3,"values":2)";
const std::string kSet21 = R"("task":"set-consensus","procs":2,"k":1)";
const std::string kSet22 = R"("task":"set-consensus","procs":2,"k":2)";
const std::string kSet31 = R"("task":"set-consensus","procs":3,"k":1)";
const std::string kSet32 = R"("task":"set-consensus","procs":3,"k":2)";
const std::string kSet33 = R"("task":"set-consensus","procs":3,"k":3)";
const std::string kRen23 = R"("task":"renaming","procs":2,"names":3)";
const std::string kRen35 = R"("task":"renaming","procs":3,"names":5)";
const std::string kId2 = R"("task":"identity","procs":2)";
const std::string kId3 = R"("task":"identity","procs":3)";
const std::string kSa21 = R"("task":"simplex-agreement","procs":2,"depth":1)";
const std::string kSa22 = R"("task":"simplex-agreement","procs":2,"depth":2)";
const std::string kSa31 = R"("task":"simplex-agreement","procs":3,"depth":1)";
const std::string kSa32 = R"("task":"simplex-agreement","procs":3,"depth":2)";

}  // namespace

std::vector<Line> hot_corpus() {
  // The router hashes (task, model) -- max_level aside -- onto shards s1/s2;
  // with the default 64 vnodes the first 14 lines land on s1 and the last
  // 10 on s2, so no shard serves more than 14/24 = 58% of the requests.
  return {
      solve(kCons22, 1, "", kUnsolvable),  // E3
      solve(kCons22, 2, "", kUnsolvable),  // E3
      solve(kCons23, 1, "", kUnsolvable),  // E3 (any value count)
      solve(kSet21, 1, "", kUnsolvable),   // E3
      solve(kSet22, 1, "", kSolvable, 0),  // k = n: trivial
      solve(kSet32, 1, "", kUnsolvable),   // E3
      solve(kSet33, 1, "", kSolvable, 0),  // E3
      approx(2, 1),
      approx(5, 1),
      approx(5, 2),
      approx(9, 2),
      approx(27, 3),
      solve(kSa21, 1, "", kSolvable, 1),  // E3
      solve(kSa22, 2, "", kSolvable, 2),  // E3
      // s2 from here on.
      solve(kCons32, 1, "", kUnsolvable),  // E3
      solve(kCons32, 2, "", kUnsolvable),  // E3
      solve(kRen23, 1, "", kSolvable, 0),  // E3
      solve(kRen23, 2, "", kSolvable, 0),  // E3
      solve(kId3, 1, "", kSolvable, 0),
      solve(kId3, 2, "", kSolvable, 0),
      solve(kSa31, 1, "", kSolvable, 1),  // E3
      solve(kSa31, 2, "", kSolvable, 1),  // E3
      // Model variants (E27, Separations.TResilientLadder).
      solve(kSet32, 1, "t_resilient(1)", kSolvable, 1),
      solve(kSet32, 1, "k_obstruction_free(2)", kSolvable, 1),
  };
}

std::vector<Line> cold_corpus() {
  std::vector<Line> out;
  // Wait-free Prop 3.1 solves at max_level 1-3.  Lines over one task share
  // its input complex, so their chains are SdsCache hits or extensions.
  for (int b = 1; b <= 3; ++b) {
    out.push_back(solve(kCons22, b, "", kUnsolvable));     // E3
    out.push_back(solve(kCons23, b, "", kUnsolvable));     // E3
    out.push_back(solve(kSet21, b, "", kUnsolvable));      // E3
    out.push_back(solve(kSet22, b, "", kSolvable, 0));     // k = n
    out.push_back(solve(kSet33, b, "", kSolvable, 0));     // E3
    out.push_back(solve(kRen23, b, "", kSolvable, 0));     // E3
    out.push_back(solve(kRen35, b, "", kSolvable, 0));     // lib level
    out.push_back(solve(kId2, b, "", kSolvable, 0));
    out.push_back(solve(kId3, b, "", kSolvable, 0));
    for (int m : {2, 3, 5, 9, 14, 27}) out.push_back(approx(m, b));  // E11
    out.push_back(solve(kSa21, b, "", kSolvable, 1));      // E3
    out.push_back(b >= 2 ? solve(kSa22, b, "", kSolvable, 2)  // E3
                         : solve(kSa22, b, "", kUnsolvable));
    out.push_back(solve(kSa31, b, "", kSolvable, 1));      // E3
  }
  out.push_back(solve(kCons32, 1, "", kUnsolvable));       // E3
  out.push_back(solve(kCons32, 2, "", kUnsolvable));       // E3
  out.push_back(solve(kSa32, 1, "", kUnsolvable));
  out.push_back(solve(kSa32, 2, "", kSolvable, 2));        // E3, E12
  out.push_back(solve(kSet32, 1, "", kUnsolvable));        // E3, E8

  // The same searches restricted by sub-IIS models (E27, Separations.*).
  for (int b = 1; b <= 2; ++b) {
    out.push_back(solve(kCons22, b, "t_resilient(0)", kSolvable, 1));
    out.push_back(solve(kCons22, b, "k_concurrency(1)", kSolvable, 1));
    out.push_back(solve(kCons22, b, "k_obstruction_free(1)", kSolvable, 1));
    // t = n - 1 admits every run: the wait-free verdict.
    out.push_back(solve(kCons22, b, "t_resilient(1)", kUnsolvable));
    out.push_back(solve(kSet32, b, "t_resilient(0)", kSolvable, 1));
    out.push_back(solve(kSet32, b, "t_resilient(1)", kSolvable, 1));
    out.push_back(solve(kSet32, b, "k_concurrency(1)", kSolvable, 1));
    out.push_back(solve(kSet32, b, "k_concurrency(2)", kSolvable, 1));
    out.push_back(solve(kSet32, b, "k_obstruction_free(1)", kSolvable, 1));
    out.push_back(solve(kSet32, b, "k_obstruction_free(2)", kSolvable, 1));
    out.push_back(solve(kSet31, b, "t_resilient(0)", kSolvable, 1));
    // PerRoundFairnessIsStrongerThanTrueResilience: level 2, not 1.
    out.push_back(b == 1 ? solve(kSet31, b, "t_resilient(1)", kUnsolvable)
                         : solve(kSet31, b, "t_resilient(1)", kSolvable, 2));
    // KConcurrencyLadder: consensus needs 1-concurrency (at level 2).
    out.push_back(b == 1 ? solve(kSet31, b, "k_concurrency(1)", kUnsolvable)
                         : solve(kSet31, b, "k_concurrency(1)", kSolvable, 2));
    out.push_back(solve(kSet31, b, "k_concurrency(2)", kUnsolvable));
    out.push_back(solve(kSet31, b, "k_concurrency(3)", kUnsolvable));
    out.push_back(solve(kSet31, b, "k_obstruction_free(1)", kUnsolvable));
    out.push_back(solve(kSet31, b, "k_obstruction_free(2)", kUnsolvable));
    out.push_back(approx(9, b, "t_resilient(0)"));
    out.push_back(approx(9, b, "k_concurrency(1)"));
  }
  // n-concurrency admits every run: the wait-free refutation (1284 nodes).
  out.push_back(solve(kSet32, 1, "k_concurrency(3)", kUnsolvable));

  // §5 convergence: simplex agreement on SDS^d(s) compiles at level d.
  static constexpr int kConvergence[][3] = {
      {2, 1, 1}, {2, 1, 2}, {2, 1, 3}, {2, 1, 4},
      {2, 2, 2}, {2, 2, 3}, {3, 1, 1}, {3, 1, 2}};  // procs, depth, max_level
  for (const auto& [procs, depth, max_level] : kConvergence) {
    out.push_back(Line{"\"op\":\"convergence\",\"procs\":" +
                           std::to_string(procs) +
                           ",\"depth\":" + std::to_string(depth) +
                           ",\"max_level\":" + std::to_string(max_level),
                       kSolvable, depth});
  }
  for (const char* model : {"t_resilient(0)", "k_concurrency(1)"}) {
    out.push_back(Line{std::string("\"op\":\"convergence\",\"procs\":2,"
                                   "\"depth\":1,\"max_level\":2,\"model\":\"") +
                           model + "\"",
                       kSolvable, 1});
  }

  // Bounded model checks (Lemmas 3.2/3.3, §4 conformance): all OK.
  for (const char* target : {"sds", "emulation"}) {
    for (int procs = 2; procs <= 3; ++procs) {
      for (int rounds = 1; rounds <= 2; ++rounds) {
        for (int crashes = 0; crashes <= 1; ++crashes) {
          out.push_back(op_ok(std::string("\"op\":\"check\",\"target\":\"") +
                              target + "\",\"procs\":" +
                              std::to_string(procs) +
                              ",\"rounds\":" + std::to_string(rounds) +
                              ",\"crashes\":" + std::to_string(crashes)));
        }
      }
    }
  }
  out.push_back(op_ok(R"js("op":"check","target":"sds","procs":3,)js"
                      R"js("rounds":2,"model":"t_resilient(1)")js"));
  out.push_back(op_ok(
      R"("op":"check","target":"sds","procs":3,"rounds":2,"symmetry":true)"));

  // §4 Figure 2 emulation of the k-shot full-information protocol.
  static constexpr int kEmulate[][2] = {
      {2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2}};  // procs, shots
  for (const auto& [procs, shots] : kEmulate) {
    out.push_back(op_ok("\"op\":\"emulate\",\"procs\":" +
                        std::to_string(procs) +
                        ",\"shots\":" + std::to_string(shots)));
  }
  return out;
}

}  // namespace wfcbench
