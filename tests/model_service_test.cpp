// Model-parameterized queries through the service stack: the "model" wire
// field end-to-end (RequestHandler), result-memo / SdsCache / ChainStore
// key separation between models over the same task, v1 store back-compat,
// the convergence fallback, and the chk run-filter behind op:"check".
//
// The companion model_test.cpp validates the THEORY (restrictions match
// the explore_iis oracle, known separations reproduce); this file validates
// the PLUMBING -- that two models over one task never share a verdict,
// tower, or file, and that a model-less request is bit-for-bit what it was
// before wfc::model existed.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "model/restrict.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/handler.hpp"
#include "service/query_service.hpp"
#include "service/sds_cache.hpp"
#include "store/chain_store.hpp"
#include "tasks/canonical.hpp"
#include "topology/complex.hpp"
#include "topology/hash.hpp"

namespace wfc::svc {
namespace {

using task::Solvability;

/// Fresh temp directory per test; removed on scope exit.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/wfc_model_svc_test_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path = p;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// Parses, submits, and waits out one request line; returns the rendered
/// response (or the error record).
std::string roundtrip(RequestHandler& handler, const std::string& line,
                      int line_no = 1) {
  RequestHandler::ParsedLine parsed = handler.parse(line, line_no);
  if (parsed.action == RequestHandler::Action::kRespond) {
    return parsed.immediate.line;
  }
  EXPECT_EQ(parsed.action, RequestHandler::Action::kSubmit) << line;
  RequestHandler::Rendered error;
  std::optional<RequestHandler::Submitted> submitted =
      handler.submit(parsed, &error);
  if (!submitted.has_value()) return error.line;
  const QueryResult result = submitted->ticket.result.get();
  return handler.render(submitted->meta, result).line;
}

// ---------------------------------------------------------------------------
// Wire surface: the "model" field on solve / convergence / check.
// ---------------------------------------------------------------------------

TEST(HandlerModel, OmittedAndWaitFreeRenderIdentically) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  RequestHandler handler(service, {});
  const std::string bare = roundtrip(
      handler,
      R"js({"id":"a","op":"solve","task":"consensus","procs":2,"values":2,"max_level":1})js");
  const std::string explicit_wf = roundtrip(
      handler,
      R"js({"id":"a","op":"solve","task":"consensus","procs":2,"values":2,"max_level":1,"model":"wait_free"})js");
  // Same id on purpose: an explicit wait_free must render the model-less
  // response shape -- no "model" echo, same verdict, same node count.  Only
  // the timing tail (cache_hit/micros) may differ, and it differs in the
  // direction that PROVES key sharing: the second request replays the
  // first's memo entry, so tag-0 and model-less landed on one key.
  const auto head = [](const std::string& line) {
    return line.substr(0, line.find(",\"cache_hit\""));
  };
  EXPECT_EQ(head(bare), head(explicit_wf));
  EXPECT_EQ(bare.find("\"model\""), std::string::npos);
  EXPECT_EQ(explicit_wf.find("\"model\""), std::string::npos) << explicit_wf;
  EXPECT_NE(bare.find("\"verdict\":\"UNSOLVABLE\""), std::string::npos)
      << bare;
  EXPECT_NE(explicit_wf.find("\"cache_hit\":true"), std::string::npos)
      << explicit_wf;
}

TEST(HandlerModel, NonWaitFreeModelIsEchoedAndChangesTheVerdict) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  RequestHandler handler(service, {});
  // Consensus is wait-free unsolvable but solvable in the synchronous model
  // t_resilient(0): the only admissible runs are the fully synchronous
  // ones, whose central facets are disjoint per input assignment.
  const std::string line = roundtrip(
      handler,
      R"js({"op":"solve","task":"consensus","procs":2,"values":2,"max_level":1,"model":"t_resilient(0)"})js");
  EXPECT_NE(line.find("\"model\":\"t_resilient(0)\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"verdict\":\"SOLVABLE\""), std::string::npos) << line;
}

TEST(HandlerModel, UnknownAndMisplacedModelsAreRejected) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  RequestHandler handler(service, {});
  const std::string bogus = roundtrip(
      handler,
      R"js({"op":"solve","task":"consensus","procs":2,"values":2,"model":"bogus"})js");
  EXPECT_NE(bogus.find("invalid_argument"), std::string::npos) << bogus;
  const std::string emulate = roundtrip(
      handler, R"js({"op":"emulate","procs":2,"model":"t_resilient(1)"})js");
  EXPECT_NE(emulate.find("invalid_argument"), std::string::npos) << emulate;
  const std::string lin = roundtrip(
      handler,
      R"js({"op":"check","target":"linearizability","procs":2,"model":"t_resilient(1)"})js");
  EXPECT_NE(lin.find("invalid_argument"), std::string::npos) << lin;
}

TEST(HandlerModel, SymmetryAcceptsJsonBooleans) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  RequestHandler handler(service, {});
  // "symmetry":true (a JSON boolean, not an integer) must be accepted and
  // must actually reduce the sweep: 4 orbit representatives instead of the
  // 13 ordered partitions of 3 processors.
  const std::string reduced = roundtrip(
      handler, R"js({"op":"check","procs":3,"rounds":1,"symmetry":true})js");
  EXPECT_NE(reduced.find("\"verdict\":\"OK\""), std::string::npos) << reduced;
  EXPECT_NE(reduced.find("\"schedules\":4"), std::string::npos) << reduced;
  const std::string off = roundtrip(
      handler, R"js({"op":"check","procs":3,"rounds":1,"symmetry":false})js");
  EXPECT_NE(off.find("\"schedules\":13"), std::string::npos) << off;
  // The pre-existing 0/1 integer spelling keeps working.
  const std::string legacy = roundtrip(
      handler, R"js({"op":"check","procs":3,"rounds":1,"symmetry":1})js");
  EXPECT_NE(legacy.find("\"schedules\":4"), std::string::npos) << legacy;
}

TEST(HandlerModel, CheckSdsFiltersRunsByModel) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  RequestHandler handler(service, {});
  // n=2, b=1: three runs wait-free; only the synchronous {0,1} block
  // survives t_resilient(0).
  const std::string all = roundtrip(
      handler, R"js({"op":"check","procs":2,"rounds":1})js");
  EXPECT_NE(all.find("\"schedules\":3"), std::string::npos) << all;
  const std::string sync = roundtrip(
      handler,
      R"js({"op":"check","procs":2,"rounds":1,"model":"t_resilient(0)"})js");
  EXPECT_NE(sync.find("\"verdict\":\"OK\""), std::string::npos) << sync;
  EXPECT_NE(sync.find("\"schedules\":1"), std::string::npos) << sync;
  EXPECT_NE(sync.find("\"model\":\"t_resilient(0)\""), std::string::npos)
      << sync;
}

TEST(HandlerModel, ConvergenceFallsBackToRestrictedSolve) {
  QueryService::Options options;
  options.workers = 1;
  QueryService service(options);
  RequestHandler handler(service, {});
  // Model-less convergence goes through the §5 compiler; with a model it
  // re-routes through the restricted Prop 3.1 solve.  Simplex agreement is
  // solvable either way -- what must hold is that the model variant still
  // answers ok and echoes its model.
  const std::string compiled = roundtrip(
      handler, R"js({"op":"convergence","procs":2,"depth":1})js");
  EXPECT_NE(compiled.find("\"verdict\":\"SOLVABLE\""), std::string::npos)
      << compiled;
  const std::string restricted = roundtrip(
      handler,
      R"js({"op":"convergence","procs":2,"depth":1,"model":"t_resilient(0)"})js");
  EXPECT_NE(restricted.find("\"verdict\":\"SOLVABLE\""), std::string::npos)
      << restricted;
  EXPECT_NE(restricted.find("\"model\":\"t_resilient(0)\""),
            std::string::npos)
      << restricted;
}

// ---------------------------------------------------------------------------
// Observability: a restricted tower is acquired -- and traced and timed --
// exactly like a full one.
// ---------------------------------------------------------------------------

std::size_t spans_of(QueryService& service, obs::SpanKind kind) {
  std::size_t n = 0;
  for (const obs::Span& s : service.observer().trace()->snapshot()) {
    n += s.kind == kind ? 1 : 0;
  }
  return n;
}

std::uint64_t chain_for_samples(QueryService& service) {
  return service.observer()
      .metrics()
      .histogram("wfc_chain_for_us", obs::latency_bounds_us())
      .count();
}

QueryService::Options traced_options() {
  QueryService::Options options;
  options.workers = 1;
  options.obs.enabled = true;
  return options;
}

TEST(ModelObs, RestrictedTowersRecordChainSpansAndTimings) {
  QueryService service(traced_options());
  RequestHandler handler(service, {});
  const std::string line =
      R"({"op":"solve","task":"set-consensus","procs":3,"k":2,)"
      R"js("max_level":1,"model":"t_resilient(1)")js";
  const std::string first = roundtrip(handler, line + "}");
  ASSERT_NE(first.find("\"level\":1"), std::string::npos) << first;
  // Levels 0 and 1 each acquire the full tower and the restricted one, and
  // every acquisition builds.
  EXPECT_EQ(spans_of(service, obs::SpanKind::kChainBuild), 4u);
  EXPECT_EQ(spans_of(service, obs::SpanKind::kCacheHit), 0u);
  EXPECT_EQ(chain_for_samples(service), 4u);

  // Another budget misses the result memo but finds all four towers.
  const std::string repeat = roundtrip(handler, line + R"(,"budget":1000000})");
  ASSERT_NE(repeat.find("\"cache_hit\":true"), std::string::npos) << repeat;
  EXPECT_EQ(spans_of(service, obs::SpanKind::kChainBuild), 4u);
  EXPECT_EQ(spans_of(service, obs::SpanKind::kCacheHit), 4u);
  EXPECT_EQ(chain_for_samples(service), 8u);
}

TEST(ModelObs, RestrictedConvergenceTimesItsTowers) {
  QueryService service(traced_options());
  RequestHandler handler(service, {});
  const std::string out = roundtrip(
      handler, R"({"op":"convergence","procs":2,"depth":1,"max_level":2,)"
               R"js("model":"t_resilient(0)"})js");
  ASSERT_NE(out.find("\"level\":1"), std::string::npos) << out;
  // The fallback is the solve runner: levels 0 and 1 each acquire, time
  // and trace a full and a restricted tower.
  EXPECT_EQ(chain_for_samples(service), 4u);
  EXPECT_EQ(spans_of(service, obs::SpanKind::kChainBuild), 4u);
}

// ---------------------------------------------------------------------------
// Result-memo separation: one task object, two models, two verdicts.
// ---------------------------------------------------------------------------

TEST(MemoSeparation, SameTaskUnderTwoModelsNeverSharesAVerdict) {
  QueryService::Options options;
  options.workers = 2;
  QueryService service(options);
  const auto task = std::make_shared<task::ConsensusTask>(2, 2);
  const auto sync = model::Model::parse("t_resilient(0)");
  QueryOptions qopts;
  qopts.max_level = 1;

  const QueryResult wf_first =
      service.submit(Query(SolveRequest{task, nullptr}, qopts)).result.get();
  const QueryResult sync_first =
      service.submit(Query(SolveRequest{task, sync}, qopts)).result.get();
  EXPECT_EQ(wf_first.solve.status, Solvability::kUnsolvable);
  EXPECT_EQ(sync_first.solve.status, Solvability::kSolvable);
  EXPECT_FALSE(wf_first.memoized);
  EXPECT_FALSE(sync_first.memoized);

  // Resubmissions hit the memo -- each under ITS OWN key.  A shared key
  // would replay whichever verdict was stored first for both.
  const QueryResult wf_again =
      service.submit(Query(SolveRequest{task, nullptr}, qopts)).result.get();
  const QueryResult sync_again =
      service.submit(Query(SolveRequest{task, sync}, qopts)).result.get();
  EXPECT_TRUE(wf_again.memoized);
  EXPECT_TRUE(sync_again.memoized);
  EXPECT_EQ(wf_again.solve.status, Solvability::kUnsolvable);
  EXPECT_EQ(sync_again.solve.status, Solvability::kSolvable);

  // An explicit wait_free model shares the model-less memo entry (tag 0).
  const auto wf = model::Model::parse("wait_free");
  const QueryResult wf_explicit =
      service.submit(Query(SolveRequest{task, wf}, qopts)).result.get();
  EXPECT_TRUE(wf_explicit.memoized);
  EXPECT_EQ(wf_explicit.solve.status, Solvability::kUnsolvable);
}

// ---------------------------------------------------------------------------
// SdsCache separation: restricted towers are distinct entries.
// ---------------------------------------------------------------------------

TEST(CacheSeparation, DerivedTowersGetTheirOwnEntries) {
  SdsCache cache;
  const topo::ChromaticComplex input = topo::base_simplex(2);
  const std::uint64_t base_fp = topo::complex_fingerprint(input);
  const auto sync = model::Model::parse("t_resilient(0)");
  const std::uint64_t key = model::mix_fingerprint(base_fp, sync->tag());
  ASSERT_NE(key, base_fp);

  const auto full = cache.chain_for(input, 1);
  ASSERT_NE(full, nullptr);

  bool built = false;
  const auto builder = [&](std::shared_ptr<const proto::SdsChain> prior,
                           int depth) {
    return model::restricted_tower(*full, depth, *sync, prior);
  };
  const auto derived = cache.acquire(key, sync->tag(), 1, builder, &built);
  ASSERT_NE(derived, nullptr);
  EXPECT_TRUE(built);
  EXPECT_EQ(cache.stats().entries, 2u);
  // The restriction really pruned: 1 synchronous facet of the 3 level-1
  // facets per base facet.
  EXPECT_LT(derived->arena(1).num_facets(), full->arena(1).num_facets());

  // Same key again: pure hit, no rebuild, same tower object.
  bool built_again = true;
  const auto again = cache.acquire(key, sync->tag(), 1, builder, &built_again);
  EXPECT_FALSE(built_again);
  EXPECT_EQ(again.get(), derived.get());
}

// ---------------------------------------------------------------------------
// ChainStore: v2 tag separation and v1 back-compat.
// ---------------------------------------------------------------------------

TEST(StoreModelTags, MismatchedTagIsAFallbackNeverAChain) {
  TempDir dir;
  store::ChainStore store({.dir = dir.path});
  ASSERT_TRUE(store.enabled());
  const proto::SdsChain chain(topo::base_simplex(2), 1);
  const std::uint64_t fp = 0x1234u;
  ASSERT_TRUE(store.publish(fp, chain, /*model_tag=*/77));

  EXPECT_NE(store.load(fp, 77), nullptr);
  // Wrong expectation (including "unrestricted"): fallback, not a chain.
  EXPECT_EQ(store.load(fp, 0), nullptr);
  EXPECT_EQ(store.load(fp, 78), nullptr);
  EXPECT_EQ(store.stats().fallbacks, 2u);

  // list() surfaces the recorded tag so warm() can satisfy the guard.
  const auto entries = store.list();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].model_tag, 77u);
}

TEST(StoreModelTags, PreModelV1FilesLoadAsWaitFree) {
  TempDir dir;
  const proto::SdsChain chain(topo::base_simplex(2), 1);
  const std::uint64_t fp = topo::complex_fingerprint(topo::base_simplex(2));
  std::string path;
  {
    store::ChainStore store({.dir = dir.path});
    ASSERT_TRUE(store.publish(fp, chain));
    path = store.file_path(fp);
  }
  // Rewrite the v2 file into the exact v1 layout a pre-model build wrote:
  // version 1, the 8-byte model_tag dropped from the header, table and
  // payload shifted up by 8.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), sizeof(store::ChainFileHeader));
  const std::uint32_t v1 = 1;
  bytes.replace(8, 4, reinterpret_cast<const char*>(&v1), 4);
  bytes.erase(store::kHeaderBytesV1, 8);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  store::ChainStore reopened({.dir = dir.path});
  const auto loaded = reopened.load(fp);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->depth(), 1);
  EXPECT_EQ(topo::complex_fingerprint(loaded->level(0)), fp);
  // A v1 file is by construction an unrestricted tower: serving it as
  // wait_free is correct and counts NO fallback.
  EXPECT_EQ(reopened.stats().fallbacks, 0u);
  // ...but it can never impersonate a restricted tower.
  EXPECT_EQ(reopened.load(fp, 99), nullptr);
  EXPECT_EQ(reopened.stats().fallbacks, 1u);
}

TEST(StoreModelTags, RestartServesRestrictedTowersWithoutRebuilding) {
  TempDir dir;
  const topo::ChromaticComplex input = topo::base_simplex(2);
  const std::uint64_t base_fp = topo::complex_fingerprint(input);
  const auto sync = model::Model::parse("t_resilient(0)");
  const std::uint64_t key = model::mix_fingerprint(base_fp, sync->tag());

  SdsCache::Options opts;
  opts.store.dir = dir.path;
  std::uint64_t derived_facets = 0;
  {
    SdsCache cache(opts);
    const auto full = cache.chain_for(input, 1);
    bool built = false;
    const auto derived = cache.acquire(
        key, sync->tag(), 1,
        [&](std::shared_ptr<const proto::SdsChain> prior, int depth) {
          return model::restricted_tower(*full, depth, *sync, prior);
        },
        &built);
    ASSERT_TRUE(built);
    derived_facets = derived->arena(1).num_facets();
  }
  // Fresh process: the derived tower comes back from disk -- the builder
  // must never run (it aborts the test if it does).
  SdsCache cache(opts);
  bool built = true;
  const auto derived = cache.acquire(
      key, sync->tag(), 1,
      [](std::shared_ptr<const proto::SdsChain>, int)
          -> std::shared_ptr<const proto::SdsChain> {
        ADD_FAILURE() << "restricted tower rebuilt despite a warm store";
        return nullptr;
      },
      &built);
  ASSERT_NE(derived, nullptr);
  EXPECT_FALSE(built);
  EXPECT_EQ(derived->arena(1).num_facets(), derived_facets);
  EXPECT_GE(cache.stats().store_hits, 1u);
}

}  // namespace
}  // namespace wfc::svc
