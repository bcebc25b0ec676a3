// Wire golden: every line RequestHandler::render and svc::error_record
// produce, pinned byte for byte.
//
// The cases cover each verdict (SOLVABLE / UNSOLVABLE / UNKNOWN) with and
// without a model echo, check OK and VIOLATION (a violation holding quotes
// and a newline), emulate, every non-ok status with and without a
// retry_after_ms hint, the degraded flag, the legacy envelope, the metrics
// control line, and ids holding '"', '\\', every control byte 0x01-0x1f
// and UTF-8.  Each response meta comes from a real parsed request (the
// handler builds it); each result is crafted, so the bytes do not depend on
// timing.  The pinned lines were dumped from the implementation before the
// request reader and the writer were rewritten.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/handler.hpp"
#include "service/jsonl.hpp"
#include "service/query_service.hpp"

namespace wfc::svc {
namespace {

/// An id with every byte a JSON string must escape or may carry raw: the
/// quote and backslash (escaped on the request line), each control byte
/// 0x01-0x1f (raw on the request line) and a multi-byte UTF-8 sequence.
std::string hostile_id_raw() {
  std::string id = "q\"b\\s";
  for (char c = 0x01; c < 0x20; ++c) id.push_back(c);
  id += "\xc3\xa9\xe2\x82\xac";  // U+00E9 U+20AC
  return id;
}

/// The same id as request-line text: quote and backslash escaped, the
/// control bytes raw (the reader accepts them inside strings).
std::string hostile_id_wire() {
  std::string id = "q\\\"b\\\\s";
  for (char c = 0x01; c < 0x20; ++c) id.push_back(c);
  id += "\xc3\xa9\xe2\x82\xac";
  return id;
}

QueryService::Options service_options() {
  QueryService::Options options;
  options.workers = 1;
  options.obs.enabled = true;
  return options;
}

/// The meta the handler builds for `line` (the query runs and is waited
/// out; only the meta is kept).
RequestHandler::ResponseMeta meta_for(RequestHandler& handler,
                                      const std::string& line) {
  RequestHandler::ParsedLine parsed = handler.parse(line, 1);
  EXPECT_EQ(parsed.action, RequestHandler::Action::kSubmit) << line;
  RequestHandler::Rendered error;
  auto submitted = handler.submit(parsed, &error);
  EXPECT_TRUE(submitted.has_value()) << error.line;
  submitted->ticket.result.wait();
  return std::move(submitted->meta);
}

QueryResult verdict(task::Solvability status, int level,
                    std::uint64_t nodes, bool cache_hit,
                    std::uint64_t micros) {
  QueryResult r;
  r.solve.status = status;
  r.solve.level = level;
  r.solve.nodes_explored = nodes;
  r.cache_hit = cache_hit;
  r.micros = micros;
  return r;
}

/// Every pinned line, in a fixed order.
std::vector<std::string> wire_lines() {
  std::vector<std::string> out;
  QueryService service(service_options());
  HandlerConfig config;
  RequestHandler handler(service, config);
  HandlerConfig legacy_config;
  legacy_config.legacy_envelope = true;
  RequestHandler legacy(service, legacy_config);

  const std::string solve =
      R"({"id":"s1","op":"solve","task":"consensus","procs":2,"values":2,)"
      R"("max_level":1})";
  const std::string model =
      R"j({"id":"m1","op":"solve","task":"set-consensus","procs":3,"k":2,)j"
      R"j("max_level":1,"model":"t_resilient(1)"})j";
  const std::string check =
      R"({"id":"c1","op":"check","target":"sds","procs":2,"rounds":1})";
  const std::string emulate = R"({"id":"e1","op":"emulate","procs":2})";
  const std::string hostile = "{\"id\":\"" + hostile_id_wire() +
                              "\",\"op\":\"solve\",\"task\":\"identity\","
                              "\"procs\":2,\"max_level\":1}";

  // Metrics first, while the books hold exactly one finished query.
  const RequestHandler::ResponseMeta solve_meta = meta_for(handler, solve);
  out.push_back(
      handler.control(handler.parse(R"({"id":"mx","op":"metrics"})", 9))
          .line);
  const RequestHandler::ResponseMeta model_meta = meta_for(handler, model);
  const RequestHandler::ResponseMeta check_meta = meta_for(handler, check);
  const RequestHandler::ResponseMeta emulate_meta = meta_for(handler, emulate);
  const RequestHandler::ResponseMeta hostile_meta = meta_for(handler, hostile);
  const RequestHandler::ResponseMeta legacy_meta = meta_for(legacy, solve);
  const RequestHandler::ResponseMeta legacy_check = meta_for(legacy, check);
  const RequestHandler::ResponseMeta legacy_emulate =
      meta_for(legacy, emulate);

  using task::Solvability;
  // Verdicts, with and without the model echo.
  for (const auto* meta : {&solve_meta, &model_meta, &hostile_meta}) {
    out.push_back(handler.render(*meta, verdict(Solvability::kSolvable, 1,
                                                17, false, 1234))
                      .line);
    out.push_back(handler.render(*meta, verdict(Solvability::kUnsolvable, -1,
                                                305, true, 7))
                      .line);
    out.push_back(handler.render(*meta, verdict(Solvability::kUnknown, -1,
                                                18446744073709551615ull,
                                                false, 0))
                      .line);
  }
  // A solvable verdict at level 0 and a degraded unknown.
  out.push_back(
      handler.render(solve_meta, verdict(Solvability::kSolvable, 0, 0, true,
                                         3))
          .line);
  QueryResult degraded = verdict(Solvability::kUnknown, -1, 4096, false, 99);
  degraded.degraded = true;
  out.push_back(handler.render(solve_meta, degraded).line);

  // Checks: OK, and a VIOLATION whose text holds quotes and a newline.
  QueryResult ok_check;
  ok_check.is_check = true;
  ok_check.check_ok = true;
  ok_check.check_schedules = 313;
  ok_check.check_histories = 42;
  ok_check.check_max_depth = 3;
  ok_check.micros = 5150;
  out.push_back(handler.render(check_meta, ok_check).line);
  QueryResult bad_check = ok_check;
  bad_check.check_ok = false;
  bad_check.check_violation =
      "view \"{0,1}\" of p1 is not a simplex\n  at round 2\t(tab) \\ end";
  out.push_back(handler.render(check_meta, bad_check).line);

  // Emulate.
  QueryResult emu;
  emu.emu_rounds = 4;
  emu.emu_steps = {3, 5, 8};
  emu.micros = 61;
  out.push_back(handler.render(emulate_meta, emu).line);

  // Every non-ok status, with and without a retry hint, for a solve, a
  // model solve, a check and the hostile id.
  for (int s = 1; s < kNumStatuses; ++s) {
    for (const std::uint32_t retry : {0u, 250u}) {
      QueryResult r;
      r.status = static_cast<Status>(s);
      r.retry_after_ms = retry;
      r.micros = 11;
      out.push_back(handler.render(solve_meta, r).line);
      r.error = "why \"it\" failed\nsecond line";
      out.push_back(handler.render(model_meta, r).line);
      out.push_back(handler.render(check_meta, r).line);
      r.degraded = true;
      out.push_back(handler.render(hostile_meta, r).line);
    }
  }

  // The legacy envelope: verdict in "status"; non-ok statuses unchanged.
  out.push_back(legacy.render(legacy_meta, verdict(Solvability::kSolvable, 2,
                                                   21, true, 8))
                    .line);
  out.push_back(legacy.render(legacy_meta, verdict(Solvability::kUnsolvable,
                                                   -1, 5, false, 9))
                    .line);
  out.push_back(legacy.render(legacy_check, bad_check).line);
  out.push_back(legacy.render(legacy_emulate, emu).line);
  QueryResult shed;
  shed.status = Status::kOverloaded;
  shed.retry_after_ms = 50;
  shed.error = "admission queue full";
  out.push_back(legacy.render(legacy_meta, shed).line);

  // Error records: with and without an id, each status, with and without
  // a retry hint, and the hostile id.
  for (int s = 0; s < kNumStatuses; ++s) {
    out.push_back(error_record("", 3, static_cast<Status>(s),
                               "missing field \"op\""));
    out.push_back(error_record("e7", 12, static_cast<Status>(s),
                               "bad\nline", 75));
  }
  out.push_back(error_record(hostile_id_raw(), 2147483647,
                             Status::kInvalidArgument,
                             "id \"" + hostile_id_raw() + "\""));
  out.push_back(handler.parse("{\"op\":\"nope\",\"id\":\"" +
                                  hostile_id_wire() + "\"}",
                              4)
                    .immediate.line);
  out.push_back(handler.parse(R"({"id":"x"})", 5).immediate.line);
  out.push_back(handler.parse(R"({"id":"x",)", 6).immediate.line);
  return out;
}

/// The hostile id as every golden line writes it; %ID% in a pinned line
/// stands for it.
constexpr std::string_view kHostileJson =
    R"wire(q\"b\\s\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b)wire"
    R"wire(\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016)wire"
    R"wire(\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)wire"
    "\xc3\xa9\xe2\x82\xac";

// clang-format off
constexpr std::string_view kGolden[] = {
    R"wire({"id":"mx","op":"metrics","status":"ok","submitted":1,"ok":1,"cancelled":0,"deadline_exceeded":0,"overloaded":0,"resource_exhausted":0,"invalid_argument":0,"internal":0,"terminal":1,"memo_hits":0,"stats_submitted":1,"reconciles":true})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"ok","verdict":"SOLVABLE","level":1,"nodes":17,"cache_hit":false,"micros":1234})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"ok","verdict":"UNSOLVABLE","nodes":305,"cache_hit":true,"micros":7})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"ok","verdict":"UNKNOWN","nodes":18446744073709551615,"cache_hit":false,"micros":0})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"ok","verdict":"SOLVABLE","level":1,"nodes":17,"cache_hit":false,"micros":1234})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"ok","verdict":"UNSOLVABLE","nodes":305,"cache_hit":true,"micros":7})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"ok","verdict":"UNKNOWN","nodes":18446744073709551615,"cache_hit":false,"micros":0})wire",
    R"wire({"id":"%ID%","task":"identity","status":"ok","verdict":"SOLVABLE","level":1,"nodes":17,"cache_hit":false,"micros":1234})wire",
    R"wire({"id":"%ID%","task":"identity","status":"ok","verdict":"UNSOLVABLE","nodes":305,"cache_hit":true,"micros":7})wire",
    R"wire({"id":"%ID%","task":"identity","status":"ok","verdict":"UNKNOWN","nodes":18446744073709551615,"cache_hit":false,"micros":0})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"ok","verdict":"SOLVABLE","level":0,"nodes":0,"cache_hit":true,"micros":3})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"ok","verdict":"UNKNOWN","nodes":4096,"cache_hit":false,"degraded":true,"micros":99})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"ok","verdict":"OK","schedules":313,"histories":42,"max_depth":3,"micros":5150})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"ok","verdict":"VIOLATION","schedules":313,"histories":42,"max_depth":3,"violation":"view \"{0,1}\" of p1 is not a simplex\n  at round 2\t(tab) \\ end","micros":5150})wire",
    R"wire({"id":"e1","task":"emulate(procs=2,shots=1)","status":"ok","verdict":"OK","rounds":4,"iis_steps":16,"micros":61})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"cancelled","micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"cancelled","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"cancelled","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"cancelled","error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"cancelled","retry_after_ms":250,"micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"cancelled","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"cancelled","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"cancelled","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"deadline_exceeded","micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"deadline_exceeded","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"deadline_exceeded","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"deadline_exceeded","error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"deadline_exceeded","retry_after_ms":250,"micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"deadline_exceeded","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"deadline_exceeded","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"deadline_exceeded","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"overloaded","micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"overloaded","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"overloaded","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"overloaded","error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"overloaded","retry_after_ms":250,"micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"overloaded","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"overloaded","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"overloaded","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"resource_exhausted","micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"resource_exhausted","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"resource_exhausted","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"resource_exhausted","error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"resource_exhausted","retry_after_ms":250,"micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"resource_exhausted","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"resource_exhausted","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"resource_exhausted","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"invalid_argument","micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"invalid_argument","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"invalid_argument","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"invalid_argument","error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"invalid_argument","retry_after_ms":250,"micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"invalid_argument","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"invalid_argument","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"invalid_argument","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"internal","micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"internal","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"internal","error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"internal","error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"internal","retry_after_ms":250,"micros":11})wire",
    R"wire({"id":"m1","task":"set-consensus(n=3,k=2)","model":"t_resilient(1)","status":"internal","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"internal","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","micros":11})wire",
    R"wire({"id":"%ID%","task":"identity","status":"internal","retry_after_ms":250,"error":"why \"it\" failed\nsecond line","degraded":true,"micros":11})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"SOLVABLE","level":2,"nodes":21,"cache_hit":true,"micros":8})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"UNSOLVABLE","nodes":5,"cache_hit":false,"micros":9})wire",
    R"wire({"id":"c1","task":"check(sds,procs=2,rounds=1,crashes=0)","status":"VIOLATION","schedules":313,"histories":42,"max_depth":3,"violation":"view \"{0,1}\" of p1 is not a simplex\n  at round 2\t(tab) \\ end","micros":5150})wire",
    R"wire({"id":"e1","task":"emulate(procs=2,shots=1)","status":"OK","rounds":4,"iis_steps":16,"micros":61})wire",
    R"wire({"id":"s1","task":"consensus(n=2,m=2)","status":"overloaded","retry_after_ms":50,"error":"admission queue full","micros":0})wire",
    R"wire({"status":"ok","line":3,"error":"missing field \"op\""})wire",
    R"wire({"id":"e7","status":"ok","line":12,"error":"bad\nline","retry_after_ms":75})wire",
    R"wire({"status":"cancelled","line":3,"error":"missing field \"op\""})wire",
    R"wire({"id":"e7","status":"cancelled","line":12,"error":"bad\nline","retry_after_ms":75})wire",
    R"wire({"status":"deadline_exceeded","line":3,"error":"missing field \"op\""})wire",
    R"wire({"id":"e7","status":"deadline_exceeded","line":12,"error":"bad\nline","retry_after_ms":75})wire",
    R"wire({"status":"overloaded","line":3,"error":"missing field \"op\""})wire",
    R"wire({"id":"e7","status":"overloaded","line":12,"error":"bad\nline","retry_after_ms":75})wire",
    R"wire({"status":"resource_exhausted","line":3,"error":"missing field \"op\""})wire",
    R"wire({"id":"e7","status":"resource_exhausted","line":12,"error":"bad\nline","retry_after_ms":75})wire",
    R"wire({"status":"invalid_argument","line":3,"error":"missing field \"op\""})wire",
    R"wire({"id":"e7","status":"invalid_argument","line":12,"error":"bad\nline","retry_after_ms":75})wire",
    R"wire({"status":"internal","line":3,"error":"missing field \"op\""})wire",
    R"wire({"id":"e7","status":"internal","line":12,"error":"bad\nline","retry_after_ms":75})wire",
    R"wire({"id":"%ID%","status":"invalid_argument","line":2147483647,"error":"id \"%ID%\""})wire",
    R"wire({"id":"%ID%","op":"nope","status":"invalid_argument","line":4,"error":"unknown op \"nope\""})wire",
    R"wire({"id":"x","status":"invalid_argument","line":5,"error":"missing field \"op\""})wire",
    R"wire({"status":"invalid_argument","line":6,"error":"parse_flat_json: expected key in: {\"id\":\"x\","})wire",
};
// clang-format on

std::string expand(std::string_view pinned) {
  std::string out(pinned);
  for (std::size_t at; (at = out.find("%ID%")) != std::string::npos;) {
    out.replace(at, 4, kHostileJson);
  }
  return out;
}

TEST(WireGolden, RenderedAndErrorLinesAreByteIdentical) {
  const std::vector<std::string> lines = wire_lines();
  ASSERT_EQ(lines.size(), std::size(kGolden));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], expand(kGolden[i])) << "golden line " << i;
  }
}

}  // namespace
}  // namespace wfc::svc
