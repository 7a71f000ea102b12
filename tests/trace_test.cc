#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "kb/relational_model.h"
#include "obs/histogram.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "runtime/process_runtime.h"
#include "runtime/wire.h"
#include "serve/metrics_endpoint.h"
#include "serve/query_server.h"
#include "tests/test_util.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {
namespace {

bool IsWorker(const SpanRecord& record) {
  return std::strcmp(record.category, "worker") == 0;
}

// --- Deterministic identity ----------------------------------------------------

TEST(TracerTest, SpanIdsAreSeededAndDeterministic) {
  Tracer a(/*seed=*/42);
  Tracer b(/*seed=*/42);
  a.set_enabled(true);
  b.set_enabled(true);
  for (Tracer* t : {&a, &b}) {
    TraceSpan root(t, "root", "test", 1);
    TraceSpan child(t, "child", "test", 2);
  }
  EXPECT_EQ(a.CanonicalText(), b.CanonicalText());
  EXPECT_FALSE(a.CanonicalText().empty());

  // A different seed produces a different identity universe.
  Tracer c(/*seed=*/43);
  c.set_enabled(true);
  {
    TraceSpan root(&c, "root", "test", 1);
    TraceSpan child(&c, "child", "test", 2);
  }
  EXPECT_NE(a.CanonicalText(), c.CanonicalText());
}

TEST(TracerTest, NestingParentLinksAndFreshTracePerRoot) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan root(&tracer, "root", "test");
    TraceSpan child(&tracer, "child", "test");
    EXPECT_EQ(child.trace_id(), root.trace_id());
  }
  {
    TraceSpan root2(&tracer, "root2", "test");
    (void)root2;
  }
  const std::vector<SpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 3u);
  // Children close before parents: child, root, root2.
  EXPECT_STREQ(spans[0].name, "child");
  EXPECT_STREQ(spans[1].name, "root");
  EXPECT_STREQ(spans[2].name, "root2");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_NE(spans[2].trace_id, spans[1].trace_id);
}

TEST(TracerTest, DisabledTracerEmitsNothingAndSpansAreInactive) {
  Tracer tracer;
  {
    TraceSpan span(&tracer, "ghost", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.trace_id(), 0u);
  }
  EXPECT_TRUE(tracer.CollectSpans().empty());
}

TEST(TracerTest, WorkerSpanIdentityIsDerivedFromWorkCoordinates) {
  Tracer tracer;
  tracer.set_enabled(true);
  // The same (trace, parent, motion, segment, kind) — e.g. a respawned
  // worker re-handling an exchange — must reproduce the same span id and
  // collapse to one record.
  tracer.RecordWorkerSpan(7, 9, /*motion=*/3, /*segment=*/1, "exchange",
                          100, Tracer::NowUs(), 5);
  tracer.RecordWorkerSpan(7, 9, /*motion=*/3, /*segment=*/1, "exchange",
                          100, Tracer::NowUs(), 6);
  tracer.RecordWorkerSpan(7, 9, /*motion=*/4, /*segment=*/1, "exchange",
                          100, Tracer::NowUs(), 5);
  const std::vector<SpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].span_id, spans[1].span_id);
  // Untraced frames (heartbeats ride trace 0) never become spans.
  tracer.RecordWorkerSpan(0, 0, 1, 0, "ping", 0, Tracer::NowUs(), 1);
  EXPECT_EQ(tracer.CollectSpans().size(), 2u);
}

// --- Byte-identity across thread counts and runtimes ---------------------------

std::string GroundAndDumpCanonical(int num_threads, bool use_process) {
  Tracer* tracer = Tracer::Global();
  tracer->Reset();
  tracer->set_enabled(true);
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions grounding;
  grounding.num_threads = num_threads;
  MppGrounder mpp(rkb, /*segments=*/2, MppMode::kViews, grounding);
  std::unique_ptr<ProcessRuntime> runtime;
  if (use_process) {
    ProcessRuntimeOptions options;
    options.num_segments = 2;
    options.frame_deadline_seconds = 10.0;
    runtime = std::make_unique<ProcessRuntime>(options);
    EXPECT_TRUE(runtime->Spawn().ok());
    mpp.AttachRuntime(runtime.get());
  }
  EXPECT_TRUE(mpp.GroundAtoms().ok());
  if (runtime != nullptr) runtime->Shutdown();
  std::string canonical = tracer->CanonicalText();
  tracer->set_enabled(false);
  return canonical;
}

TEST(TraceDeterminismTest, CanonicalDumpIsByteIdenticalAcrossThreadCounts) {
  const std::string base = GroundAndDumpCanonical(1, false);
  ASSERT_FALSE(base.empty());
  EXPECT_NE(base.find("iteration"), std::string::npos);
  // One statement span per M_p, payloads included in the identity check.
  EXPECT_NE(base.find("iter1/M1"), std::string::npos) << base;
  EXPECT_NE(base.find("cat=statement"), std::string::npos) << base;
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(GroundAndDumpCanonical(threads, false), base)
        << "canonical trace diverged at " << threads << " threads";
  }
}

TEST(TraceDeterminismTest, CanonicalDumpIsByteIdenticalSimVsProcess) {
  const std::string sim = GroundAndDumpCanonical(2, false);

  Tracer* tracer = Tracer::Global();
  tracer->Reset();
  tracer->set_enabled(true);
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions grounding;
  grounding.num_threads = 2;
  MppGrounder mpp(rkb, /*segments=*/2, MppMode::kViews, grounding);
  ProcessRuntimeOptions options;
  options.num_segments = 2;
  options.frame_deadline_seconds = 10.0;
  ProcessRuntime runtime(options);
  ASSERT_TRUE(runtime.Spawn().ok());
  mpp.AttachRuntime(&runtime);
  ASSERT_TRUE(mpp.GroundAtoms().ok());
  runtime.Shutdown();

  // The canonical (deterministic-fields-only) dump matches the simulator
  // byte for byte; the full span set additionally carries worker spans
  // stitched under supervisor ship spans.
  EXPECT_EQ(tracer->CanonicalText(), sim);
  const std::vector<SpanRecord> spans = tracer->CollectSpans();
  int workers = 0;
  int orphans = 0;
  for (const SpanRecord& record : spans) {
    if (!IsWorker(record)) continue;
    ++workers;
    EXPECT_NE(record.trace_id, 0u);
    bool parent_found = false;
    for (const SpanRecord& other : spans) {
      if (!IsWorker(other) && other.span_id == record.parent_id &&
          other.trace_id == record.trace_id) {
        parent_found = true;
        // Stitching clamps the worker interval into the parent's.
        EXPECT_GE(record.start_us, other.start_us);
        EXPECT_LE(record.start_us + record.dur_us,
                  other.start_us + other.dur_us);
        break;
      }
    }
    if (!parent_found) ++orphans;
  }
  EXPECT_GT(workers, 0) << "process run produced no worker spans";
  EXPECT_EQ(orphans, 0);
  tracer->set_enabled(false);
}

// --- One timeline: iteration -> statement -> operator -----------------------

/// Single-node grounding with a stats registry attached and the global
/// tracer on; returns the spans and fills `registry`.
std::vector<SpanRecord> GroundSingleNodeTraced(int num_threads,
                                               StatsRegistry* registry) {
  Tracer* tracer = Tracer::Global();
  tracer->Reset();
  tracer->set_enabled(true);
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  GroundingOptions grounding;
  grounding.num_threads = num_threads;
  Grounder grounder(&rkb, grounding);
  grounder.set_stats_registry(registry);
  EXPECT_TRUE(grounder.GroundAtoms().ok());
  EXPECT_TRUE(grounder.GroundFactors().ok());
  tracer->set_enabled(false);
  return tracer->CollectSpans();
}

TEST(UnifiedTimelineTest, StatementsNestUnderIterationsWithTheirOperators) {
  StatsRegistry registry;
  const std::vector<SpanRecord> spans = GroundSingleNodeTraced(1, &registry);
  ASSERT_FALSE(registry.statements().empty());
  auto by_id = [&](uint64_t id) -> const SpanRecord* {
    for (const SpanRecord& record : spans) {
      if (record.span_id == id) return &record;
    }
    return nullptr;
  };
  for (const StatementTrace& st : registry.statements()) {
    SCOPED_TRACE(st.scope);
    const SpanRecord* statement = nullptr;
    for (const SpanRecord& record : spans) {
      if (st.scope == record.name) statement = &record;
    }
    ASSERT_NE(statement, nullptr);
    EXPECT_STREQ(statement->category, "statement");
    const SpanRecord* parent = by_id(statement->parent_id);
    ASSERT_NE(parent, nullptr);
    int iteration = 0;
    if (std::sscanf(st.scope.c_str(), "iter%d/", &iteration) == 1) {
      EXPECT_STREQ(parent->name, "iteration");
      EXPECT_EQ(parent->a, iteration);
    } else {
      EXPECT_STREQ(parent->name, "ground_factors");
    }
    // The operator children, in close order, are the registry's post-order
    // records: same labels, same output rows.
    std::vector<const SpanRecord*> ops;
    for (const SpanRecord& record : spans) {
      if (record.parent_id == statement->span_id) ops.push_back(&record);
    }
    ASSERT_EQ(ops.size(), st.ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_STREQ(ops[i]->category, "operator");
      EXPECT_EQ(ops[i]->name, st.ops[i].label.substr(0, 31));
      EXPECT_EQ(ops[i]->b, st.ops[i].rows_out);
      EXPECT_GE(ops[i]->start_us, statement->start_us);
      EXPECT_LE(ops[i]->start_us + ops[i]->dur_us,
                statement->start_us + statement->dur_us);
    }
  }
}

TEST(UnifiedTimelineTest, OperatorSpansAreByteIdenticalAcrossThreadCounts) {
  StatsRegistry serial_registry;
  GroundSingleNodeTraced(1, &serial_registry);
  const std::string base = Tracer::Global()->CanonicalText();
  EXPECT_NE(base.find("cat=operator"), std::string::npos) << base;
  for (int threads : {2, 4, 8}) {
    StatsRegistry registry;
    GroundSingleNodeTraced(threads, &registry);
    EXPECT_EQ(Tracer::Global()->CanonicalText(), base)
        << "canonical trace diverged at " << threads << " threads";
  }
}

TEST(UnifiedTimelineTest, QuotedScopeSurvivesIntoJsonlAndChrome) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    TraceSpan span(&tracer, "scope \"x\"", "statement");
  }
  for (const std::string& dump :
       {tracer.DumpJsonl(), tracer.DumpChromeJson()}) {
    EXPECT_NE(dump.find("\"scope \\\"x\\\"\""), std::string::npos)
        << dump;
    EXPECT_EQ(dump.find("\"scope \"x\"\""), std::string::npos) << dump;
  }
}

// --- Chaos: exactly-once worker spans across kill + respawn --------------------

TEST(TraceChaosTest, RespawnedWorkerSpansAppearExactlyOnce) {
  Tracer* tracer = Tracer::Global();
  tracer->Reset();
  tracer->set_enabled(true);

  ProcessRuntimeOptions options;
  options.num_segments = 2;
  options.frame_deadline_seconds = 10.0;
  ProcessRuntime runtime(options);
  ASSERT_TRUE(runtime.Spawn().ok());

  auto t = Table::Make(Schema({{"k", ColumnType::kInt64}}));
  for (int i = 0; i < 16; ++i) t->AppendRow({Value::Int64(i)});

  {
    TraceSpan root(tracer, "chaos_root", "test");
    ASSERT_TRUE(runtime.Exchange(1, /*motion=*/0, *t, "warmup").ok());
    runtime.KillWorker(1);
    // Detected on the next exchange; the retry re-handles motion 1 in the
    // respawned worker — same derived span id, deduplicated at collect.
    ASSERT_TRUE(runtime.Exchange(1, /*motion=*/1, *t, "after_kill").ok());
  }
  EXPECT_EQ(runtime.stats().respawns, 1);
  runtime.Shutdown();

  const std::vector<SpanRecord> spans = tracer->CollectSpans();
  int motion0 = 0;
  int motion1 = 0;
  for (const SpanRecord& record : spans) {
    if (!IsWorker(record)) continue;
    EXPECT_STREQ(record.name, "exchange");
    if (record.a == 0 && record.b == 1) ++motion0;
    if (record.a == 1 && record.b == 1) ++motion1;
  }
  EXPECT_EQ(motion0, 1) << "pre-kill exchange span duplicated or lost";
  EXPECT_EQ(motion1, 1) << "retried exchange span duplicated or lost";
  // Every (trace, span) pair is unique in the stitched output.
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = i + 1; j < spans.size(); ++j) {
      EXPECT_FALSE(spans[i].trace_id == spans[j].trace_id &&
                   spans[i].span_id == spans[j].span_id)
          << "duplicate span id in stitched tree";
    }
  }
  tracer->set_enabled(false);
}

// --- Serve instrumentation -----------------------------------------------------

TEST(ServeTraceTest, QuerySpansNestAndExemplarLinksTailLatency) {
  Tracer* tracer = Tracer::Global();
  tracer->Reset();
  tracer->set_enabled(true);

  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  QueryServer server(&kb, rkb.next_fact_id, ServeOptions{});
  ASSERT_TRUE(server.PublishEpoch(rkb).ok());
  ASSERT_TRUE(server.Answer("born_in(Ruth Gruber, *)").ok());
  tracer->set_enabled(false);

  const std::vector<SpanRecord> spans = tracer->CollectSpans();
  auto find = [&](const char* name) -> const SpanRecord* {
    for (const SpanRecord& record : spans) {
      if (std::strcmp(record.name, name) == 0) return &record;
    }
    return nullptr;
  };
  const SpanRecord* serve = find("serve");
  const SpanRecord* query = find("serve_query");
  const SpanRecord* ground = find("local_ground");
  const SpanRecord* infer = find("infer");
  ASSERT_NE(serve, nullptr);
  ASSERT_NE(query, nullptr);
  ASSERT_NE(ground, nullptr);
  ASSERT_NE(infer, nullptr);
  EXPECT_NE(find("parse"), nullptr);
  EXPECT_NE(find("snapshot_pin"), nullptr);
  EXPECT_NE(find("epoch_index"), nullptr);
  EXPECT_EQ(query->parent_id, serve->span_id);
  EXPECT_EQ(ground->parent_id, query->span_id);
  EXPECT_EQ(infer->parent_id, query->span_id);
  EXPECT_GT(ground->a, 0);  // grounded atoms

  // The tail bucket of the serve_query histogram carries the trace id of
  // the (only) traced query.
  const std::string stats = server.StatsText();
  const std::string hex = StrFormat(
      "%016llx", static_cast<unsigned long long>(query->trace_id));
  EXPECT_NE(stats.find("trace=" + hex), std::string::npos) << stats;
  EXPECT_NE(server.PrometheusText().find("trace_id=\"" + hex + "\""),
            std::string::npos);
}

// --- Metrics endpoint ----------------------------------------------------------

TEST(MetricsEndpointTest, ServesPrometheusSnapshotsOverWireFrames) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  QueryServer server(&kb, rkb.next_fact_id, ServeOptions{});
  ASSERT_TRUE(server.PublishEpoch(rkb).ok());
  ASSERT_TRUE(server.Answer("born_in(Ruth Gruber, *)").ok());

  const std::string path =
      testing::TempDir() + "/probkb_metrics_test.sock";
  MetricsEndpoint endpoint(&server, path);
  ASSERT_TRUE(endpoint.Start().ok());

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  for (int poll = 0; poll < 2; ++poll) {
    ASSERT_TRUE(wire::WriteFrame(fd, wire::FrameType::kMetricsRequest, -1,
                                 std::string_view())
                    .ok());
    auto reply = wire::ReadFrame(fd, 10.0);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, wire::FrameType::kMetricsReply);
    EXPECT_NE(reply->payload.find("probkb_serve_queries_total 1"),
              std::string::npos)
        << reply->payload;
    EXPECT_NE(reply->payload.find(
                  "probkb_latency_seconds{series=\"serve_query\""),
              std::string::npos);
    EXPECT_NE(reply->payload.find("probkb_serve_epoch 0"),
              std::string::npos);
  }
  ::close(fd);
  EXPECT_GE(endpoint.polls_served(), 2);
  endpoint.Stop();
  // The socket file is gone; a second Stop() is harmless.
  EXPECT_NE(access(path.c_str(), F_OK), 0);
  endpoint.Stop();
}

// --- Satellite: monotonic timers -----------------------------------------------

TEST(TimerTest, BackwardsClockStepClampsToZero) {
  Timer timer;
  Timer::SetSkewForTest(-60 * 1000 * 1000);  // clock steps back a minute
  EXPECT_EQ(timer.Seconds(), 0.0);
  EXPECT_EQ(timer.Millis(), 0.0);
  Timer::SetSkewForTest(0);
  EXPECT_GE(timer.Seconds(), 0.0);
}

TEST(TimerTest, ForwardSkewStillMeasures) {
  Timer timer;
  Timer::SetSkewForTest(5 * 1000 * 1000);
  EXPECT_GE(timer.Seconds(), 4.9);
  Timer::SetSkewForTest(0);
}

// --- Satellite: histogram exemplars --------------------------------------------

TEST(HistogramExemplarTest, TailExemplarTracksHighestTracedBucket) {
  LatencyHistogram h;
  h.Record(0.001, 111);
  h.Record(0.5, 222);
  h.Record(0.002, 333);
  EXPECT_EQ(h.tail_exemplar(), 222u);
  // Latest traced recording in the same bucket wins.
  h.Record(0.5, 444);
  EXPECT_EQ(h.tail_exemplar(), 444u);
  // Untraced recordings never disturb the exemplars.
  h.Record(2.0, 0);
  EXPECT_EQ(h.tail_exemplar(), 444u);
}

TEST(HistogramExemplarTest, EvictionKeepsHighestBucketsSortedAscending) {
  LatencyHistogram h;
  for (int i = 0; i < 8; ++i) {
    h.Record(0.0001 * static_cast<double>(1 << i),
             static_cast<uint64_t>(100 + i));
  }
  ASSERT_LE(h.exemplars().size(),
            static_cast<size_t>(LatencyHistogram::kMaxExemplars));
  EXPECT_EQ(h.tail_exemplar(), 107u);
  for (size_t i = 1; i < h.exemplars().size(); ++i) {
    EXPECT_LT(h.exemplars()[i - 1].bucket, h.exemplars()[i].bucket);
  }
}

// --- Satellite: plaintext percentiles + Prometheus rendering -------------------

TEST(StatsRenderingTest, PlaintextStatsListPercentilesForEverySeries) {
  StatsRegistry registry;
  registry.RecordLatency("alpha", 0.001);
  registry.RecordLatency("beta", 0.010, 0xabcd);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("latency histograms:"), std::string::npos);
  for (const char* column : {"p50_ms", "p95_ms", "p99_ms", "max_ms"}) {
    EXPECT_NE(text.find(column), std::string::npos) << column;
  }
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("trace=000000000000abcd"), std::string::npos);
}

TEST(StatsRenderingTest, PrometheusTextCoversCountersQuantilesExemplars) {
  StatsRegistry registry;
  registry.IncrementCounter("serve queries", 2);  // name gets sanitized
  registry.RecordLatency("serve_query", 0.002, 0x1234);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE probkb_serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("probkb_serve_queries_total 2"), std::string::npos);
  for (const char* q : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(
        prom.find(StrFormat(
            "probkb_latency_seconds{series=\"serve_query\",quantile=\"%s\"}",
            q)),
        std::string::npos)
        << q;
  }
  EXPECT_NE(prom.find("probkb_latency_seconds_count{series=\"serve_query\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("trace_id=\"0000000000001234\""), std::string::npos);
}

}  // namespace
}  // namespace probkb
