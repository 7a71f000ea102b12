#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "grounding/grounder.h"
#include "grounding/mpp_grounder.h"
#include "kb/relational_model.h"
#include "mpp/mpp_context.h"
#include "obs/flight_recorder.h"
#include "tests/test_util.h"
#include "util/strings.h"

namespace probkb {
namespace {

constexpr int kSegments = 3;

std::string FreshPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/probkb_fr_" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::vector<FrRecord> EventsOfKind(const std::vector<FrRecord>& timeline,
                                   FrEvent kind) {
  std::vector<FrRecord> out;
  for (const FrRecord& r : timeline) {
    if (r.event == kind) out.push_back(r);
  }
  return out;
}

// --- Core recorder mechanics ---------------------------------------------------

TEST(FlightRecorderTest, RecordsAndMergesInSequenceOrder) {
  FlightRecorder rec(/*capacity=*/64);
  rec.Record(FrEvent::kMotionBegin, "redistribute", 7);
  rec.Record(FrEvent::kFaultInjected, "segment_failure", 7, 0, 2);
  rec.Record(FrEvent::kMotionRecovered, "", 7, 1, 42);

  std::vector<FrRecord> timeline = rec.MergedTimeline();
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].seq, 0u);
  EXPECT_EQ(timeline[0].event, FrEvent::kMotionBegin);
  EXPECT_STREQ(timeline[0].detail, "redistribute");
  EXPECT_EQ(timeline[1].seq, 1u);
  EXPECT_EQ(timeline[1].event, FrEvent::kFaultInjected);
  EXPECT_EQ(timeline[1].a, 7);
  EXPECT_EQ(timeline[1].c, 2);
  EXPECT_EQ(timeline[2].seq, 2u);
  EXPECT_STREQ(timeline[2].detail, "");
  EXPECT_EQ(rec.dropped_events(), 0);

  // last_n keeps only the newest events.
  std::vector<FrRecord> tail = rec.MergedTimeline(/*last_n=*/1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].event, FrEvent::kMotionRecovered);
}

TEST(FlightRecorderTest, OverflowKeepsNewestAndCountsDropped) {
  FlightRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(FrEvent::kIterationBoundary, "grounder", i);
  }
  EXPECT_EQ(rec.dropped_events(), 6);
  std::vector<FrRecord> timeline = rec.MergedTimeline();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline.front().a, 6);  // oldest survivor
  EXPECT_EQ(timeline.back().a, 9);
  // The dump advertises the loss.
  EXPECT_NE(rec.DumpText().find("6 older dropped"), std::string::npos);
}

TEST(FlightRecorderTest, ResetRestartsSequenceNumbering) {
  FlightRecorder rec(/*capacity=*/8);
  rec.Record(FrEvent::kCheckpointCommit, "grounding", 1);
  rec.Record(FrEvent::kCheckpointCommit, "grounding", 2);
  rec.Reset();
  EXPECT_TRUE(rec.MergedTimeline().empty());
  EXPECT_EQ(rec.dropped_events(), 0);
  rec.Record(FrEvent::kCheckpointCommit, "grounding", 3);
  std::vector<FrRecord> timeline = rec.MergedTimeline();
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].seq, 0u);
  EXPECT_EQ(timeline[0].a, 3);
}

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  FlightRecorder rec(/*capacity=*/8);
  EXPECT_TRUE(rec.enabled());
  rec.set_enabled(false);
  rec.Record(FrEvent::kMotionBegin, "x", 1);
  EXPECT_TRUE(rec.MergedTimeline().empty());
  rec.set_enabled(true);
  rec.Record(FrEvent::kMotionBegin, "y", 2);
  EXPECT_EQ(rec.MergedTimeline().size(), 1u);
}

TEST(FlightRecorderTest, DetailIsTruncatedNotOverrun) {
  FlightRecorder rec(/*capacity=*/4);
  const std::string long_detail(100, 'z');
  rec.Record(FrEvent::kGibbsMilestone, long_detail);
  std::vector<FrRecord> timeline = rec.MergedTimeline();
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(std::string(timeline[0].detail), std::string(31, 'z'));
}

TEST(FlightRecorderTest, DumpShapesAreWellFormed) {
  FlightRecorder rec(/*capacity=*/8);
  rec.Record(FrEvent::kMotionBegin, "broadcast", 3);
  rec.Record(FrEvent::kMotionFailed, "", 3, 4, 1);

  const std::string text = rec.DumpText();
  EXPECT_NE(text.find("=== flight recorder (2 events) ==="),
            std::string::npos);
  EXPECT_NE(text.find("motion_begin"), std::string::npos);
  EXPECT_NE(text.find("motion_failed"), std::string::npos);
  EXPECT_NE(text.find("broadcast"), std::string::npos);

  const std::string json = rec.DumpJson();
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"event\": \"motion_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\": \"broadcast\""), std::string::npos);

  // Details are escaped, so a quote cannot break the document.
  rec.Record(FrEvent::kMotionBegin, "say \"hi\"", 4);
  EXPECT_NE(rec.DumpJson().find("\"detail\": \"say \\\"hi\\\"\""),
            std::string::npos);

  // Empty recorder still yields valid scaffolding.
  FlightRecorder empty(4);
  EXPECT_NE(empty.DumpText().find("(0 events)"), std::string::npos);
  EXPECT_NE(empty.DumpJson().find("\"events\": []"), std::string::npos);
}

TEST(FlightRecorderTest, WriteDumpRoundTrips) {
  FlightRecorder rec(/*capacity=*/8);
  rec.Record(FrEvent::kRetryAttempt, "", 5, 1, 2);
  const std::string path = FreshPath("dump.json");
  ASSERT_TRUE(WriteTextFile(path, rec.DumpJson(), "post-mortem").ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), rec.DumpJson());

  EXPECT_FALSE(
      WriteTextFile("/nonexistent-dir/x/y.json", rec.DumpJson(), "post-mortem")
          .ok());
}

// --- Pipeline instrumentation under chaos --------------------------------------

/// One seeded chaos grounding run against the global recorder; returns the
/// text dump. All journal payloads are deterministic quantities, so the
/// dump must not depend on the worker-thread count.
std::string ChaosDump(const KnowledgeBase& kb, uint64_t seed, int threads,
                      std::vector<FrRecord>* timeline_out = nullptr) {
  FlightRecorder* rec = FlightRecorder::Global();
  rec->Reset();

  FaultInjectionOptions fault_options;
  fault_options.enabled = true;
  fault_options.seed = seed;
  fault_options.segment_failure_prob = 0.3;
  fault_options.drop_batch_prob = 0.2;
  fault_options.duplicate_batch_prob = 0.2;
  FaultInjector injector(fault_options);

  GroundingOptions options;
  options.num_threads = threads;
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, kSegments, MppMode::kViews, options,
                       CostParams{}, &injector, RetryPolicy{});
  EXPECT_TRUE(grounder.GroundAtoms().ok());
  if (timeline_out != nullptr) *timeline_out = rec->MergedTimeline();
  return rec->DumpText();
}

/// Seeded chaos runs journal every fault with its recovery, and the merged
/// dump is byte-identical at 1, 2 and 4 worker threads: the recorder only
/// sees orchestrator-side milestones whose payloads carry no clocks or
/// thread ids. Three seeds (plus PROBKB_CHAOS_SEED when set) shake
/// different schedules.
TEST(FlightRecorderChaosTest, ChaosDumpIsByteIdenticalAcrossThreadCounts) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  std::vector<uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("PROBKB_CHAOS_SEED")) {
    seeds.push_back(static_cast<uint64_t>(std::strtoull(env, nullptr, 10)));
  }

  int64_t faults_seen = 0;
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<FrRecord> timeline;
    const std::string dump1 = ChaosDump(kb, seed, /*threads=*/1, &timeline);
    const std::string dump2 = ChaosDump(kb, seed, /*threads=*/2);
    const std::string dump4 = ChaosDump(kb, seed, /*threads=*/4);
    EXPECT_EQ(dump1, dump2);
    EXPECT_EQ(dump1, dump4);

    // Every injected fault is journaled inside its motion's bracket:
    // motion_begin before it and motion_recovered after it, in sequence
    // order. Segment failures additionally drive the retry loop, so they
    // must show a retry_attempt; batch drop/duplicate faults are repaired
    // by reshipping without one.
    const std::vector<FrRecord> faults =
        EventsOfKind(timeline, FrEvent::kFaultInjected);
    faults_seen += static_cast<int64_t>(faults.size());
    for (const FrRecord& fault : faults) {
      bool began = false;
      bool recovered = false;
      bool retried = false;
      for (const FrRecord& r : timeline) {
        if (r.a != fault.a) continue;  // same motion index
        if (r.event == FrEvent::kMotionBegin && r.seq < fault.seq) {
          began = true;
        }
        if (r.event == FrEvent::kRetryAttempt && r.seq > fault.seq) {
          retried = true;
        }
        if (r.event == FrEvent::kMotionRecovered && r.seq > fault.seq) {
          recovered = true;
        }
      }
      EXPECT_TRUE(began) << "no motion_begin before fault at motion "
                         << fault.a;
      if (std::string(fault.detail) == "segment failure") {
        EXPECT_TRUE(retried) << "no retry_attempt after segment failure "
                             << "at motion " << fault.a;
      }
      EXPECT_TRUE(recovered) << "no motion_recovered after fault at motion "
                             << fault.a;
    }
    // Iteration boundaries are journaled too (the fixpoint ran).
    EXPECT_FALSE(
        EventsOfKind(timeline, FrEvent::kIterationBoundary).empty());
    // A clean run never journals motion_failed.
    EXPECT_TRUE(EventsOfKind(timeline, FrEvent::kMotionFailed).empty());
  }
  EXPECT_GT(faults_seen, 0) << "chaos sweep never injected a fault";

  FlightRecorder::Global()->Reset();
}

/// A schedule that fails the same segment on the first try and every retry
/// exhausts the retry budget; the post-mortem dump must tell the whole
/// story: every injected fault, every retry attempt, and the terminal
/// motion_failed record.
TEST(FlightRecorderChaosTest, TerminalFailureDumpContainsEveryFaultAndRetry) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  // Probe run: find a redistribute that ships tuples (it is guaranteed to
  // consult the injector).
  RelationalKB rkb_probe = BuildRelationalModel(kb);
  GroundingOptions probe_options;
  probe_options.max_iterations = 1;
  MppGrounder probe(rkb_probe, kSegments, MppMode::kViews, probe_options);
  ASSERT_TRUE(probe.GroundAtoms().ok());
  int64_t victim_motion = -1;
  int64_t motion_index = 0;
  for (const MppStep& step : probe.cost().steps()) {
    if (step.kind == MppStep::Kind::kCompute ||
        step.kind == MppStep::Kind::kRecovery) {
      continue;
    }
    if (step.kind == MppStep::Kind::kRedistribute &&
        step.tuples_shipped > 0 && victim_motion < 0) {
      victim_motion = motion_index;
    }
    ++motion_index;
  }
  ASSERT_GE(victim_motion, 0) << "no redistribute shipped tuples";

  const RetryPolicy retry;
  FaultInjectionOptions fault_options;
  fault_options.enabled = true;
  for (int attempt = 0; attempt <= retry.max_attempts + 1; ++attempt) {
    FaultEvent e;
    e.kind = FaultKind::kSegmentFailure;
    e.motion = victim_motion;
    e.attempt = attempt;
    e.segment = 0;
    fault_options.schedule.push_back(e);
  }
  FaultInjector injector(fault_options);

  FlightRecorder* rec = FlightRecorder::Global();
  rec->Reset();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, kSegments, MppMode::kViews, GroundingOptions{},
                       CostParams{}, &injector, retry);
  Status st = grounder.GroundAtoms();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;

  const std::vector<FrRecord> timeline = rec->MergedTimeline();
  // Attempt 0 plus every struck retry 1..max_attempts are journaled; the
  // schedule's final entry is never consulted (the budget ran out first).
  const std::vector<FrRecord> faults =
      EventsOfKind(timeline, FrEvent::kFaultInjected);
  ASSERT_EQ(static_cast<int>(faults.size()), retry.max_attempts + 1);
  for (const FrRecord& fault : faults) {
    EXPECT_EQ(fault.a, victim_motion);
    EXPECT_EQ(fault.c, 0);  // victim segment
    EXPECT_STREQ(fault.detail, "segment failure");
  }
  const std::vector<FrRecord> retries =
      EventsOfKind(timeline, FrEvent::kRetryAttempt);
  ASSERT_EQ(static_cast<int>(retries.size()), retry.max_attempts);
  for (const FrRecord& r : retries) EXPECT_EQ(r.a, victim_motion);

  const std::vector<FrRecord> failed =
      EventsOfKind(timeline, FrEvent::kMotionFailed);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].a, victim_motion);
  EXPECT_EQ(failed[0].b, retry.max_attempts);
  EXPECT_TRUE(EventsOfKind(timeline, FrEvent::kMotionRecovered).empty());

  // The post-mortem a CLI run would write carries the full story.
  const std::string dump = rec->DumpJson();
  EXPECT_NE(dump.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(dump.find("\"retry_attempt\""), std::string::npos);
  EXPECT_NE(dump.find("\"motion_failed\""), std::string::npos);

  rec->Reset();
}

/// Single-node grounding journals one iteration_boundary per fixpoint
/// iteration on the global recorder.
TEST(FlightRecorderPipelineTest, GrounderJournalsIterationBoundaries) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  FlightRecorder* rec = FlightRecorder::Global();
  rec->Reset();

  RelationalKB rkb = BuildRelationalModel(kb);
  Grounder grounder(&rkb, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  const std::vector<FrRecord> boundaries =
      EventsOfKind(rec->MergedTimeline(), FrEvent::kIterationBoundary);
  ASSERT_EQ(static_cast<int64_t>(boundaries.size()),
            grounder.stats().iterations);
  for (size_t i = 0; i < boundaries.size(); ++i) {
    EXPECT_EQ(boundaries[i].a, static_cast<int64_t>(i) + 1);  // 1-based
    EXPECT_STREQ(boundaries[i].detail, "grounder");
  }
  // The final iteration adds nothing (that is how the fixpoint stops) and
  // its running total matches the grounded atom table.
  EXPECT_EQ(boundaries.back().b, 0);
  EXPECT_EQ(boundaries.back().c, rkb.t_pi->NumRows());

  rec->Reset();
}

}  // namespace
}  // namespace probkb
