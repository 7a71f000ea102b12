#include <gtest/gtest.h>

#include "datagen/synthetic_kb.h"
#include "engine/ops.h"
#include "grounding/mpp_grounder.h"
#include "mpp/mpp_ops.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace probkb {
namespace {

using testutil::MakeTable;

Schema AB() {
  return Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}});
}

TablePtr RandomTable(Rng* rng, int64_t rows, int64_t domain) {
  auto t = Table::Make(AB());
  for (int64_t i = 0; i < rows; ++i) {
    t->AppendRow({Value::Int64(rng->UniformInt(0, domain)),
                  Value::Int64(rng->UniformInt(0, domain))});
  }
  return t;
}

// --- DistributedTable ---------------------------------------------------------

TEST(DistributedTableTest, HashPlacementIsValidAndComplete) {
  Rng rng(1);
  auto local = RandomTable(&rng, 200, 50);
  auto dist =
      DistributedTable::Distribute(*local, 8, Distribution::Hash({0}));
  EXPECT_TRUE(dist->ValidatePlacement().ok());
  EXPECT_EQ(dist->NumRows(), 200);
  EXPECT_TRUE(TablesEqualAsBags(*dist->ToLocal(), *local));
}

TEST(DistributedTableTest, ReplicatedCountsOnceLogically) {
  auto local = MakeTable(AB(), {{1, 2}, {3, 4}});
  auto dist =
      DistributedTable::Distribute(*local, 4, Distribution::Replicated());
  EXPECT_EQ(dist->NumRows(), 2);
  EXPECT_EQ(dist->PhysicalRows(), 8);
  EXPECT_TRUE(TablesEqualAsBags(*dist->ToLocal(), *local));
}

TEST(DistributedTableTest, RandomRoundRobinBalances) {
  Rng rng(2);
  auto local = RandomTable(&rng, 100, 10);
  auto dist = DistributedTable::Distribute(*local, 4, Distribution::Random());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(dist->segment(s)->NumRows(), 25);
  }
}

TEST(DistributionTest, KeyPredicates) {
  Distribution h = Distribution::Hash({1, 3});
  std::vector<int> same = {1, 3};
  std::vector<int> super = {0, 1, 3};
  std::vector<int> other = {3, 1};
  EXPECT_TRUE(h.IsHashOn(same));
  EXPECT_FALSE(h.IsHashOn(super));
  EXPECT_FALSE(h.IsHashOn(other));  // order matters
  EXPECT_TRUE(h.HashKeySubsetOf(super));
  EXPECT_TRUE(h.HashKeySubsetOf(other));  // subset ignores order
  std::vector<int> just_one = {1};
  EXPECT_FALSE(h.HashKeySubsetOf(just_one));
}

// --- Motions -------------------------------------------------------------------

TEST(MotionTest, RedistributePreservesRowsAndChargesShipping) {
  Rng rng(3);
  auto local = RandomTable(&rng, 300, 40);
  auto dist = DistributedTable::Distribute(*local, 8, Distribution::Random());
  MppContext ctx(8);
  auto redist = ctx.Redistribute(*dist, {1});
  ASSERT_TRUE(redist.ok());
  EXPECT_TRUE((*redist)->ValidatePlacement().ok());
  EXPECT_TRUE(TablesEqualAsBags(*(*redist)->ToLocal(), *local));
  // Roughly 7/8 of rows move on average; definitely some, never more than
  // all.
  EXPECT_GT(ctx.cost().tuples_shipped(), 0);
  EXPECT_LE(ctx.cost().tuples_shipped(), 300);
  ASSERT_EQ(ctx.cost().steps().size(), 1u);
  EXPECT_EQ(ctx.cost().steps()[0].kind, MppStep::Kind::kRedistribute);
}

TEST(MotionTest, RedistributeAlreadyPlacedShipsNothingAcross) {
  Rng rng(4);
  auto local = RandomTable(&rng, 300, 40);
  auto dist = DistributedTable::Distribute(*local, 8,
                                           Distribution::Hash({0}));
  MppContext ctx(8);
  auto redist = ctx.Redistribute(*dist, {0});
  ASSERT_TRUE(redist.ok());
  EXPECT_EQ(ctx.cost().tuples_shipped(), 0);  // all rows stay put
}

TEST(MotionTest, BroadcastShipsRowsTimesSegmentsMinusOne) {
  Rng rng(5);
  auto local = RandomTable(&rng, 100, 10);
  auto dist = DistributedTable::Distribute(*local, 4, Distribution::Random());
  MppContext ctx(4);
  auto bcast = ctx.Broadcast(*dist);
  ASSERT_TRUE(bcast.ok());
  EXPECT_TRUE((*bcast)->distribution().is_replicated());
  EXPECT_EQ(ctx.cost().tuples_shipped(), 100 * 3);
  EXPECT_TRUE(TablesEqualAsBags(*(*bcast)->ToLocal(), *local));
}

TEST(MotionTest, BroadcastCostsMoreThanRedistribute) {
  // The Figure 4 phenomenon: broadcasting a large input is far more
  // expensive than redistributing it.
  Rng rng(6);
  auto local = RandomTable(&rng, 10000, 1000);
  auto dist =
      DistributedTable::Distribute(*local, 32, Distribution::Random());
  MppContext ctx_r(32), ctx_b(32);
  ASSERT_TRUE(ctx_r.Redistribute(*dist, {0}).ok());
  ASSERT_TRUE(ctx_b.Broadcast(*dist).ok());
  EXPECT_GT(ctx_b.cost().simulated_seconds(),
            3 * ctx_r.cost().simulated_seconds());
}

TEST(MotionTest, GatherCollectsEverything) {
  Rng rng(7);
  auto local = RandomTable(&rng, 64, 8);
  auto dist = DistributedTable::Distribute(*local, 4,
                                           Distribution::Hash({0, 1}));
  MppContext ctx(4);
  auto gathered = ctx.Gather(*dist);
  ASSERT_TRUE(gathered.ok());
  EXPECT_TRUE(TablesEqualAsBags(**gathered, *local));
}

// --- Distributed operators vs single-node reference ----------------------------

class MppOpsEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MppOpsEquivalenceTest, JoinMatchesSingleNode) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 10);
  auto left_local = RandomTable(&rng, 120, 12);
  auto right_local = RandomTable(&rng, 150, 12);

  ExecContext ec;
  auto expected =
      HashJoin(Scan(left_local), Scan(right_local), {0}, {0},
               JoinType::kInner,
               {JoinOutputCol::Left(1, "lb"), JoinOutputCol::Right(1, "rb")})
          ->Execute(&ec);
  ASSERT_TRUE(expected.ok());

  for (MotionPolicy policy :
       {MotionPolicy::kAuto, MotionPolicy::kBroadcastRight,
        MotionPolicy::kBroadcastLeft}) {
    MppContext ctx(5);
    auto left = DistributedTable::Distribute(*left_local, 5,
                                             Distribution::Random());
    auto right = DistributedTable::Distribute(*right_local, 5,
                                              Distribution::Hash({1}));
    MppJoinSpec spec;
    spec.left_keys = {0};
    spec.right_keys = {0};
    spec.type = JoinType::kInner;
    spec.output_cols = {JoinOutputCol::Left(1, "lb"),
                        JoinOutputCol::Right(1, "rb")};
    spec.policy = policy;
    auto result = MppHashJoin(&ctx, left, right, spec);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(TablesEqualAsBags(*(*result)->ToLocal(), **expected))
        << "policy " << static_cast<int>(policy);
  }
}

TEST_P(MppOpsEquivalenceTest, SemiAntiJoinMatchesSingleNode) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 40);
  auto left_local = RandomTable(&rng, 80, 10);
  auto right_local = RandomTable(&rng, 60, 10);
  for (JoinType type : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    ExecContext ec;
    auto expected = HashJoin(Scan(left_local), Scan(right_local), {0}, {0},
                             type)
                        ->Execute(&ec);
    ASSERT_TRUE(expected.ok());
    MppContext ctx(4);
    auto left = DistributedTable::Distribute(*left_local, 4,
                                             Distribution::Hash({0}));
    auto right = DistributedTable::Distribute(*right_local, 4,
                                              Distribution::Random());
    MppJoinSpec spec;
    spec.left_keys = {0};
    spec.right_keys = {0};
    spec.type = type;
    auto result = MppHashJoin(&ctx, left, right, spec);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(TablesEqualAsBags(*(*result)->ToLocal(), **expected));
  }
}

TEST_P(MppOpsEquivalenceTest, DistinctAndAggregateMatchSingleNode) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 70);
  auto local = RandomTable(&rng, 150, 6);
  ExecContext ec;
  auto expected_distinct = Distinct(Scan(local), {0, 1})->Execute(&ec);
  auto expected_agg =
      Aggregate(Scan(local), {0}, {{AggKind::kCount, 0, "cnt"}})
          ->Execute(&ec);
  ASSERT_TRUE(expected_distinct.ok());
  ASSERT_TRUE(expected_agg.ok());

  MppContext ctx(6);
  auto dist = DistributedTable::Distribute(*local, 6, Distribution::Random());
  auto distinct = MppDistinct(&ctx, dist, {0, 1}, "distinct");
  ASSERT_TRUE(distinct.ok());
  EXPECT_TRUE(
      TablesEqualAsBags(*(*distinct)->ToLocal(), **expected_distinct));

  auto agg = MppAggregate(&ctx, dist, {0}, {{AggKind::kCount, 0, "cnt"}},
                          nullptr, "agg");
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(TablesEqualAsBags(*(*agg)->ToLocal(), **expected_agg));
}

TEST_P(MppOpsEquivalenceTest, SetUnionMatchesSingleNode) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  auto dst_local = RandomTable(&rng, 60, 8);
  auto src_local = RandomTable(&rng, 60, 8);
  auto expected = dst_local->Clone();
  SetUnionInto(expected.get(), *src_local, {0, 1});

  MppContext ctx(4);
  auto dst = DistributedTable::Distribute(*dst_local, 4,
                                          Distribution::Hash({0}));
  auto src = DistributedTable::Distribute(*src_local, 4,
                                          Distribution::Random());
  auto added = MppSetUnionInto(&ctx, dst.get(), *src, {0, 1});
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_TRUE(TablesEqualAsBags(*dst->ToLocal(), *expected));
  EXPECT_TRUE(dst->ValidatePlacement().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MppOpsEquivalenceTest, ::testing::Range(0, 8));

TEST(MppOpsTest, SetUnionRequiresCompatibleDistribution) {
  auto t = MakeTable(AB(), {{1, 2}});
  MppContext ctx(2);
  auto dst = DistributedTable::Distribute(*t, 2, Distribution::Hash({1}));
  auto src = DistributedTable::Distribute(*t, 2, Distribution::Random());
  // Union key {0} does not contain dst's hash key {1}.
  EXPECT_FALSE(MppSetUnionInto(&ctx, dst.get(), *src, {0}).ok());
}

TEST(MppOpsTest, DeleteMatchingMatchesSingleNode) {
  Rng rng(11);
  auto local = RandomTable(&rng, 100, 10);
  auto keys = MakeTable(Schema({{"k", ColumnType::kInt64}}), {{3}, {7}});
  auto expected = local->Clone();
  DeleteMatching(expected.get(), {0}, *keys, {0});

  MppContext ctx(4);
  auto dist = DistributedTable::Distribute(*local, 4,
                                           Distribution::Hash({0}));
  auto keys_dist =
      DistributedTable::Distribute(*keys, 4, Distribution::Random());
  auto deleted = MppDeleteMatching(&ctx, dist.get(), {0}, *keys_dist, {0});
  ASSERT_TRUE(deleted.ok());
  EXPECT_TRUE(TablesEqualAsBags(*dist->ToLocal(), *expected));
}

// --- MppGrounder vs single-node Grounder ---------------------------------------

class MppGrounderEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<MppMode, int>> {};

TEST_P(MppGrounderEquivalenceTest, MatchesSingleNodeOnPaperExample) {
  auto [mode, segments] = GetParam();
  KnowledgeBase kb = testutil::BuildPaperExampleKB();

  RelationalKB rkb_single = BuildRelationalModel(kb);
  Grounder single(&rkb_single, GroundingOptions{});
  ASSERT_TRUE(single.GroundAtoms().ok());
  auto phi_single = single.GroundFactors();
  ASSERT_TRUE(phi_single.ok());

  RelationalKB rkb_mpp = BuildRelationalModel(kb);
  MppGrounder mpp(rkb_mpp, segments, mode, GroundingOptions{});
  ASSERT_TRUE(mpp.GroundAtoms().ok());
  auto phi_mpp = mpp.GroundFactors();
  ASSERT_TRUE(phi_mpp.ok()) << phi_mpp.status();

  TablePtr tpi_mpp = mpp.GatherTPi();
  EXPECT_EQ(testutil::TPiAtomSet(*tpi_mpp),
            testutil::TPiAtomSet(*rkb_single.t_pi));
  EXPECT_EQ(testutil::CanonicalizeFactors(**phi_mpp, *tpi_mpp),
            testutil::CanonicalizeFactors(**phi_single, *rkb_single.t_pi));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSegments, MppGrounderEquivalenceTest,
    ::testing::Combine(::testing::Values(MppMode::kNoViews, MppMode::kViews),
                       ::testing::Values(1, 3, 8)));

TEST(MppGrounderCostTest, ViewsShipFewerTuplesThanNoViews) {
  // ProbKB-p vs ProbKB-pn (Figure 6(c) mechanism): with the materialized
  // views, the second join of each length-3 query redistributes a small
  // intermediate instead of broadcasting it.
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  // Blow the example up a bit so there is actual data volume.
  for (int i = 0; i < 200; ++i) {
    kb.AddFactByName("born_in", "w" + std::to_string(i), "Writer",
                     "c" + std::to_string(i % 20), "City", 0.9);
    kb.AddFactByName("born_in", "w" + std::to_string(i), "Writer",
                     "p" + std::to_string(i % 20), "Place", 0.9);
  }
  RelationalKB rkb1 = BuildRelationalModel(kb);
  MppGrounder with_views(rkb1, 8, MppMode::kViews, GroundingOptions{});
  ASSERT_TRUE(with_views.GroundAtoms().ok());
  ASSERT_TRUE(with_views.GroundFactors().ok());

  RelationalKB rkb2 = BuildRelationalModel(kb);
  MppGrounder no_views(rkb2, 8, MppMode::kNoViews, GroundingOptions{});
  ASSERT_TRUE(no_views.GroundAtoms().ok());
  ASSERT_TRUE(no_views.GroundFactors().ok());

  // Same logical result...
  EXPECT_EQ(testutil::TPiAtomSet(*with_views.GatherTPi()),
            testutil::TPiAtomSet(*no_views.GatherTPi()));
  // ...but the no-views plan broadcasts intermediates.
  int64_t bcast_views = 0, bcast_noviews = 0;
  for (const auto& s : with_views.cost().steps()) {
    if (s.kind == MppStep::Kind::kBroadcast) bcast_views += s.tuples_shipped;
  }
  for (const auto& s : no_views.cost().steps()) {
    if (s.kind == MppStep::Kind::kBroadcast) {
      bcast_noviews += s.tuples_shipped;
    }
  }
  EXPECT_EQ(bcast_views, 0);
  EXPECT_GT(bcast_noviews, 0);
}

TEST(MppGrounderTest, ConstraintApplicationMatchesSingleNode) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  // Add a conflicting born_in City fact so Ruth Gruber violates.
  kb.AddFactByName("born_in", "Ruth Gruber", "Writer", "Chicago", "City",
                   0.5);
  RelationalKB rkb_single = BuildRelationalModel(kb);
  Grounder single(&rkb_single, GroundingOptions{});
  auto deleted_single = single.ApplyConstraints();
  ASSERT_TRUE(deleted_single.ok());

  RelationalKB rkb_mpp = BuildRelationalModel(kb);
  MppGrounder mpp(rkb_mpp, 4, MppMode::kViews, GroundingOptions{});
  auto deleted_mpp = mpp.ApplyConstraints();
  ASSERT_TRUE(deleted_mpp.ok()) << deleted_mpp.status();
  EXPECT_EQ(*deleted_mpp, *deleted_single);
  EXPECT_EQ(testutil::TPiAtomSet(*mpp.GatherTPi()),
            testutil::TPiAtomSet(*rkb_single.t_pi));
}


// Property: MPP and single-node grounders agree on random synthetic KBs
// (both modes), including the factor multiset.
class MppGrounderRandomKbTest : public ::testing::TestWithParam<int> {};

TEST_P(MppGrounderRandomKbTest, MatchesSingleNode) {
  SyntheticKbConfig cfg;
  cfg.scale = 0.002;
  cfg.seed = static_cast<uint64_t>(GetParam()) * 271 + 5;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  GroundingOptions options;
  options.max_iterations = 3;

  RelationalKB rkb_single = BuildRelationalModel(skb->kb);
  Grounder single(&rkb_single, options);
  ASSERT_TRUE(single.GroundAtoms().ok());
  auto phi_single = single.GroundFactors();
  ASSERT_TRUE(phi_single.ok());

  for (MppMode mode : {MppMode::kNoViews, MppMode::kViews}) {
    RelationalKB rkb_mpp = BuildRelationalModel(skb->kb);
    MppGrounder mpp(rkb_mpp, 5, mode, options);
    ASSERT_TRUE(mpp.GroundAtoms().ok());
    auto phi_mpp = mpp.GroundFactors();
    ASSERT_TRUE(phi_mpp.ok());
    TablePtr tpi_mpp = mpp.GatherTPi();
    EXPECT_EQ(testutil::TPiAtomSet(*tpi_mpp),
              testutil::TPiAtomSet(*rkb_single.t_pi));
    EXPECT_EQ(testutil::CanonicalizeFactors(**phi_mpp, *tpi_mpp),
              testutil::CanonicalizeFactors(**phi_single,
                                            *rkb_single.t_pi));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MppGrounderRandomKbTest,
                         ::testing::Range(0, 4));

TEST(MppGrounderTest, InLoopConstraintsMatchSingleNode) {
  // With constraints applied each iteration, the banned-entity sets must
  // behave identically on both engines (convergence + same closure).
  SyntheticKbConfig cfg;
  cfg.scale = 0.004;
  auto skb = GenerateReverbSherlockKb(cfg);
  ASSERT_TRUE(skb.ok());

  GroundingOptions options;
  options.max_iterations = 6;
  options.apply_constraints_each_iteration = true;

  RelationalKB rkb_single = BuildRelationalModel(skb->kb);
  Grounder single(&rkb_single, options);
  ASSERT_TRUE(single.GroundAtoms().ok());

  RelationalKB rkb_mpp = BuildRelationalModel(skb->kb);
  MppGrounder mpp(rkb_mpp, 4, MppMode::kViews, options);
  ASSERT_TRUE(mpp.GroundAtoms().ok());

  EXPECT_EQ(testutil::TPiAtomSet(*mpp.GatherTPi()),
            testutil::TPiAtomSet(*rkb_single.t_pi));
  EXPECT_EQ(mpp.stats().iterations, single.stats().iterations);
}


TEST(MppCostTest, TraceRendersFigure4Style) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, 4, MppMode::kViews, GroundingOptions{});
  auto added = grounder.GroundAtomsIteration();
  ASSERT_TRUE(added.ok());

  const MppCost& cost = grounder.cost();
  EXPECT_FALSE(cost.steps().empty());
  EXPECT_GT(cost.simulated_seconds(), 0.0);
  // Sum of step seconds equals the accumulated simulated time.
  double sum = 0;
  for (const auto& step : cost.steps()) sum += step.seconds;
  EXPECT_NEAR(sum, cost.simulated_seconds(), 1e-12);

  std::string trace = cost.ToString();
  EXPECT_NE(trace.find("Redistribute Motion"), std::string::npos);
  EXPECT_NE(trace.find("Compute"), std::string::npos);
  EXPECT_NE(trace.find("total:"), std::string::npos);
}

TEST(MppGrounderStatsTest, StatementsCountedPerPartition) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, 4, MppMode::kViews, GroundingOptions{});
  ASSERT_TRUE(grounder.GroundAtoms().ok());
  // Two non-empty partitions x two iterations, same as the single-node
  // grounder (one SQL-equivalent statement per partition per iteration).
  EXPECT_EQ(grounder.stats().statements, 4);
  EXPECT_EQ(grounder.stats().iterations, 2);
  std::string rendered = grounder.stats().ToString();
  EXPECT_NE(rendered.find("2 iterations"), std::string::npos);
}

/// --stats reports measured motion and partition times; the cost model's
/// figures ride beside them under their own name and never replace them.
TEST(MppGrounderStatsTest, MotionAndPartitionTimesAreMeasuredNotModelled) {
  KnowledgeBase kb = testutil::BuildPaperExampleKB();
  RelationalKB rkb = BuildRelationalModel(kb);
  MppGrounder grounder(rkb, 2, MppMode::kViews, GroundingOptions{});
  StatsRegistry registry;
  grounder.set_stats_registry(&registry);
  const size_t first_step = grounder.cost().steps().size();
  ASSERT_TRUE(grounder.GroundAtoms().ok());

  double modelled_motion = 0.0;
  const std::vector<MppStep>& steps = grounder.cost().steps();
  for (size_t i = first_step; i < steps.size(); ++i) {
    if (steps[i].kind != MppStep::Kind::kCompute) {
      modelled_motion += steps[i].seconds;
    }
  }
  ASSERT_GT(modelled_motion, 0.0);
  int64_t motions = 0;
  double measured = 0.0;
  double modelled = 0.0;
  for (const MotionTotals& m : registry.motion_totals()) {
    motions += m.count;
    measured += m.seconds;
    modelled += m.modelled_seconds;
  }
  EXPECT_NEAR(modelled, modelled_motion, 1e-12);
  const LatencyHistogram* ship = registry.FindLatency("motion_ship");
  ASSERT_NE(ship, nullptr);
  EXPECT_EQ(ship->count(), motions);
  // The histogram holds the measured samples, not the cost-model constant.
  EXPECT_NEAR(ship->sum_seconds(), measured, 1e-9);
  EXPECT_NE(ship->sum_seconds(), modelled);

  double partition_modelled = 0.0;
  double partition_measured = 0.0;
  for (const PartitionIterStats& cell : registry.partition_iterations()) {
    partition_modelled += cell.modelled_seconds;
    partition_measured += cell.join_seconds;
  }
  EXPECT_GT(partition_modelled, 0.0);
  EXPECT_GT(partition_measured, 0.0);
  EXPECT_NE(partition_measured, partition_modelled);
  EXPECT_NE(registry.ToText().find("modelled"), std::string::npos);
  EXPECT_NE(registry.ToJson().find("\"modelled_seconds\""), std::string::npos);
}


TEST(MppOpsErrorTest, BroadcastLeftInvalidForSemiJoin) {
  auto t = MakeTable(AB(), {{1, 2}});
  MppContext ctx(2);
  auto left = DistributedTable::Distribute(*t, 2, Distribution::Random());
  auto right = DistributedTable::Distribute(*t, 2, Distribution::Random());
  MppJoinSpec spec;
  spec.left_keys = {0};
  spec.right_keys = {0};
  spec.type = JoinType::kLeftSemi;
  spec.policy = MotionPolicy::kBroadcastLeft;
  EXPECT_FALSE(MppHashJoin(&ctx, left, right, spec).ok());
}

TEST(MppOpsErrorTest, AggregateOverReplicatedRejected) {
  auto t = MakeTable(AB(), {{1, 2}});
  MppContext ctx(2);
  auto dist = DistributedTable::Distribute(*t, 2, Distribution::Replicated());
  EXPECT_FALSE(MppAggregate(&ctx, dist, {0}, {{AggKind::kCount, 0, "c"}},
                            nullptr, "agg")
                   .ok());
}

TEST(MppOpsErrorTest, RedistributeKeyOutOfRange) {
  auto t = MakeTable(AB(), {{1, 2}});
  MppContext ctx(2);
  auto dist = DistributedTable::Distribute(*t, 2, Distribution::Random());
  EXPECT_FALSE(ctx.Redistribute(*dist, {5}).ok());
}

TEST(MppOpsTest, JoinOfReplicatedInputsStaysReplicated) {
  auto left = MakeTable(AB(), {{1, 10}, {2, 20}});
  auto right = MakeTable(AB(), {{1, 100}});
  MppContext ctx(3);
  auto dl = DistributedTable::Distribute(*left, 3, Distribution::Replicated());
  auto dr = DistributedTable::Distribute(*right, 3,
                                         Distribution::Replicated());
  MppJoinSpec spec;
  spec.left_keys = {0};
  spec.right_keys = {0};
  spec.type = JoinType::kInner;
  spec.output_cols = {JoinOutputCol::Left(1, "lb"),
                      JoinOutputCol::Right(1, "rb")};
  auto result = MppHashJoin(&ctx, dl, dr, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)->distribution().is_replicated());
  EXPECT_EQ((*result)->NumRows(), 1);  // logical count, not x3
  EXPECT_EQ(ctx.cost().tuples_shipped(), 0);
}

}  // namespace
}  // namespace probkb
