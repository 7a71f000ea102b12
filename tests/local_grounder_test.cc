#include "grounding/local_grounder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "engine/exec_context.h"
#include "grounding/grounder.h"
#include "grounding/partition_queries.h"
#include "kb/knowledge_base.h"
#include "kb/relational_model.h"

namespace probkb {
namespace {

/// The full-TPi local grounder the neighbourhood path replaced: every
/// non-frontier slot of every Query 2-p plan joins the whole TPi. Kept
/// here as the oracle the production path must match byte for byte.
LocalGrounding ReferenceGrounding(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::vector<int64_t>& seed_rows, const LocalGroundingOptions& opts) {
  const auto row_of = BuildFactRowIndex(*t_pi);
  LocalGrounding out;
  out.total_atoms = t_pi->NumRows();
  out.t_phi = Table::Make(TPhiSchema());
  std::unordered_set<FactId> visited;
  std::vector<FactId> frontier;
  for (int64_t r : seed_rows) {
    FactId id = t_pi->row(r)[tpi::kI].i64();
    if (visited.insert(id).second) frontier.push_back(id);
  }
  std::set<std::tuple<int, int64_t, int64_t, int64_t, uint64_t>> seen;
  auto opt = [](const Value& v) { return v.is_null() ? -1 : v.i64(); };
  for (int depth = 0; depth < opts.max_depth && !frontier.empty(); ++depth) {
    std::sort(frontier.begin(), frontier.end());
    auto ft = Table::Make(t_pi->schema());
    for (FactId id : frontier) ft->AppendRow(t_pi->row(row_of.at(id)));
    std::vector<FactId> next;
    for (int p = 1; p <= kNumRuleStructures; ++p) {
      TablePtr mp = m[static_cast<size_t>(p - 1)];
      if (mp->NumRows() == 0) continue;
      std::vector<std::array<TablePtr, 3>> slots = {{t_pi, t_pi, ft},
                                                    {ft, t_pi, t_pi}};
      if (GetPartitionSpec(p).body_length == 2) {
        slots.push_back({t_pi, ft, t_pi});
      }
      for (const auto& s : slots) {
        ExecContext ec;
        auto factors = GroundFactorsForPartition(p, mp, s[0], s[1], s[2], &ec);
        EXPECT_TRUE(factors.ok());
        for (int64_t i = 0; i < (*factors)->NumRows(); ++i) {
          RowView f = (*factors)->row(i);
          uint64_t w = 0;
          const double wd = f[tphi::kW].f64();
          std::memcpy(&w, &wd, sizeof(w));
          if (!seen.emplace(p, f[tphi::kI1].i64(), opt(f[tphi::kI2]),
                            opt(f[tphi::kI3]), w)
                   .second) {
            continue;
          }
          out.t_phi->AppendRow(f);
          for (int col : {tphi::kI1, tphi::kI2, tphi::kI3}) {
            if (!f[col].is_null() && visited.insert(f[col].i64()).second) {
              next.push_back(f[col].i64());
            }
          }
        }
      }
    }
    out.depth_reached = depth + 1;
    frontier = std::move(next);
    if (opts.max_atoms > 0 &&
        static_cast<int64_t>(visited.size()) >= opts.max_atoms) {
      break;
    }
  }
  out.truncated = !frontier.empty();
  std::vector<FactId> ids(visited.begin(), visited.end());
  std::sort(ids.begin(), ids.end());
  out.sub_t_pi = Table::Make(t_pi->schema());
  for (FactId id : ids) out.sub_t_pi->AppendRow(t_pi->row(row_of.at(id)));
  out.grounded_atoms = out.sub_t_pi->NumRows();
  ExecContext ec;
  out.t_phi->AppendTable(**SingletonFactors(out.sub_t_pi, &ec));
  return out;
}

/// Order-sensitive digest of every cell of `t` (Table::HashRows over all
/// columns, folded in row order).
std::vector<size_t> RowHashes(const Table& t) {
  std::vector<int> cols(static_cast<size_t>(t.width()));
  for (int c = 0; c < t.width(); ++c) cols[static_cast<size_t>(c)] = c;
  std::vector<size_t> out(static_cast<size_t>(t.NumRows()));
  if (!out.empty()) t.HashRows(cols, 0, t.NumRows(), out.data());
  return out;
}

void ExpectSameGrounding(const LocalGrounding& want, const LocalGrounding& got,
                         const std::string& where) {
  EXPECT_EQ(RowHashes(*want.sub_t_pi), RowHashes(*got.sub_t_pi)) << where;
  EXPECT_EQ(RowHashes(*want.t_phi), RowHashes(*got.t_phi)) << where;
  EXPECT_EQ(want.t_phi->SortedRows(), got.t_phi->SortedRows()) << where;
  EXPECT_EQ(want.grounded_atoms, got.grounded_atoms) << where;
  EXPECT_EQ(want.total_atoms, got.total_atoms) << where;
  EXPECT_EQ(want.depth_reached, got.depth_reached) << where;
  EXPECT_EQ(want.truncated, got.truncated) << where;
}

struct RandomKbShape {
  int entities = 12;
  int relations = 4;
  int facts = 40;
  int rules_per_structure = 3;
  /// Facts forced onto entity 0 (one end or both), on top of `facts`.
  int hub_facts = 0;
  /// Facts forced to be x == y, on top of `facts`.
  int self_loops = 3;
};

/// Random typed KB whose rules cover all six structures (so the swapped
/// M2 and M4..M6 partitions are exercised). Entity e has class e % 2, and
/// rule classes are drawn from the same two, so most rules fire.
KnowledgeBase RandomKb(uint64_t seed, const RandomKbShape& shape) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  std::uniform_real_distribution<double> prior(0.5, 0.99);
  std::uniform_real_distribution<double> weight(-1.0, 2.5);
  KnowledgeBase kb;
  std::vector<ClassId> classes = {kb.classes().GetOrAdd("A"),
                                  kb.classes().GetOrAdd("B")};
  std::vector<EntityId> entities;
  for (int e = 0; e < shape.entities; ++e) {
    entities.push_back(kb.entities().GetOrAdd("e" + std::to_string(e)));
  }
  std::vector<RelationId> relations;
  for (int r = 0; r < shape.relations; ++r) {
    relations.push_back(kb.relations().GetOrAdd("r" + std::to_string(r)));
  }
  auto class_of = [&](int e) { return classes[static_cast<size_t>(e % 2)]; };
  std::set<std::tuple<int, int, int>> facts;
  auto add_fact = [&](int r, int x, int y) {
    if (!facts.emplace(r, x, y).second) return;
    kb.AddFact({relations[static_cast<size_t>(r)],
                entities[static_cast<size_t>(x)], class_of(x),
                entities[static_cast<size_t>(y)], class_of(y), prior(rng)});
  };
  for (int i = 0; i < shape.facts; ++i) {
    add_fact(pick(shape.relations), pick(shape.entities),
             pick(shape.entities));
  }
  for (int i = 0; i < shape.self_loops; ++i) {
    const int e = pick(shape.entities);
    add_fact(pick(shape.relations), e, e);
  }
  for (int i = 0; i < shape.hub_facts; ++i) {
    const int other = pick(shape.entities);
    if (i % 2 == 0) {
      add_fact(pick(shape.relations), 0, other);
    } else {
      add_fact(pick(shape.relations), other, 0);
    }
  }
  for (int s = 1; s <= kNumRuleStructures; ++s) {
    for (int i = 0; i < shape.rules_per_structure; ++i) {
      HornRule rule;
      rule.structure = static_cast<RuleStructure>(s);
      rule.head = relations[static_cast<size_t>(pick(shape.relations))];
      rule.body1 = relations[static_cast<size_t>(pick(shape.relations))];
      rule.c1 = classes[static_cast<size_t>(pick(2))];
      rule.c2 = classes[static_cast<size_t>(pick(2))];
      if (s >= 3) {
        rule.body2 = relations[static_cast<size_t>(pick(shape.relations))];
        rule.c3 = classes[static_cast<size_t>(pick(2))];
      }
      rule.weight = weight(rng);
      kb.AddRule(rule);
    }
  }
  return kb;
}

/// Grounds `kb` for `iterations` batch iterations (so TPi holds inferred,
/// NULL-weight atoms too) and checks the neighbourhood path against the
/// oracle for seed sets drawn from `seed_pool` over depths 0..4 and a
/// range of atom budgets. Returns how many cases came out truncated.
int CheckAgainstOracle(const KnowledgeBase& kb, int iterations,
                       uint64_t seed,
                       const std::vector<std::vector<int64_t>>& seed_sets) {
  RelationalKB rkb = BuildRelationalModel(kb);
  for (int p = 0; p < kNumRuleStructures; ++p) {
    EXPECT_GT(rkb.m[static_cast<size_t>(p)]->NumRows(), 0)
        << "M" << p + 1 << " is empty";
  }
  GroundingOptions gopts;
  gopts.max_iterations = iterations;
  Grounder grounder(&rkb, gopts);
  EXPECT_TRUE(grounder.GroundAtoms().ok());
  const auto row_of = BuildFactRowIndex(*rkb.t_pi);
  const EntityRowIndex by_entity = BuildEntityRowIndex(*rkb.t_pi);

  int truncated = 0;
  for (const std::vector<int64_t>& seeds : seed_sets) {
    for (int depth = 0; depth <= 4; ++depth) {
      for (int64_t max_atoms : {int64_t{0}, int64_t{2}, int64_t{7},
                                int64_t{65536}}) {
        LocalGroundingOptions opts;
        opts.max_depth = depth;
        opts.max_atoms = max_atoms;
        const std::string where =
            "kb seed " + std::to_string(seed) + ", " +
            std::to_string(seeds.size()) + " seed rows from " +
            std::to_string(seeds.front()) + ", depth " +
            std::to_string(depth) + ", max_atoms " +
            std::to_string(max_atoms);
        const LocalGrounding want =
            ReferenceGrounding(rkb.t_pi, rkb.m, seeds, opts);
        auto got = GroundLocalSubgraph(rkb.t_pi, rkb.m, row_of, by_entity,
                                       seeds, opts);
        if (!got.ok()) {
          ADD_FAILURE() << got.status() << " at " << where;
          continue;
        }
        ExpectSameGrounding(want, *got, where);
        if (got->truncated) ++truncated;
        // The per-call overload builds the same index and delegates.
        auto once = GroundLocalSubgraph(rkb.t_pi, rkb.m, row_of, seeds, opts);
        if (!once.ok()) {
          ADD_FAILURE() << once.status() << " at " << where;
          continue;
        }
        ExpectSameGrounding(want, *once, where + " (per-call index)");
      }
    }
  }
  return truncated;
}

/// Rows of `t_pi` matching `pred`, ascending.
template <typename Pred>
std::vector<int64_t> RowsWhere(const Table& t_pi, Pred pred) {
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < t_pi.NumRows(); ++r) {
    if (pred(t_pi.row(r))) rows.push_back(r);
  }
  return rows;
}

TEST(LocalGrounderOracleTest, RandomKbsMatchFullTPiJoins) {
  int truncated = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    KnowledgeBase kb = RandomKb(seed, RandomKbShape{});
    RelationalKB base = BuildRelationalModel(kb);
    std::mt19937_64 rng(seed * 7919);
    const auto facts = static_cast<uint64_t>(base.t_pi->NumRows());
    std::vector<std::vector<int64_t>> seed_sets;
    for (int i = 0; i < 4; ++i) {
      std::vector<int64_t> seeds;
      for (int k = 0; k <= i % 3; ++k) {
        seeds.push_back(static_cast<int64_t>(rng() % facts));
      }
      seed_sets.push_back(std::move(seeds));
    }
    truncated += CheckAgainstOracle(kb, /*iterations=*/2, seed, seed_sets);
  }
  // max_atoms and shallow depths must actually cut some balls.
  EXPECT_GT(truncated, 0);
}

TEST(LocalGrounderOracleTest, HubEntityWithHundredsOfFacts) {
  RandomKbShape shape;
  shape.entities = 160;
  shape.relations = 3;
  shape.facts = 60;
  shape.rules_per_structure = 1;
  shape.hub_facts = 400;
  KnowledgeBase kb = RandomKb(42, shape);
  RelationalKB base = BuildRelationalModel(kb);
  const std::vector<int64_t> hub_rows =
      RowsWhere(*base.t_pi, [](const RowView& row) {
        return row[tpi::kX].i64() == 0 || row[tpi::kY].i64() == 0;
      });
  ASSERT_GE(hub_rows.size(), 200u);
  // One hub fact, one fact far from the hub, and both together.
  const std::vector<int64_t> far =
      RowsWhere(*base.t_pi, [](const RowView& row) {
        return row[tpi::kX].i64() != 0 && row[tpi::kY].i64() != 0;
      });
  ASSERT_FALSE(far.empty());
  CheckAgainstOracle(kb, /*iterations=*/1, 42,
                     {{hub_rows[hub_rows.size() / 2]},
                      {far.front()},
                      {far.front(), hub_rows.front()}});
}

TEST(LocalGrounderOracleTest, SelfLoopFacts) {
  RandomKbShape shape;
  shape.self_loops = 12;
  KnowledgeBase kb = RandomKb(7, shape);
  RelationalKB base = BuildRelationalModel(kb);
  const std::vector<int64_t> loops =
      RowsWhere(*base.t_pi, [](const RowView& row) {
        return row[tpi::kX].i64() == row[tpi::kY].i64();
      });
  ASSERT_GE(loops.size(), 2u);
  CheckAgainstOracle(kb, /*iterations=*/2, 7,
                     {{loops.front()}, {loops[0], loops[1]}});
}

TEST(EntityRowIndexTest, ListsEachFactOncePerEntityInRowOrder) {
  KnowledgeBase kb = RandomKb(3, RandomKbShape{});
  RelationalKB rkb = BuildRelationalModel(kb);
  const Table& t = *rkb.t_pi;
  const EntityRowIndex index = BuildEntityRowIndex(t);
  for (int64_t e = -1; e <= 14; ++e) {
    const std::vector<int64_t> want = RowsWhere(t, [e](const RowView& row) {
      return row[tpi::kX].i64() == e || row[tpi::kY].i64() == e;
    });
    std::span<const int64_t> got = index.RowsOf(e);
    EXPECT_EQ(want, std::vector<int64_t>(got.begin(), got.end()))
        << "entity " << e;
  }
  EXPECT_TRUE(BuildEntityRowIndex(*Table::Make(t.schema())).RowsOf(0).empty());
}

}  // namespace
}  // namespace probkb
