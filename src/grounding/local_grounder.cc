#include "grounding/local_grounder.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <span>
#include <unordered_set>

#include "engine/exec_context.h"
#include "grounding/partition_queries.h"

namespace probkb {

namespace {

/// Identity of one deduction for cross-direction dedup: the same factor
/// can be found backward (from its head) and forward (from a body).
/// Duplicates across partitions stay distinct, matching the batch
/// grounder's bag union.
std::array<int64_t, 5> FactorKey(int p, const RowView& f) {
  int64_t w_bits = 0;
  const double w = f[tphi::kW].f64();
  std::memcpy(&w_bits, &w, sizeof(w_bits));
  return {p, f[tphi::kI1].i64(),
          f[tphi::kI2].is_null() ? int64_t{-1} : f[tphi::kI2].i64(),
          f[tphi::kI3].is_null() ? int64_t{-1} : f[tphi::kI3].i64(), w_bits};
}

}  // namespace

std::unordered_map<FactId, int64_t> BuildFactRowIndex(const Table& t_pi) {
  std::unordered_map<FactId, int64_t> out;
  out.reserve(static_cast<size_t>(t_pi.NumRows()));
  for (int64_t i = 0; i < t_pi.NumRows(); ++i) {
    out.emplace(t_pi.row(i)[tpi::kI].i64(), i);
  }
  return out;
}

EntityRowIndex BuildEntityRowIndex(const Table& t_pi) {
  const int64_t n = t_pi.NumRows();
  const int64_t* xs = n > 0 ? t_pi.Int64Data(tpi::kX) : nullptr;
  const int64_t* ys = n > 0 ? t_pi.Int64Data(tpi::kY) : nullptr;
  int64_t max_entity = -1;
  for (int64_t i = 0; i < n; ++i) {
    max_entity = std::max({max_entity, xs[i], ys[i]});
  }
  EntityRowIndex index;
  index.offsets.assign(static_cast<size_t>(max_entity + 2), 0);
  auto for_each_entity = [&](auto&& visit) {
    for (int64_t i = 0; i < n; ++i) {
      visit(xs[i], i);
      if (ys[i] != xs[i]) visit(ys[i], i);
    }
  };
  for_each_entity([&](int64_t e, int64_t) {
    if (e >= 0) ++index.offsets[static_cast<size_t>(e) + 1];
  });
  for (size_t e = 1; e < index.offsets.size(); ++e) {
    index.offsets[e] += index.offsets[e - 1];
  }
  index.rows.resize(static_cast<size_t>(index.offsets.back()));
  // Filling in row order keeps every entity's rows ascending.
  std::vector<int64_t> cursor(index.offsets.begin(), index.offsets.end() - 1);
  for_each_entity([&](int64_t e, int64_t row) {
    if (e < 0) return;
    int64_t& slot = cursor[static_cast<size_t>(e)];
    index.rows[static_cast<size_t>(slot++)] = row;
  });
  return index;
}

Result<LocalGrounding> GroundLocalSubgraph(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::unordered_map<FactId, int64_t>& row_of,
    const std::vector<int64_t>& seed_rows,
    const LocalGroundingOptions& opts) {
  return GroundLocalSubgraph(t_pi, m, row_of, BuildEntityRowIndex(*t_pi),
                             seed_rows, opts);
}

Result<LocalGrounding> GroundLocalSubgraph(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::unordered_map<FactId, int64_t>& row_of,
    const EntityRowIndex& by_entity, const std::vector<int64_t>& seed_rows,
    const LocalGroundingOptions& opts) {
  LocalGrounding out;
  out.total_atoms = t_pi->NumRows();
  out.t_phi = Table::Make(TPhiSchema());

  std::unordered_set<FactId> visited;
  std::vector<FactId> frontier;
  for (int64_t r : seed_rows) {
    FactId id = t_pi->row(r)[tpi::kI].i64();
    if (visited.insert(id).second) frontier.push_back(id);
  }

  std::set<std::array<int64_t, 5>> seen_factors;
  std::vector<int64_t> frontier_rows;
  std::vector<int64_t> entities;
  std::vector<int64_t> hood_rows;
  for (int depth = 0; depth < opts.max_depth && !frontier.empty(); ++depth) {
    // Materialize the frontier in ascending id order so the joins (and
    // therefore the factor rows) come out the same however the BFS
    // happened to discover the atoms.
    std::sort(frontier.begin(), frontier.end());
    frontier_rows.clear();
    for (FactId id : frontier) {
      auto it = row_of.find(id);
      if (it != row_of.end()) frontier_rows.push_back(it->second);
    }
    auto frontier_table = Table::Make(t_pi->schema());
    frontier_table->AppendGatheredRows(*t_pi, frontier_rows);

    // The round's entity neighbourhood, in ascending TPi row order.
    entities.clear();
    for (int64_t r : frontier_rows) {
      RowView row = t_pi->row(r);
      entities.push_back(row[tpi::kX].i64());
      entities.push_back(row[tpi::kY].i64());
    }
    std::sort(entities.begin(), entities.end());
    entities.erase(std::unique(entities.begin(), entities.end()),
                   entities.end());
    hood_rows.clear();
    for (int64_t e : entities) {
      std::span<const int64_t> rows = by_entity.RowsOf(e);
      hood_rows.insert(hood_rows.end(), rows.begin(), rows.end());
    }
    std::sort(hood_rows.begin(), hood_rows.end());
    hood_rows.erase(std::unique(hood_rows.begin(), hood_rows.end()),
                    hood_rows.end());
    auto hood = Table::Make(t_pi->schema());
    hood->AppendGatheredRows(*t_pi, hood_rows);
    out.neighbourhood_rows += hood->NumRows();

    std::vector<FactId> next;
    auto absorb = [&](int p, const Table& factors) {
      for (int64_t i = 0; i < factors.NumRows(); ++i) {
        RowView f = factors.row(i);
        if (!seen_factors.insert(FactorKey(p, f)).second) continue;
        out.t_phi->AppendRow(f);
        for (int col : {tphi::kI1, tphi::kI2, tphi::kI3}) {
          if (f[col].is_null()) continue;
          FactId atom = f[col].i64();
          if (visited.insert(atom).second) next.push_back(atom);
        }
      }
    };
    for (int p = 1; p <= kNumRuleStructures; ++p) {
      TablePtr mp = m[static_cast<size_t>(p - 1)];
      if (mp == nullptr || mp->NumRows() == 0) continue;
      // Backward: factors whose head is a frontier atom.
      {
        ExecContext ec;
        PROBKB_ASSIGN_OR_RETURN(
            TablePtr factors,
            GroundFactorsForPartition(p, mp, hood, hood, frontier_table,
                                      &ec));
        absorb(p, *factors);
      }
      // Forward: factors with a frontier atom in the first (and, for
      // length-3 partitions, the second) body slot; the other atoms
      // resolve against the neighbourhood.
      {
        ExecContext ec;
        PROBKB_ASSIGN_OR_RETURN(
            TablePtr factors,
            GroundFactorsForPartition(p, mp, frontier_table, hood, hood,
                                      &ec));
        absorb(p, *factors);
      }
      if (GetPartitionSpec(p).body_length == 2) {
        ExecContext ec;
        PROBKB_ASSIGN_OR_RETURN(
            TablePtr factors,
            GroundFactorsForPartition(p, mp, hood, frontier_table, hood,
                                      &ec));
        absorb(p, *factors);
      }
    }
    out.depth_reached = depth + 1;
    frontier = std::move(next);
    // The atom budget cuts *expansion* only, and only at a round boundary:
    // every atom a collected factor references is already in `visited`, so
    // the factor set stays closed over sub_t_pi.
    if (opts.max_atoms > 0 &&
        static_cast<int64_t>(visited.size()) >= opts.max_atoms) {
      break;
    }
  }
  out.truncated = !frontier.empty();

  std::vector<FactId> ids(visited.begin(), visited.end());
  std::sort(ids.begin(), ids.end());
  out.sub_t_pi = Table::Make(t_pi->schema());
  for (FactId id : ids) {
    auto it = row_of.find(id);
    if (it != row_of.end()) out.sub_t_pi->AppendRow(t_pi->row(it->second));
  }
  out.grounded_atoms = out.sub_t_pi->NumRows();

  {
    ExecContext ec;
    PROBKB_ASSIGN_OR_RETURN(TablePtr singletons,
                            SingletonFactors(out.sub_t_pi, &ec));
    out.t_phi->AppendTable(*singletons);
  }
  return out;
}

}  // namespace probkb
