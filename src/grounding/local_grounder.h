#ifndef PROBKB_GROUNDING_LOCAL_GROUNDER_H_
#define PROBKB_GROUNDING_LOCAL_GROUNDER_H_

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "kb/relational_model.h"
#include "relational/table.h"
#include "util/result.h"

namespace probkb {

/// \brief Bounds of the backward-chained proof neighborhood.
struct LocalGroundingOptions {
  /// BFS depth: how many rule applications to follow backward from the
  /// query atoms. Depth 0 grounds only the seed atoms' priors.
  int max_depth = 3;
  /// Stop expanding (but still close over already-collected factor bodies)
  /// once the visited-atom count exceeds this. 0 means unbounded.
  int64_t max_atoms = 65536;
};

/// \brief The query's local ground subgraph: a sub-TPi plus the factors
/// among its atoms, suitable for FactorGraph::FromTables.
struct LocalGrounding {
  /// Visited facts (ascending fact id — deterministic regardless of
  /// expansion order), TPi schema.
  TablePtr sub_t_pi;
  /// Rule factors with heads in the neighborhood plus singleton priors,
  /// TPhi schema.
  TablePtr t_phi;
  /// == sub_t_pi->NumRows(); reported against `total_atoms` for the
  /// locality ("order of magnitude below full grounding") check.
  int64_t grounded_atoms = 0;
  int64_t total_atoms = 0;
  int depth_reached = 0;
  /// TPi rows gathered into the per-round entity neighbourhoods, summed
  /// over rounds: the join input size, which depends on the ball and not
  /// on the KB.
  int64_t neighbourhood_rows = 0;
  /// True when max_depth/max_atoms cut expansion before closure: boundary
  /// atoms keep their priors but lose their own derivations, so marginals
  /// are an approximation whose error decays with depth.
  bool truncated = false;
};

/// \brief Maps fact id -> TPi row index. Built once per published epoch
/// and shared across the epoch's queries.
std::unordered_map<FactId, int64_t> BuildFactRowIndex(const Table& t_pi);

/// \brief Entity id -> the ascending TPi row indices of the facts that
/// mention it as x or y (CSR; a self-loop x == y is listed once). Entity
/// ids are dense dictionary ids. Built once per published epoch and shared
/// across the epoch's queries.
struct EntityRowIndex {
  std::vector<int64_t> offsets;  // entity e's rows: [offsets[e], offsets[e+1])
  std::vector<int64_t> rows;

  std::span<const int64_t> RowsOf(int64_t entity) const {
    if (entity < 0 || entity + 1 >= static_cast<int64_t>(offsets.size())) {
      return {};
    }
    const auto e = static_cast<size_t>(entity);
    return std::span<const int64_t>(rows).subspan(
        static_cast<size_t>(offsets[e]),
        static_cast<size_t>(offsets[e + 1] - offsets[e]));
  }
};

EntityRowIndex BuildEntityRowIndex(const Table& t_pi);

/// \brief Grounds the bounded factor-graph neighborhood of `seed_rows`
/// (TPi row indices). Each BFS round materializes the frontier as a
/// TPi-shaped table and runs the per-partition groundFactors query
/// (Query 2-p) with the frontier in each slot in turn: as the
/// head-resolution table (factors *deriving* frontier atoms — backward
/// chaining) and as each body probe (factors *using* frontier atoms —
/// forward incidence). Both directions matter for marginals: an atom's
/// probability is shaped by its derivations and by the rules it feeds, so
/// expanding only the ancestor cone would misestimate even at full depth.
/// Every atom a collected factor references joins the subgraph (the factor
/// set stays closed over sub_t_pi); unvisited ones become the next
/// frontier. A factor can be rediscovered from different endpoints, so
/// factors are deduplicated on (partition, I1, I2, I3, w).
///
/// The other slots do not join the full TPi but the round's entity
/// neighbourhood: the TPi rows (ascending, via `by_entity`) that mention
/// an entity of a frontier atom. Every pair of atoms in an M1..M6 clause
/// shares a variable, so every atom of a factor that contains a frontier
/// atom is in that neighbourhood; and since hash joins keep probe order
/// and insertion-ordered chains, each join's output is the full-TPi output
/// minus rows that could not reach the frontier, in the same order. The
/// result is byte-identical to joining the full TPi at a cost that scales
/// with the ball, not with the KB.
///
/// `row_of` and `by_entity` must be built from this `t_pi`. `t_pi` and `m`
/// must not be mutated during the call — the serve path passes tables from
/// a pinned snapshot, which guarantees it.
Result<LocalGrounding> GroundLocalSubgraph(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::unordered_map<FactId, int64_t>& row_of,
    const EntityRowIndex& by_entity, const std::vector<int64_t>& seed_rows,
    const LocalGroundingOptions& opts);

/// \brief As above, building the entity index for this one call (O(TPi));
/// callers that answer many queries over one TPi should keep the index.
Result<LocalGrounding> GroundLocalSubgraph(
    TablePtr t_pi, const std::array<TablePtr, kNumRuleStructures>& m,
    const std::unordered_map<FactId, int64_t>& row_of,
    const std::vector<int64_t>& seed_rows, const LocalGroundingOptions& opts);

}  // namespace probkb

#endif  // PROBKB_GROUNDING_LOCAL_GROUNDER_H_
