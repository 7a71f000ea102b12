#ifndef PROBKB_SERVE_QUERY_SERVER_H_
#define PROBKB_SERVE_QUERY_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "grounding/local_grounder.h"
#include "infer/subgraph.h"
#include "kb/kb_query.h"
#include "kb/relational_model.h"
#include "obs/stats_registry.h"
#include "relational/snapshot.h"
#include "util/result.h"

namespace probkb {

/// \brief Per-query knobs of the serving path.
struct ServeOptions {
  LocalGroundingOptions grounding;
  SubgraphInferenceOptions inference;
  /// Answers reported per query (0 = all matches).
  int top_k = 10;
  /// Published-epoch indexes kept cached; older ones are rebuilt on demand
  /// if a long-pinned reader comes back for them.
  int max_cached_epochs = 4;
};

/// \brief One answered query.
struct ServeAnswer {
  struct Entry {
    FactId id = -1;
    std::string text;
    /// Marginal P(fact) from inference over the local subgraph.
    double probability = 0.0;
    bool inferred = false;
  };
  int64_t epoch = -1;
  /// Descending probability, ties broken by ascending fact id.
  std::vector<Entry> entries;
  /// Locality report: atoms grounded for this query vs the epoch's full
  /// TPi size.
  int64_t grounded_atoms = 0;
  int64_t total_atoms = 0;
  int depth_reached = 0;
  bool truncated = false;
  /// True when the subgraph was small enough for exact enumeration.
  bool exact = false;

  std::string ToString() const;
};

/// \brief On-demand query serving over snapshot-versioned tables.
///
/// One writer (the background expansion loop) publishes epochs via
/// PublishEpoch(); any number of reader threads answer queries via
/// Answer()/AnswerAt(). A query pins an epoch, backward-chains from the
/// atoms matching the pattern to a bounded proof neighborhood
/// (GroundLocalSubgraph), and runs exact or seeded-Gibbs inference on just
/// that subgraph — so answers are deterministic per (epoch, query,
/// options) and concurrent readers at the same epoch get bit-identical
/// results regardless of what the writer publishes meanwhile.
class QueryServer {
 public:
  /// `kb` supplies the dictionaries; it must outlive the server and stay
  /// frozen (serving never adds entities or relations — expansion only
  /// derives new facts over the existing vocabulary).
  /// `first_inferred_id` is the RelationalKB's next_fact_id before any
  /// grounding: facts at or above it are flagged inferred.
  QueryServer(const KnowledgeBase* kb, FactId first_inferred_id,
              ServeOptions options = {});

  /// \brief Publishes `rkb`'s current tables as the next epoch: snapshots
  /// TPi and the six MLN partitions copy-on-write and swaps them in
  /// atomically. Writer-thread only, and must not race the writer's own
  /// table mutations (call between fixpoint iterations).
  Result<int64_t> PublishEpoch(const RelationalKB& rkb);

  /// \brief Pins the newest epoch (FailedPrecondition before the first
  /// publish). Readers hold the pin across queries for repeatable reads.
  Result<PinnedSnapshot> PinNewest() const;

  /// \brief Parses `query_text` and answers it at the newest epoch.
  Result<ServeAnswer> Answer(const std::string& query_text);

  /// \brief Answers `pattern` at the pinned epoch.
  Result<ServeAnswer> AnswerAt(const QueryPattern& pattern,
                               const PinnedSnapshot& pin);

  int64_t current_epoch() const { return store_.current_epoch(); }
  SnapshotStore* store_for_test() { return &store_; }

  /// \brief Rendered serve metrics (latency histograms + counters). The
  /// registry is guarded by the server's stats mutex, so this is safe
  /// while readers are in flight.
  std::string StatsText() const;
  int64_t StatsCounter(const std::string& name) const;

  /// \brief Prometheus-text-format snapshot of the serve metrics plus a
  /// `probkb_serve_epoch` gauge. This is what the metrics socket ships on
  /// every poll; same locking contract as StatsText().
  std::string PrometheusText() const;

  /// \brief Number of epoch indexes currently cached.
  size_t CachedEpochCount() const;

 private:
  /// Frozen per-epoch read amplifiers, built once and shared by every
  /// query at that epoch: the name->row index (KbQuery), the fact id->row
  /// map the local grounder seeds from, and the entity->rows index it
  /// gathers each round's neighbourhood from.
  struct EpochIndex {
    TablePtr t_pi;
    std::array<TablePtr, kNumRuleStructures> m;
    std::unique_ptr<KbQuery> query;
    std::unordered_map<FactId, int64_t> row_of;
    EntityRowIndex by_entity;
  };

  /// A non-null `cache_hit` reports whether the epoch's index was already
  /// cached (the serve trace tags its "epoch_index" span with it). A miss
  /// builds the index without holding `index_mu_`, so readers of cached
  /// epochs never wait on a build; when two readers miss the same epoch
  /// at once, the first to finish is cached and both use it.
  Result<std::shared_ptr<const EpochIndex>> IndexFor(
      const PinnedSnapshot& pin, bool* cache_hit = nullptr);

  const KnowledgeBase* kb_;
  FactId first_inferred_id_;
  ServeOptions options_;
  SnapshotStore store_;

  mutable std::mutex index_mu_;
  /// epoch -> index, newest at the back; bounded by max_cached_epochs.
  std::deque<std::pair<int64_t, std::shared_ptr<const EpochIndex>>> cache_;

  mutable std::mutex stats_mu_;
  StatsRegistry stats_;
};

}  // namespace probkb

#endif  // PROBKB_SERVE_QUERY_SERVER_H_
