#include "serve/query_server.h"

#include <algorithm>

#include "obs/trace.h"
#include "relational/catalog.h"
#include "util/strings.h"
#include "util/timer.h"

namespace probkb {

namespace {

/// Epoch table names: TPi plus the six MLN partitions.
std::string MName(int p) { return StrFormat("m%d", p); }

/// Snapshot tables are immutable by contract; the grounder's plan
/// execution only reads its inputs, so sharing them back as mutable
/// TablePtr handles is safe. The cast is confined to this boundary.
TablePtr Thaw(const ConstTablePtr& table) {
  return std::const_pointer_cast<Table>(table);
}

}  // namespace

std::string ServeAnswer::ToString() const {
  std::string out = StrFormat(
      "epoch %lld: %zu answer(s), grounded %lld/%lld atoms, depth %d%s%s\n",
      static_cast<long long>(epoch), entries.size(),
      static_cast<long long>(grounded_atoms),
      static_cast<long long>(total_atoms), depth_reached,
      exact ? ", exact" : "", truncated ? ", truncated" : "");
  for (const Entry& e : entries) {
    out += StrFormat("  %.3f %s%s\n", e.probability, e.text.c_str(),
                     e.inferred ? " [inferred]" : "");
  }
  return out;
}

QueryServer::QueryServer(const KnowledgeBase* kb, FactId first_inferred_id,
                         ServeOptions options)
    : kb_(kb), first_inferred_id_(first_inferred_id), options_(options) {}

Result<int64_t> QueryServer::PublishEpoch(const RelationalKB& rkb) {
  Catalog catalog;
  PROBKB_RETURN_NOT_OK(catalog.Register("t_pi", rkb.t_pi));
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    PROBKB_RETURN_NOT_OK(
        catalog.Register(MName(p), rkb.m[static_cast<size_t>(p - 1)]));
  }
  return store_.Publish(catalog.Snapshot());
}

Result<PinnedSnapshot> QueryServer::PinNewest() const {
  PinnedSnapshot pin = store_.Pin();
  if (!pin.ok()) {
    return Status::NotFound(
        "no epoch published yet; serve after the first PublishEpoch()");
  }
  return pin;
}

Result<std::shared_ptr<const QueryServer::EpochIndex>> QueryServer::IndexFor(
    const PinnedSnapshot& pin, bool* cache_hit) {
  // Caller holds index_mu_.
  auto cached = [&]() -> std::shared_ptr<const EpochIndex> {
    for (const auto& [epoch, index] : cache_) {
      if (epoch == pin.epoch) return index;
    }
    return nullptr;
  };
  if (cache_hit != nullptr) *cache_hit = true;
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    if (auto index = cached()) return index;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  auto index = std::make_shared<EpochIndex>();
  PROBKB_ASSIGN_OR_RETURN(ConstTablePtr t_pi, pin.catalog->Get("t_pi"));
  index->t_pi = Thaw(t_pi);
  for (int p = 1; p <= kNumRuleStructures; ++p) {
    PROBKB_ASSIGN_OR_RETURN(ConstTablePtr m, pin.catalog->Get(MName(p)));
    index->m[static_cast<size_t>(p - 1)] = Thaw(m);
  }
  index->query =
      std::make_unique<KbQuery>(kb_, index->t_pi, first_inferred_id_);
  index->row_of = BuildFactRowIndex(*index->t_pi);
  index->by_entity = BuildEntityRowIndex(*index->t_pi);

  std::lock_guard<std::mutex> lock(index_mu_);
  // Another reader may have built this epoch meanwhile: keep one entry.
  if (auto winner = cached()) return winner;
  cache_.emplace_back(pin.epoch, index);
  while (options_.max_cached_epochs > 0 &&
         cache_.size() > static_cast<size_t>(options_.max_cached_epochs)) {
    cache_.pop_front();
  }
  return std::shared_ptr<const EpochIndex>(index);
}

size_t QueryServer::CachedEpochCount() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return cache_.size();
}

Result<ServeAnswer> QueryServer::Answer(const std::string& query_text) {
  TraceSpan serve_span(Tracer::Global(), "serve", "serve");
  QueryPattern pattern;
  {
    TraceSpan parse_span(Tracer::Global(), "parse", "serve",
                         static_cast<int64_t>(query_text.size()));
    PROBKB_ASSIGN_OR_RETURN(pattern, ParseQueryPattern(query_text));
  }
  TraceSpan pin_span(Tracer::Global(), "snapshot_pin", "serve");
  PROBKB_ASSIGN_OR_RETURN(PinnedSnapshot pin, PinNewest());
  pin_span.set_values(pin.epoch, 0, 0);
  pin_span.End();
  return AnswerAt(pattern, pin);
}

Result<ServeAnswer> QueryServer::AnswerAt(const QueryPattern& pattern,
                                          const PinnedSnapshot& pin) {
  if (!pin.ok()) {
    return Status::InvalidArgument("AnswerAt needs a pinned epoch");
  }
  Timer query_timer;
  TraceSpan query_span(Tracer::Global(), "serve_query", "serve", pin.epoch);
  bool cache_hit = false;
  std::shared_ptr<const EpochIndex> index;
  {
    TraceSpan index_span(Tracer::Global(), "epoch_index", "serve",
                         pin.epoch);
    PROBKB_ASSIGN_OR_RETURN(index, IndexFor(pin, &cache_hit));
    index_span.set_values(pin.epoch, cache_hit ? 1 : 0, 0);
  }
  const std::vector<int64_t> seeds = index->query->SeedRows(pattern);

  Timer ground_timer;
  TraceSpan ground_span(Tracer::Global(), "local_ground", "serve",
                        static_cast<int64_t>(seeds.size()));
  PROBKB_ASSIGN_OR_RETURN(
      LocalGrounding grounding,
      GroundLocalSubgraph(index->t_pi, index->m, index->row_of,
                          index->by_entity, seeds, options_.grounding));
  ground_span.set_values(grounding.grounded_atoms, grounding.depth_reached,
                         grounding.truncated ? 1 : 0);
  ground_span.End();
  const double ground_seconds = ground_timer.Seconds();

  Timer infer_timer;
  TraceSpan infer_span(Tracer::Global(), "infer", "serve");
  PROBKB_ASSIGN_OR_RETURN(
      SubgraphMarginals marginals,
      ComputeSubgraphMarginals(*grounding.sub_t_pi, *grounding.t_phi,
                               options_.inference));
  infer_span.set_values(marginals.exact ? 1 : 0,
                        grounding.grounded_atoms, 0);
  infer_span.End();
  const double infer_seconds = infer_timer.Seconds();

  ServeAnswer answer;
  answer.epoch = pin.epoch;
  answer.grounded_atoms = grounding.grounded_atoms;
  answer.total_atoms = grounding.total_atoms;
  answer.depth_reached = grounding.depth_reached;
  answer.truncated = grounding.truncated;
  answer.exact = marginals.exact;
  answer.entries.reserve(seeds.size());
  for (int64_t r : seeds) {
    RowView row = index->t_pi->row(r);
    ServeAnswer::Entry entry;
    entry.id = row[tpi::kI].i64();
    entry.text = kb_->FactToString(FactFromRow(row));
    entry.inferred = first_inferred_id_ >= 0
                         ? entry.id >= first_inferred_id_
                         : row[tpi::kW].is_null();
    auto it = marginals.probability.find(entry.id);
    entry.probability = it == marginals.probability.end() ? 0.0 : it->second;
    answer.entries.push_back(std::move(entry));
  }
  std::sort(answer.entries.begin(), answer.entries.end(),
            [](const ServeAnswer::Entry& a, const ServeAnswer::Entry& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.id < b.id;
            });
  if (options_.top_k > 0 &&
      answer.entries.size() > static_cast<size_t>(options_.top_k)) {
    answer.entries.resize(static_cast<size_t>(options_.top_k));
  }

  // End the root span before recording so the exemplar's trace is fully
  // emitted by the time a report links to it.
  const uint64_t trace_id = query_span.trace_id();
  query_span.set_values(pin.epoch, grounding.grounded_atoms,
                        static_cast<int64_t>(answer.entries.size()));
  query_span.End();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.RecordLatency("serve_query", query_timer.Seconds(), trace_id);
    stats_.RecordLatency("serve_ground", ground_seconds, trace_id);
    stats_.RecordLatency("serve_infer", infer_seconds, trace_id);
    stats_.IncrementCounter("serve_queries");
    stats_.IncrementCounter("serve_grounded_atoms",
                            grounding.grounded_atoms);
    stats_.IncrementCounter("serve_neighbourhood_rows",
                            grounding.neighbourhood_rows);
    stats_.IncrementCounter("serve_answers",
                            static_cast<int64_t>(answer.entries.size()));
    if (grounding.truncated) stats_.IncrementCounter("serve_truncated");
  }
  return answer;
}

std::string QueryServer::StatsText() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_.ToText();
}

int64_t QueryServer::StatsCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_.FindCounter(name);
}

std::string QueryServer::PrometheusText() const {
  std::string out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_.ToPrometheusText();
  }
  out += "# TYPE probkb_serve_epoch gauge\n";
  out += StrFormat("probkb_serve_epoch %lld\n",
                   static_cast<long long>(current_epoch()));
  return out;
}

}  // namespace probkb
