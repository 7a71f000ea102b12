// Knowledge-expansion benchmark program.
//
//   probkb_perfbench --workload <expand|quality|serve|expand-mpp>
//                    --seed <n> --seconds <s> --trace <0|1> [--out-dir <d>]
//
// Generates the synthetic ReVerb-Sherlock KB (fact order, sampler seeds
// and query order from --seed), sets up once, discards one warm-up
// operation and then runs operations back to back for --seconds: one
// ExpandKnowledgeBase call per repetition on the batch workloads, one
// QueryServer::AnswerAt query per operation in a two-reader closed loop on
// `serve`. A fixed host-speed probe runs after every batch repetition and
// every block of serve queries; op_per_probe is the median repetition /
// probe ratio on batch workloads and mean latency / mean probe time on
// `serve`. Timed set-ups follow the operations; setup_s is their median. Every operation's output is checked against the first one.
// The last stdout line is the JSON result; with --trace 1 it carries the
// per-layer metrics of a call-by-call replay under probkb::TraceSpan spans
// instead of the end-to-end ones.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/probkb.h"
#include "datagen/synthetic_kb.h"
#include "engine/tunables.h"
#include "factor/factor_graph.h"
#include "grounding/grounder.h"
#include "grounding/local_grounder.h"
#include "grounding/mpp_grounder.h"
#include "infer/gibbs.h"
#include "infer/subgraph.h"
#include "infer/writeback.h"
#include "kb/kb_query.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "perfbench/bench_lib.h"
#include "quality/rule_cleaning.h"
#include "serve/query_server.h"
#include "util/random.h"

namespace perfbench {
namespace {

using namespace probkb;

/// Fixed inputs of one workload; only the seed varies between runs.
struct WorkloadSpec {
  std::string name;
  double scale = 0.1;
  /// Rule cleaning: keep this top fraction of rules (1 keeps all).
  double theta = 1.0;
  /// Query 3 up front and after every grounding iteration.
  bool constraints = false;
  int max_iterations = 4;
  int threads = 4;
  int burn_in_sweeps = 20;
  int sample_sweeps = 80;
  bool mpp = false;
  bool serve = false;
};

WorkloadSpec SpecFor(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "quality" || name == "serve") {
    s.theta = 0.5;
    s.constraints = true;
    s.max_iterations = 50;  // runs to the fixpoint
    s.threads = 1;
    s.burn_in_sweeps = 200;
    s.sample_sweeps = 800;
  }
  if (name == "serve") s.scale = 0.05;
  if (name == "expand-mpp") s.mpp = true;
  s.serve = name == "serve";
  return s;
}

constexpr int kMppSegments = 8;
/// One set-up builds the objects the operations use. After the operations,
/// in a warm process as the operations are timed, set-up repeats for at
/// least this long and this many times; setup_s is the median of those.
constexpr double kSetupSeconds = 2.5;
constexpr int kMinSetupRepetitions = 5;
/// Serve: two reader threads, at least this many answered queries per run
/// (so the p99 has ten samples beyond it), over a fixed mix this long; each
/// reader runs the host probe after every block of this many queries.
constexpr int kServeReaders = 2;
constexpr int64_t kMinServeQueries = 1000;
constexpr int kServeMixSize = 256;
constexpr int kServeBlock = 32;
static_assert(kServeMixSize % kServeBlock == 0, "blocks tile the mix");
/// Batch: at least this many timed repetitions, whatever --seconds says.
constexpr int kMinRepetitions = 5;
/// Hard stop for the loops that also wait on a minimum sample count.
constexpr double kMaxLoopSeconds = 120.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (args->workload == "expand" ||
                           args->workload == "quality" ||
                           args->workload == "serve" ||
                           args->workload == "expand-mpp");
}

/// Operation and check accounting of one run.
struct Tally {
  std::mutex mu;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
};

/// Peak RSS since the last ResetPeakRss(), in MiB (whole-process peak
/// where the kernel cannot reset it).
double PeakRssMiB() {
  long long kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return static_cast<double>(kb) / 1024.0;
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

ExpansionOptions OptionsFor(const WorkloadSpec& spec, uint64_t seed) {
  ExpansionOptions o;
  o.rule_cleaning_theta = spec.theta;
  o.constraints_upfront = spec.constraints;
  o.grounding.apply_constraints_each_iteration = spec.constraints;
  o.grounding.max_iterations = spec.max_iterations;
  o.grounding.num_threads = spec.threads;
  o.grounding.mem_budget_bytes = 0;
  o.gibbs.burn_in_sweeps = spec.burn_in_sweeps;
  o.gibbs.sample_sweeps = spec.sample_sweeps;
  o.gibbs.seed = seed;
  o.use_mpp = spec.mpp;
  o.mpp_segments = kMppSegments;
  o.mpp_mode = MppMode::kViews;
  return o;
}

/// The KB exactly as ExpandKnowledgeBase prepares it before loading.
KnowledgeBase CleanedKb(const KnowledgeBase& kb, double theta) {
  KnowledgeBase working = kb;
  if (theta < 1.0) {
    *working.mutable_rules() = TopThetaRules(working.rules(), theta);
  }
  return working;
}

/// What one expansion produced, for the repetition-equality check.
struct ExpansionDigest {
  uint64_t t_pi = 0;
  uint64_t t_phi = 0;
  uint64_t marginals = 0;
  bool operator==(const ExpansionDigest&) const = default;
};

ExpansionDigest DigestOf(const Table& t_pi, const Table& t_phi,
                         const std::vector<double>& marginals) {
  return {TableDigest(t_pi), TableDigest(t_phi), DoublesDigest(marginals)};
}

/// Sorted (R, x, C1, y, C2) keys of every atom: the closure independent
/// of fact ids and row order.
std::vector<std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>> AtomSet(
    const Table& t_pi) {
  std::vector<std::tuple<int64_t, int64_t, int64_t, int64_t, int64_t>> keys;
  keys.reserve(static_cast<size_t>(t_pi.NumRows()));
  for (int64_t r = 0; r < t_pi.NumRows(); ++r) {
    keys.emplace_back(t_pi.ValueAt(r, tpi::kR).i64(),
                      t_pi.ValueAt(r, tpi::kX).i64(),
                      t_pi.ValueAt(r, tpi::kC1).i64(),
                      t_pi.ValueAt(r, tpi::kY).i64(),
                      t_pi.ValueAt(r, tpi::kC2).i64());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Names and units of the result line, in BENCHMARK.json order (run.py
/// checks the two agree).
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"op_per_probe", "ratio"},
    {"peak_rss_mib", "MiB"},  {"precision", "ratio"},
    {"correct_facts", "count"}, {"marginal_brier", "score"},
};
constexpr MetricSpec kPerLayer[] = {
    {"datagen.generate_s", "s"},
    {"kb.load_s", "s"},
    {"kb.facts", "count"},
    {"kb.rules", "count"},
    {"grounding.query3_s", "s"},
    {"grounding.constraint_deleted", "count"},
    {"grounding.ground_atoms_s", "s"},
    {"grounding.iterations", "count"},
    {"grounding.new_atoms", "count"},
    {"grounding.statements", "count"},
    {"grounding.first_iteration_s", "s"},
    {"grounding.last_iteration_s", "s"},
    {"grounding.ground_factors_s", "s"},
    {"grounding.factors", "count"},
    {"engine.join_build_s", "s"},
    {"engine.join_probe_s", "s"},
    {"engine.join_rows_out", "count"},
    {"grounding.useful_ratio", "ratio"},
    // Raw wall time first; the simulator's modelled time only beside it.
    {"mpp.ground_atoms_s", "s"},
    {"mpp.simulated_s", "s"},
    {"mpp.tuples_shipped", "count"},
    {"mpp.ground_factors_s", "s"},
    {"factor.build_s", "s"},
    {"factor.variables", "count"},
    {"factor.factors", "count"},
    {"infer.gibbs_s", "s"},
    {"infer.updates_per_s", "1/s"},
    {"infer.writeback_s", "s"},
    {"serve.publish_s", "s"},
    {"serve.first_query_ms", "ms"},
    {"serve.query_ms_p50", "ms"},
    {"serve.query_ms_p99", "ms"},
    {"grounding.local_ground_ms_p50", "ms"},
    {"grounding.local_ground_ms_p99", "ms"},
    {"infer.subgraph_ms_p50", "ms"},
    {"infer.subgraph_ms_p99", "ms"},
    {"serve.grounded_atoms_per_query", "count"},
    {"serve.locality", "ratio"},
    {"serve.exact_share", "ratio"},
    {"serve.truncated_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead", "ratio"},
};

/// Metric values by name. Per-layer metrics of a layer the workload does
/// not run are left unset and read 0.
using Report = std::map<std::string, double>;

/// The result line's metrics for the run's mode; false when `report` sets
/// a name the mode does not declare or misses an end-to-end metric.
bool ToMetrics(const Report& report, bool trace, std::vector<Metric>* out) {
  const std::span<const MetricSpec> table =
      trace ? std::span<const MetricSpec>(kPerLayer)
            : std::span<const MetricSpec>(kEndToEnd);
  size_t found = 0;
  for (const MetricSpec& m : table) {
    auto it = report.find(m.name);
    if (it != report.end()) ++found;
    out->push_back({m.name, it == report.end() ? 0.0 : it->second, m.unit});
  }
  // Every value needs a declared name; end-to-end metrics are all required.
  return found == report.size() && (trace || found == table.size());
}

/// Appends traced[i] / untraced[i]: each traced replay runs right after
/// its untraced twin, so a pair sees the same host conditions and the
/// median ratio is the tracing overhead.
void AppendOverheads(const std::vector<double>& traced,
                     const std::vector<double>& untraced,
                     std::vector<double>* out) {
  for (size_t i = 0; i < std::min(traced.size(), untraced.size()); ++i) {
    out->push_back(traced[i] / untraced[i]);
  }
}

/// Everything set-up builds; the last of the repeated set-ups is kept.
struct Setup {
  SyntheticKb generated;
  /// After rule cleaning; on the heap so the server's pointer to it stays
  /// valid when a later set-up replaces it.
  std::unique_ptr<KnowledgeBase> kb;
  RelationalKB rkb;  // loaded; grounded to the fixpoint on `serve`
  FactId first_inferred_id = 0;
  std::unique_ptr<QueryServer> server;
  std::vector<QueryPattern> mix;  // serve only
  std::vector<double> total_s, generate_s, load_s, query3_s, ground_s,
      publish_s;
  /// Serve only: the set-up fixpoint's record and Query 3 deletions.
  GroundingStats grounding;
  int64_t upfront_deleted = 0;
};

ServeOptions ServeOptionsFor(uint64_t seed) {
  ServeOptions o;
  o.inference.gibbs.seed = seed;
  return o;
}

/// The serve query mix. Like the KB, its content is fixed: each query is
/// drawn from a uniformly sampled fact of the generator's (unshuffled) KB,
/// so it inherits the Zipf entity skew, and kinds repeat in blocks of ten:
/// six r(x,*), three r(x,y), one bare entity. The seed permutes the order.
std::vector<QueryPattern> MakeServeMix(const KnowledgeBase& kb,
                                       uint64_t seed) {
  Rng rng(0x5EB7E0C0FFEEULL);
  std::vector<QueryPattern> mix;
  for (int i = 0; i < kServeMixSize; ++i) {
    const Fact& f = kb.facts()[rng.Uniform(kb.facts().size())];
    const int kind = i % 10;
    QueryPattern p;
    const std::string x = kb.entities().NameOrPlaceholder(f.x);
    if (kind < 9) {
      p.relation = kb.relations().NameOrPlaceholder(f.relation);
      p.x = x;
      if (kind >= 6) p.y = kb.entities().NameOrPlaceholder(f.y);
    } else {
      p.entity = x;
    }
    mix.push_back(std::move(p));
  }
  Rng order(seed);
  for (size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[order.Uniform(i)]);
  }
  return mix;
}

/// The KB's content is the generator's default one, as the paper evaluates
/// on one fixed KB; the seed permutes its fact order, which changes every
/// fact id, hash-table layout and sampling order but not the closure.
void ShuffleFacts(uint64_t seed, KnowledgeBase* kb) {
  std::vector<Fact>& facts = *kb->mutable_facts();
  Rng rng(seed);
  for (size_t i = facts.size(); i > 1; --i) {
    std::swap(facts[i - 1], facts[rng.Uniform(i)]);
  }
}

/// Runs set-up at least `min_repetitions` times and for at least
/// `min_seconds`, appending the timings to `setup`. With `keep`, the last
/// set-up's objects replace those in `setup`; without, they are discarded
/// (the timing window after the operations, whose objects are in use).
bool RunSetup(const WorkloadSpec& spec, uint64_t seed, bool keep,
              int min_repetitions, double min_seconds, Setup* setup) {
  const double start = NowSeconds();
  for (int n = 0;
       n < min_repetitions || NowSeconds() - start < min_seconds; ++n) {
    // Built into locals and moved into `setup` after the clock stops, so
    // tearing down the previous set-up is not timed.
    const double t0 = NowSeconds();
    SyntheticKbConfig config;
    config.scale = spec.scale;
    Result<SyntheticKb> generated = GenerateReverbSherlockKb(config);
    if (!generated.ok()) return false;
    std::vector<QueryPattern> mix;
    if (spec.serve) mix = MakeServeMix(generated->kb, seed);
    ShuffleFacts(seed, &generated->kb);
    const double t1 = NowSeconds();
    auto kb = std::make_unique<KnowledgeBase>(
        CleanedKb(generated->kb, spec.theta));
    RelationalKB rkb = BuildRelationalModel(*kb);
    const FactId first_inferred_id = rkb.next_fact_id;
    const double t2 = NowSeconds();
    setup->generate_s.push_back(t1 - t0);
    setup->load_s.push_back(t2 - t1);
    std::unique_ptr<QueryServer> server;
    if (spec.serve) {
      GroundingOptions g = OptionsFor(spec, seed).grounding;
      Grounder grounder(&rkb, g);
      Result<int64_t> deleted = grounder.ApplyConstraints();
      if (!deleted.ok()) return false;
      const double t3 = NowSeconds();
      if (!grounder.GroundAtoms().ok()) return false;
      const double t4 = NowSeconds();
      setup->upfront_deleted = *deleted;
      setup->grounding = grounder.stats();
      server = std::make_unique<QueryServer>(kb.get(), first_inferred_id,
                                             ServeOptionsFor(seed));
      if (!server->PublishEpoch(rkb).ok()) return false;
      const double t5 = NowSeconds();
      setup->query3_s.push_back(t3 - t2);
      setup->ground_s.push_back(t4 - t3);
      setup->publish_s.push_back(t5 - t4);
    }
    setup->total_s.push_back(NowSeconds() - t0);
    if (!keep) continue;
    // The server points into the KB: drop the old server first.
    setup->server = std::move(server);
    setup->generated = generated.MoveValueOrDie();
    setup->kb = std::move(kb);
    setup->rkb = std::move(rkb);
    setup->first_inferred_id = first_inferred_id;
    setup->mix = std::move(mix);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Batch workloads: expand, quality, expand-mpp.

/// Per-layer figures of one traced replay of ExpandKnowledgeBase.
struct ReplayCounts {
  int iterations = 0;
  int64_t new_atoms = 0;
  int64_t statements = 0;
  int64_t constraint_deleted = 0;
  int64_t factors = 0;
  int64_t variables = 0;
  int64_t graph_factors = 0;
  double updates_per_s = 0.0;
  double mpp_simulated_s = 0.0;
  int64_t mpp_tuples_shipped = 0;
  double join_build_s = 0.0;
  double join_probe_s = 0.0;
  int64_t join_rows_out = 0;
};

/// Replays ExpandKnowledgeBase call by call under spans of `tracer` (one
/// trace per replay); returns false on any non-OK status. `digest`
/// receives the replay's outputs.
bool ReplayExpansion(const WorkloadSpec& spec, const ExpansionOptions& o,
                     const KnowledgeBase& generated, Tracer* tracer,
                     ExpansionDigest* digest, ReplayCounts* counts) {
  TraceSpan root(tracer, "expand", "core");
  KnowledgeBase working;
  {
    TraceSpan s(tracer, "quality.rule_cleaning", "quality");
    working = CleanedKb(generated, o.rule_cleaning_theta);
  }
  RelationalKB rkb;
  {
    TraceSpan s(tracer, "kb.load", "kb");
    rkb = BuildRelationalModel(working);
  }
  int64_t upfront_deleted = 0;
  if (o.constraints_upfront) {
    TraceSpan s(tracer, "grounding.query3", "grounding");
    Grounder pre(&rkb, o.grounding);
    Result<int64_t> deleted = pre.ApplyConstraints();
    if (!deleted.ok()) return false;
    upfront_deleted = *deleted;
  }
  TablePtr t_pi;
  TablePtr t_phi;
  GroundingStats stats;
  StatsRegistry registry;
  if (!spec.mpp) {
    std::unique_ptr<Grounder> g;
    {
      TraceSpan s(tracer, "grounding.setup", "grounding");
      g = std::make_unique<Grounder>(&rkb, o.grounding);
      g->set_stats_registry(&registry);
    }
    {
      TraceSpan s(tracer, "grounding.ground_atoms", "grounding");
      while (g->stats().iterations < o.grounding.max_iterations) {
        TraceSpan it(tracer, "grounding.iteration", "grounding");
        Result<int64_t> added = g->GroundAtomsIteration();
        if (!added.ok()) return false;
        if (*added == 0) break;
      }
    }
    {
      TraceSpan s(tracer, "grounding.ground_factors", "grounding");
      Result<TablePtr> factors = g->GroundFactors();
      if (!factors.ok()) return false;
      t_phi = factors.MoveValueOrDie();
    }
    stats = g->stats();
    t_pi = rkb.t_pi;
    for (const OpTotals& op : registry.op_totals()) {
      counts->join_build_s += op.build_seconds;
      counts->join_probe_s += op.probe_seconds;
      if (op.label.find("Join") != std::string::npos) {
        counts->join_rows_out += op.rows_out;
      }
    }
  } else {
    std::unique_ptr<MppGrounder> g;
    {
      TraceSpan s(tracer, "mpp.distribute", "mpp");
      g = std::make_unique<MppGrounder>(rkb, o.mpp_segments, o.mpp_mode,
                                        o.grounding);
    }
    {
      TraceSpan s(tracer, "mpp.ground_atoms", "mpp");
      while (g->stats().iterations < o.grounding.max_iterations) {
        TraceSpan it(tracer, "mpp.iteration", "mpp");
        Result<int64_t> added = g->GroundAtomsIteration();
        if (!added.ok()) return false;
        if (*added == 0) break;
      }
    }
    {
      TraceSpan s(tracer, "mpp.ground_factors", "mpp");
      Result<TablePtr> factors = g->GroundFactors();
      if (!factors.ok()) return false;
      t_phi = factors.MoveValueOrDie();
    }
    {
      TraceSpan s(tracer, "mpp.gather", "mpp");
      t_pi = g->GatherTPi();
    }
    stats = g->stats();
    counts->mpp_simulated_s = g->cost().simulated_seconds();
    counts->mpp_tuples_shipped = g->cost().tuples_shipped();
  }
  std::unique_ptr<FactorGraph> graph;
  {
    TraceSpan s(tracer, "factor.build", "factor");
    Result<FactorGraph> built = FactorGraph::FromTables(*t_pi, *t_phi);
    if (!built.ok()) return false;
    graph = std::make_unique<FactorGraph>(built.MoveValueOrDie());
  }
  GibbsResult inference;
  {
    TraceSpan s(tracer, "infer.gibbs", "infer");
    GibbsCheckpoint state;
    Result<GibbsResult> r = GibbsMarginals(*graph, o.gibbs, &state);
    while (r.ok() && !r->complete) r = GibbsMarginals(*graph, o.gibbs, &state);
    if (!r.ok()) return false;
    inference = r.MoveValueOrDie();
  }
  {
    TraceSpan s(tracer, "infer.writeback", "infer");
    if (!WriteMarginalsToTPi(t_pi.get(), *graph, inference.marginals).ok()) {
      return false;
    }
  }
  root.End();
  *digest = DigestOf(*t_pi, *t_phi, inference.marginals);
  counts->iterations = stats.iterations;
  for (int64_t n : stats.iteration_new_atoms) counts->new_atoms += n;
  counts->statements = stats.statements;
  counts->constraint_deleted = upfront_deleted + stats.constraint_deleted;
  counts->factors = t_phi->NumRows();
  counts->variables = graph->num_variables();
  counts->graph_factors = graph->num_factors();
  if (!inference.chain_samples_per_sec.empty()) {
    counts->updates_per_s = inference.chain_samples_per_sec.front();
  }
  return true;
}

/// The closure of a single-node grounding of the same KB: what the MPP
/// grounder's gathered TPi must hold.
bool SingleNodeAtomSetMatches(const KnowledgeBase& kb,
                              const ExpansionOptions& o, const Table& mpp) {
  ExpansionOptions single = o;
  single.use_mpp = false;
  KnowledgeBase working = CleanedKb(kb, single.rule_cleaning_theta);
  RelationalKB rkb = BuildRelationalModel(working);
  if (single.constraints_upfront) {
    Grounder pre(&rkb, single.grounding);
    if (!pre.ApplyConstraints().ok()) return false;
  }
  Grounder g(&rkb, single.grounding);
  if (!g.GroundAtoms().ok()) return false;
  return AtomSet(*rkb.t_pi) == AtomSet(mpp);
}

int RunBatch(const WorkloadSpec& spec, const Args& args, Setup& setup,
             Tally* tally, Report* report) {
  const ExpansionOptions o = OptionsFor(spec, args.seed);
  const KnowledgeBase& kb = setup.generated.kb;
  // Times ExpandKnowledgeBase alone: the digest and the result's teardown
  // stay outside `seconds`.
  auto expand = [&](ExpansionDigest* digest, double* seconds,
                    ExpansionResult* keep) -> bool {
    const double t0 = NowSeconds();
    Result<ExpansionResult> r = ExpandKnowledgeBase(kb, o);
    *seconds = NowSeconds() - t0;
    if (!r.ok() || r->partial) return false;
    *digest = DigestOf(*r->t_pi, *r->t_phi, r->inference.marginals);
    if (keep != nullptr) *keep = r.MoveValueOrDie();
    return true;
  };

  const HostProbe probe;
  ResetPeakRss();
  // Warm-up: fills allocator and thread-pool caches; its output is the
  // reference every later repetition must reproduce.
  ExpansionResult first;
  ExpansionDigest reference;
  double warm_s = 0.0;
  const bool warm_ok = expand(&reference, &warm_s, &first);
  tally->Record(warm_ok, "warm-up expansion");
  if (!warm_ok) return 1;
  probe.Seconds(spec.threads);

  // Each repetition's time, and that time over the probe's right after it.
  std::vector<double> untraced, per_probe, probe_s;
  // The benchmark's own tracer: the program's internal spans report into
  // Tracer::Global(), which stays off.
  Tracer tracer;
  tracer.set_enabled(args.trace);
  std::vector<ReplayCounts> replay_counts;
  const double start = NowSeconds();
  uint64_t rep = 0;
  while (NowSeconds() - start < kMaxLoopSeconds &&
         (NowSeconds() - start < args.seconds ||
          static_cast<int>(untraced.size()) < kMinRepetitions)) {
    ExpansionDigest digest;
    double dt = 0.0;
    const bool ok = expand(&digest, &dt, nullptr);
    tally->Record(ok && digest == reference,
                  "expansion repetition " + std::to_string(rep));
    if (ok) {
      probe_s.push_back(probe.Seconds(spec.threads));
      untraced.push_back(dt);
      per_probe.push_back(dt / probe_s.back());
    }
    if (args.trace) {
      // Interleave a traced replay after each untraced repetition so both
      // see the same host conditions.
      ExpansionDigest replayed;
      ReplayCounts counts;
      const bool replay_ok =
          ReplayExpansion(spec, o, kb, &tracer, &replayed, &counts);
      tally->Record(replay_ok && replayed == reference,
                    "traced replay " + std::to_string(rep));
      if (replay_ok) replay_counts.push_back(counts);
    }
    ++rep;
  }
  const double window = NowSeconds() - start;
  const double peak_mib = PeakRssMiB();

  if (spec.mpp) {
    // Outside the timed loop and set-up: the distributed closure must be
    // the single-node closure.
    tally->Record(SingleNodeAtomSetMatches(kb, o, *first.t_pi),
                  "MPP closure equals single-node closure");
  }

  const QualityScore q =
      ScoreInferred(*first.t_pi, first.first_inferred_id,
                    setup.generated.truth);
  std::printf("quality: %lld inferred, %lld correct, precision %.4f, "
              "brier %.4f over %lld marginals\n",
              static_cast<long long>(q.inferred),
              static_cast<long long>(q.correct), q.precision, q.brier,
              static_cast<long long>(q.scored_marginals));
  std::printf("warm-up (s): %.3f\nrepetitions (s):", warm_s);
  for (double t : untraced) std::printf(" %.3f", t);
  std::printf("\nprobes (s):");
  for (double t : probe_s) std::printf(" %.4f", t);
  const Quartiles rq = QuartilesOf(untraced);
  std::printf("\nexpansion: %lld atoms, %lld factors, %d iterations; %zu "
              "timed repetitions in %.2f s, mean %.4f s, median %.4f s, "
              "quartiles %.4f..%.4f s; median probe %.4f s, median "
              "repetition / probe %.3f\n",
              static_cast<long long>(first.t_pi->NumRows()),
              static_cast<long long>(first.t_phi->NumRows()),
              first.grounding_stats.iterations, untraced.size(), window,
              Mean(untraced), rq.q2, rq.q1, rq.q3, Median(probe_s),
              Median(per_probe));

  if (!args.trace) {
    Report& r = *report;
    r["op_per_probe"] = Median(per_probe);
    r["peak_rss_mib"] = peak_mib;
    r["precision"] = q.precision;
    r["correct_facts"] = static_cast<double>(q.correct);
    r["marginal_brier"] = q.brier;
    return 0;
  }

  if (replay_counts.empty()) return 1;
  tally->Record(tracer.dropped_spans() == 0, "every span kept");
  const ReplayCounts& c = replay_counts.back();
  const std::vector<SpanRecord> spans = tracer.CollectSpans();
  auto med = [&](const char* span) { return Median(SpanSeconds(spans, span)); };
  std::vector<double> first_iter, last_iter;
  {
    // First and last grounding iteration of each replay (one trace each);
    // iterations close in order.
    const std::string_view iter_name =
        spec.mpp ? "mpp.iteration" : "grounding.iteration";
    std::map<uint64_t, std::vector<double>> per_trace;
    for (const SpanRecord& s : spans) {
      if (iter_name == s.name) {
        per_trace[s.trace_id].push_back(static_cast<double>(s.dur_us) * 1e-6);
      }
    }
    for (const auto& [trace, iters] : per_trace) {
      first_iter.push_back(iters.front());
      last_iter.push_back(iters.back());
    }
  }
  std::vector<double> overheads;
  AppendOverheads(SpanSeconds(spans, "expand"), untraced, &overheads);
  Report& r = *report;
  r["kb.facts"] = static_cast<double>(kb.facts().size());
  r["kb.rules"] = static_cast<double>(setup.kb->rules().size());
  if (spec.constraints) r["grounding.query3_s"] = med("grounding.query3");
  r["grounding.constraint_deleted"] = static_cast<double>(c.constraint_deleted);
  r["grounding.iterations"] = c.iterations;
  r["grounding.new_atoms"] = static_cast<double>(c.new_atoms);
  r["grounding.statements"] = static_cast<double>(c.statements);
  r["grounding.first_iteration_s"] = Median(first_iter);
  r["grounding.last_iteration_s"] = Median(last_iter);
  r["grounding.factors"] = static_cast<double>(c.factors);
  if (spec.mpp) {
    r["mpp.ground_atoms_s"] = med("mpp.ground_atoms");
    r["mpp.simulated_s"] = c.mpp_simulated_s;
    r["mpp.tuples_shipped"] = static_cast<double>(c.mpp_tuples_shipped);
    r["mpp.ground_factors_s"] = med("mpp.ground_factors");
  } else {
    r["grounding.ground_atoms_s"] = med("grounding.ground_atoms");
    r["grounding.ground_factors_s"] = med("grounding.ground_factors");
    r["engine.join_build_s"] = c.join_build_s;
    r["engine.join_probe_s"] = c.join_probe_s;
    r["engine.join_rows_out"] = static_cast<double>(c.join_rows_out);
    if (c.join_rows_out > 0) {
      r["grounding.useful_ratio"] = static_cast<double>(c.new_atoms) /
                                    static_cast<double>(c.join_rows_out);
    }
  }
  r["factor.build_s"] = med("factor.build");
  r["factor.variables"] = static_cast<double>(c.variables);
  r["factor.factors"] = static_cast<double>(c.graph_factors);
  r["infer.gibbs_s"] = med("infer.gibbs");
  r["infer.updates_per_s"] = c.updates_per_s;
  r["infer.writeback_s"] = med("infer.writeback");
  r["trace.unattributed_share"] = Median(UnattributedShares(spans));
  r["trace.overhead"] = Median(overheads);
  const std::string path = args.out_dir + "/spans-" + spec.name + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (tracer.WriteJsonl(path).ok()) std::printf("spans: %s\n", path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Serve workload.

uint64_t AnswerDigest(const ServeAnswer& a) {
  std::vector<double> fields = {
      static_cast<double>(a.epoch), static_cast<double>(a.grounded_atoms),
      static_cast<double>(a.total_atoms), static_cast<double>(a.depth_reached),
      a.truncated ? 1.0 : 0.0, a.exact ? 1.0 : 0.0};
  for (const ServeAnswer::Entry& e : a.entries) {
    fields.push_back(static_cast<double>(e.id));
    fields.push_back(e.probability);
    fields.push_back(e.inferred ? 1.0 : 0.0);
  }
  return DoublesDigest(fields);
}

/// Serve's answer to a query replayed call by call under spans (one trace
/// per query): the seed rows, the local ground subgraph, its marginals,
/// and the entries AnswerAt would return (ids and probabilities, same
/// order and top-k).
struct ServeReplayer {
  TablePtr t_pi;
  std::array<TablePtr, kNumRuleStructures> m;
  std::unique_ptr<KbQuery> query;
  std::unordered_map<FactId, int64_t> row_of;
  ServeOptions options;

  bool Replay(const QueryPattern& pattern, Tracer* tracer,
              std::vector<std::pair<FactId, double>>* out) const {
    TraceSpan root(tracer, "serve.query", "serve");
    std::vector<int64_t> seeds;
    {
      TraceSpan s(tracer, "kb.seed_rows", "kb");
      seeds = query->SeedRows(pattern);
    }
    std::optional<Result<LocalGrounding>> grounding;
    {
      TraceSpan s(tracer, "grounding.local_ground", "grounding");
      grounding.emplace(GroundLocalSubgraph(t_pi, m, row_of, seeds,
                                            options.grounding));
    }
    if (!grounding->ok()) return false;
    std::optional<Result<SubgraphMarginals>> marginals;
    {
      TraceSpan s(tracer, "infer.subgraph", "infer");
      marginals.emplace(ComputeSubgraphMarginals(
          *(*grounding)->sub_t_pi, *(*grounding)->t_phi, options.inference));
    }
    if (!marginals->ok()) return false;
    out->clear();
    for (int64_t r : seeds) {
      const FactId id = t_pi->ValueAt(r, tpi::kI).i64();
      const auto& probability = (*marginals)->probability;
      auto it = probability.find(id);
      out->emplace_back(id, it == probability.end() ? 0.0 : it->second);
    }
    std::sort(out->begin(), out->end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (options.top_k > 0 && out->size() > static_cast<size_t>(options.top_k)) {
      out->resize(static_cast<size_t>(options.top_k));
    }
    return true;
  }
};

bool SameEntries(const ServeAnswer& a,
                 const std::vector<std::pair<FactId, double>>& replayed) {
  if (a.entries.size() != replayed.size()) return false;
  for (size_t i = 0; i < replayed.size(); ++i) {
    if (a.entries[i].id != replayed[i].first ||
        a.entries[i].probability != replayed[i].second) {
      return false;
    }
  }
  return true;
}

/// One reader's samples and its own tracer (spans of the traced replays).
struct ReaderLog {
  std::vector<double> latency_s;
  /// The probe's time after every block of kServeBlock queries.
  std::vector<double> probe_s;
  int64_t answered = 0;
  int64_t grounded_atoms = 0;
  double locality = 0.0;
  int64_t exact = 0;
  int64_t truncated = 0;
  std::unique_ptr<Tracer> tracer;
};

int RunServe(const WorkloadSpec& spec, const Args& args, Setup& setup,
             Tally* tally, Report* report) {
  QueryServer& server = *setup.server;
  const std::vector<QueryPattern>& mix = setup.mix;
  Result<PinnedSnapshot> pin = server.PinNewest();
  tally->Record(pin.ok(), "pin the published epoch");
  if (!pin.ok()) return 1;

  const HostProbe probe;
  ResetPeakRss();
  probe.Seconds();
  // First query after publishing builds the epoch's indexes.
  const double f0 = NowSeconds();
  Result<ServeAnswer> first = server.AnswerAt(mix[0], *pin);
  const double first_query_ms = (NowSeconds() - f0) * 1e3;
  tally->Record(first.ok(), "first query");
  if (!first.ok()) return 1;

  // Reference answer per mix entry: the first one seen must match every
  // later answer to the same query, from either reader.
  std::mutex ref_mu;
  std::vector<uint64_t> reference(mix.size(), 0);
  std::vector<bool> have_reference(mix.size(), false);
  std::vector<ServeAnswer> reference_answers(mix.size());
  reference[0] = AnswerDigest(*first);
  have_reference[0] = true;
  reference_answers[0] = *first;
  auto check = [&](size_t idx, const ServeAnswer& a) {
    const uint64_t d = AnswerDigest(a);
    std::lock_guard<std::mutex> lock(ref_mu);
    if (!have_reference[idx]) {
      have_reference[idx] = true;
      reference[idx] = d;
      reference_answers[idx] = a;
      return true;
    }
    return reference[idx] == d;
  };

  ServeReplayer replayer{setup.rkb.t_pi, setup.rkb.m, nullptr, {},
                         ServeOptionsFor(args.seed)};
  if (args.trace) {
    replayer.query = std::make_unique<KbQuery>(setup.kb.get(), setup.rkb.t_pi,
                                               setup.first_inferred_id);
    replayer.row_of = BuildFactRowIndex(*setup.rkb.t_pi);
  }

  std::vector<ReaderLog> logs(kServeReaders);
  for (ReaderLog& log : logs) {
    log.tracer = std::make_unique<Tracer>();
    log.tracer->set_enabled(args.trace);
  }
  std::atomic<int64_t> total_answered{0};
  const double start = NowSeconds();
  auto reader = [&](int r) {
    ReaderLog& log = logs[static_cast<size_t>(r)];
    const size_t n = mix.size();
    for (int64_t k = 0;; ++k) {
      if (k > 0 && k % kServeBlock == 0) log.probe_s.push_back(probe.Seconds());
      const double elapsed = NowSeconds() - start;
      // A reader stops only between whole passes over the mix, so it has
      // answered every entry equally often.
      const bool enough = k % static_cast<int64_t>(n) == 0 && k > 0 &&
                          elapsed >= args.seconds &&
                          total_answered.load() >= kMinServeQueries;
      if (enough || elapsed >= kMaxLoopSeconds) break;
      // Reader 0 walks the mix forwards, reader 1 backwards, so every
      // query is answered by both readers and again on later passes.
      const size_t idx = r == 0 ? static_cast<size_t>(k) % n
                                : n - 1 - static_cast<size_t>(k) % n;
      const double t0 = NowSeconds();
      Result<ServeAnswer> a = server.AnswerAt(mix[idx], *pin);
      const double dt = NowSeconds() - t0;
      const bool ok = a.ok() && check(idx, *a);
      tally->Record(ok, "query " + mix[idx].ToString());
      if (!a.ok()) continue;
      log.latency_s.push_back(dt);
      ++log.answered;
      total_answered.fetch_add(1);
      log.grounded_atoms += a->grounded_atoms;
      if (a->total_atoms > 0) {
        log.locality += static_cast<double>(a->grounded_atoms) /
                        static_cast<double>(a->total_atoms);
      }
      log.exact += a->exact ? 1 : 0;
      log.truncated += a->truncated ? 1 : 0;
      if (args.trace) {
        std::vector<std::pair<FactId, double>> replayed;
        const bool replay_ok =
            replayer.Replay(mix[idx], log.tracer.get(), &replayed);
        tally->Record(replay_ok && SameEntries(*a, replayed),
                      "traced replay of " + mix[idx].ToString());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < kServeReaders; ++r) threads.emplace_back(reader, r);
  for (std::thread& t : threads) t.join();
  const double window = NowSeconds() - start;
  const double peak_mib = PeakRssMiB();

  std::vector<double> latency_ms, probe_s;
  int64_t answered = 0, grounded = 0, exact = 0, truncated = 0;
  double locality = 0.0;
  for (const ReaderLog& log : logs) {
    probe_s.insert(probe_s.end(), log.probe_s.begin(), log.probe_s.end());
    for (size_t i = 0; i < log.latency_s.size(); ++i) {
      latency_ms.push_back(log.latency_s[i] * 1e3);
    }
    answered += log.answered;
    grounded += log.grounded_atoms;
    locality += log.locality;
    exact += log.exact;
    truncated += log.truncated;
  }
  for (size_t i = 0; i < mix.size(); ++i) {
    tally->Record(have_reference[i], "mix query answered " +
                                         mix[i].ToString());
  }
  const std::optional<double> p99 = TailPercentile(latency_ms, 99.0);

  // Quality: the epoch's inferred facts against the ground truth, and the
  // Brier score of every probability the mix was served.
  const QualityScore q = ScoreInferred(*setup.rkb.t_pi, setup.first_inferred_id,
                                       setup.generated.truth);
  const std::unordered_map<FactId, int64_t> row_of =
      BuildFactRowIndex(*setup.rkb.t_pi);
  double squared_error = 0.0;
  int64_t served = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (!have_reference[i]) continue;
    for (const ServeAnswer::Entry& e : reference_answers[i].entries) {
      auto it = row_of.find(e.id);
      if (it == row_of.end()) continue;
      const Table& t = *setup.rkb.t_pi;
      const bool is_true = setup.generated.truth.IsTrue(
          t.ValueAt(it->second, tpi::kR).i64(),
          t.ValueAt(it->second, tpi::kX).i64(),
          t.ValueAt(it->second, tpi::kY).i64());
      const double err = e.probability - (is_true ? 1.0 : 0.0);
      squared_error += err * err;
      ++served;
    }
  }
  const double brier = served > 0 ? squared_error / static_cast<double>(served)
                                  : std::nan("");
  const Quartiles lq = QuartilesOf(latency_ms);
  std::printf("serve: epoch of %lld atoms; %lld queries in %.2f s by %d "
              "readers (%.2f/s); mean %.3f ms, p50 %.3f ms (quartiles "
              "%.3f..%.3f), p99 %s ms; first query %.3f ms; %zu probes, "
              "mean %.4f s\n",
              static_cast<long long>(setup.rkb.t_pi->NumRows()),
              static_cast<long long>(answered), window, kServeReaders,
              static_cast<double>(answered) / window, Mean(latency_ms), lq.q2,
              lq.q1, lq.q3,
              p99 ? std::to_string(*p99).c_str() : "n/a (too few samples)",
              first_query_ms, probe_s.size(), Mean(probe_s));
  std::printf("quality: %lld inferred, %lld correct, precision %.4f; served "
              "Brier %.4f over %lld probabilities\n",
              static_cast<long long>(q.inferred),
              static_cast<long long>(q.correct), q.precision, brier,
              static_cast<long long>(served));

  const double n_answered =
      std::max<double>(1.0, static_cast<double>(answered));
  if (!args.trace) {
    Report& r = *report;
    r["op_per_probe"] = Mean(latency_ms) * 1e-3 / Mean(probe_s);
    r["peak_rss_mib"] = peak_mib;
    r["precision"] = q.precision;
    r["correct_facts"] = static_cast<double>(q.correct);
    r["marginal_brier"] = brier;
    return 0;
  }

  std::vector<double> local_ms, subgraph_ms, overheads, unattributed;
  for (const ReaderLog& log : logs) {
    tally->Record(log.tracer->dropped_spans() == 0, "every span kept");
    const std::vector<SpanRecord> spans = log.tracer->CollectSpans();
    for (double s : SpanSeconds(spans, "grounding.local_ground")) {
      local_ms.push_back(s * 1e3);
    }
    for (double s : SpanSeconds(spans, "infer.subgraph")) {
      subgraph_ms.push_back(s * 1e3);
    }
    AppendOverheads(SpanSeconds(spans, "serve.query"), log.latency_s,
                    &overheads);
    for (double s : UnattributedShares(spans)) unattributed.push_back(s);
  }
  const auto tail = [](const std::vector<double>& v) {
    return TailPercentile(v, 99.0).value_or(std::nan(""));
  };
  const GroundingStats& g = setup.grounding;
  int64_t new_atoms = 0;
  for (int64_t n : g.iteration_new_atoms) new_atoms += n;
  Report& r = *report;
  r["kb.facts"] = static_cast<double>(setup.generated.kb.facts().size());
  r["kb.rules"] = static_cast<double>(setup.kb->rules().size());
  r["grounding.constraint_deleted"] =
      static_cast<double>(setup.upfront_deleted + g.constraint_deleted);
  r["grounding.iterations"] = g.iterations;
  r["grounding.new_atoms"] = static_cast<double>(new_atoms);
  r["grounding.statements"] = static_cast<double>(g.statements);
  r["serve.first_query_ms"] = first_query_ms;
  r["serve.query_ms_p50"] = lq.q2;
  r["serve.query_ms_p99"] = p99.value_or(std::nan(""));
  r["grounding.local_ground_ms_p50"] = Median(local_ms);
  r["grounding.local_ground_ms_p99"] = tail(local_ms);
  r["infer.subgraph_ms_p50"] = Median(subgraph_ms);
  r["infer.subgraph_ms_p99"] = tail(subgraph_ms);
  r["serve.grounded_atoms_per_query"] =
      static_cast<double>(grounded) / n_answered;
  r["serve.locality"] = locality / n_answered;
  r["serve.exact_share"] = static_cast<double>(exact) / n_answered;
  r["serve.truncated_share"] = static_cast<double>(truncated) / n_answered;
  r["trace.unattributed_share"] = Median(unattributed);
  r["trace.overhead"] = Median(overheads);
  for (int i = 0; i < kServeReaders; ++i) {
    const std::string path = args.out_dir + "/spans-" + spec.name + "-" +
                             std::to_string(args.seed) + "-reader" +
                             std::to_string(i) + ".jsonl";
    if (logs[static_cast<size_t>(i)].tracer->WriteJsonl(path).ok()) {
      std::printf("spans: %s\n", path.c_str());
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: probkb_perfbench --workload "
                 "<expand|quality|serve|expand-mpp> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  // Compiled defaults only: no calibration cache, no environment
  // overrides. Thread counts are set per workload below.
  SetTunables(Tunables{});
  const WorkloadSpec spec = SpecFor(args.workload);
  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: hardware_threads %u, compiler %s, build %s, "
              "threads %d\ntunables: %s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, spec.threads,
              GetTunables().ToString().c_str());

  Tally tally;
  Setup setup;
  const bool setup_ok =
      RunSetup(spec, args.seed, /*keep=*/true, 1, 0.0, &setup);
  tally.Record(setup_ok, "set-up");
  if (!setup_ok) return 1;

  Report report;
  const int rc = spec.serve ? RunServe(spec, args, setup, &tally, &report)
                            : RunBatch(spec, args, setup, &tally, &report);
  if (rc != 0) return rc;
  std::printf("first set-up (s): %.3f\n", setup.total_s.front());
  setup.total_s.clear();
  setup.generate_s.clear();
  setup.load_s.clear();
  setup.query3_s.clear();
  setup.ground_s.clear();
  setup.publish_s.clear();
  const bool timed_ok = RunSetup(spec, args.seed, /*keep=*/false,
                                 kMinSetupRepetitions, kSetupSeconds, &setup);
  tally.Record(timed_ok, "timed set-ups");
  if (!timed_ok) return 1;
  std::printf("set-ups (s):");
  for (double t : setup.total_s) std::printf(" %.3f", t);
  std::printf("\n");
  std::printf("set-up: %zu facts, %zu rules after cleaning; median %.4f s "
              "over %zu set-ups\n",
              setup.generated.kb.facts().size(), setup.kb->rules().size(),
              Median(setup.total_s), setup.total_s.size());
  if (args.trace) {
    report["datagen.generate_s"] = Median(setup.generate_s);
    report["kb.load_s"] = Median(setup.load_s);
    if (spec.serve) {
      report["grounding.query3_s"] = Median(setup.query3_s);
      report["grounding.ground_atoms_s"] = Median(setup.ground_s);
      report["serve.publish_s"] = Median(setup.publish_s);
    }
  } else {
    report["setup_s"] = Median(setup.total_s);
  }
  std::vector<Metric> metrics;
  if (!ToMetrics(report, args.trace, &metrics)) {
    std::fprintf(stderr, "a metric is missing from the name table\n");
    return 1;
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultLine(tally.failed == 0, tally.attempted,
                                 tally.failed, metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
