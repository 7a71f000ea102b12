// Checks of the benchmark's own helpers on hand-made inputs. Exits 1 on
// the first failed check; checks stay active in every build type.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kb/relational_model.h"
#include "perfbench/bench_lib.h"

namespace {

using namespace probkb;
using perfbench::Metric;

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestMedianAndQuartiles() {
  Check(Near(perfbench::Median({3, 1, 2}), 2.0), "median of odd count");
  Check(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "median of even count");
  Check(std::isnan(perfbench::Median({})), "median of nothing is NaN");
  Check(Near(perfbench::Mean({1, 2, 6}), 3.0), "mean");
  Check(std::isnan(perfbench::Mean({})), "mean of nothing is NaN");
  // Reference values from Python: statistics.quantiles(data, n=4).
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{1, 2}, 0.75, 1.5, 2.25},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{5, 1, 4, 2, 3, 9, 7}, 2.0, 4.0, 7.0},
  };
  for (const Case& c : cases) {
    const perfbench::Quartiles q = perfbench::QuartilesOf(c.data);
    Check(Near(q.q1, c.q1) && Near(q.q2, c.q2) && Near(q.q3, c.q3),
          "quartiles match statistics.quantiles");
  }
  const perfbench::Quartiles one = perfbench::QuartilesOf({7});
  Check(one.q1 == 7 && one.q3 == 7, "quartiles of one value");
}

void TestTailPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // unsorted
  const auto p99 = perfbench::TailPercentile(v, 99.0);
  Check(p99.has_value() && *p99 == 990, "p99 of 1..1000 is 990");
  v.pop_back();  // 999 samples: only nine lie beyond the p99 rank
  Check(!perfbench::TailPercentile(v, 99.0).has_value(),
        "p99 withheld with fewer than ten samples beyond it");
  const auto p50 = perfbench::TailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                              11, 12, 13, 14, 15, 16, 17, 18,
                                              19, 20},
                                             50.0);
  Check(p50.has_value() && *p50 == 10, "p50 of 1..20 is 10, ten beyond");
  Check(!perfbench::TailPercentile({}, 50.0).has_value(), "empty input");
}

void TestMetricNames() {
  for (const char* ok : {"op_mean_ms", "setup_s",
                         "grounding.local_ground_ms_p99",
                         "a-b", "9lives"}) {
    Check(perfbench::IsValidMetricName(ok), ok);
  }
  const std::string long_name(65, 'a');
  for (const std::string& bad :
       {std::string(""), std::string("_x"), std::string(".x"),
        std::string("a b"), std::string("a/b"), std::string("caf\xc3\xa9"),
        long_name}) {
    Check(!perfbench::IsValidMetricName(bad), "invalid name rejected");
  }
  Check(perfbench::IsValidMetricName(std::string(64, 'a')), "64 characters");
}

void AddFact(Table* t, int64_t id, int64_t r, int64_t x, int64_t y,
             Value w) {
  t->AppendRow({Value::Int64(id), Value::Int64(r), Value::Int64(x),
                Value::Int64(0), Value::Int64(y), Value::Int64(0), w});
}

void TestScorer() {
  TablePtr t_pi = Table::Make(TPiSchema());
  AddFact(t_pi.get(), 0, 1, 10, 11, Value::Float64(0.9));  // extracted
  AddFact(t_pi.get(), 1, 1, 12, 13, Value::Float64(0.8));  // extracted
  AddFact(t_pi.get(), 2, 2, 10, 13, Value::Float64(0.9));  // inferred, true
  AddFact(t_pi.get(), 3, 2, 12, 13, Value::Float64(0.2));  // inferred, false
  AddFact(t_pi.get(), 4, 3, 10, 10, Value::Null());  // inferred, no marginal
  GroundTruth truth;
  truth.true_closure.insert({1, 10, 11});
  truth.true_closure.insert({2, 10, 13});
  const perfbench::QualityScore s = perfbench::ScoreInferred(*t_pi, 2, truth);
  Check(s.inferred == 3, "facts at or above the first inferred id count");
  Check(s.correct == 1, "one inferred fact is true");
  Check(Near(s.precision, 1.0 / 3.0), "precision = correct / inferred");
  Check(s.scored_marginals == 2, "NULL weights are not scored");
  Check(Near(s.brier, (0.01 + 0.04) / 2), "Brier over scored marginals");
  // An ambiguous surface entity is true when any referent makes it true.
  truth.underlying[12] = {10, 14};
  const perfbench::QualityScore amb = perfbench::ScoreInferred(*t_pi, 2, truth);
  Check(amb.correct == 2, "ambiguous referent resolves to a true fact");
  const perfbench::QualityScore none =
      perfbench::ScoreInferred(*t_pi, 100, truth);
  Check(none.inferred == 0 && none.precision == 0 && std::isnan(none.brier),
        "nothing inferred");
}

void TestDigestsAndResultLine() {
  TablePtr a = Table::Make(TPiSchema());
  TablePtr b = Table::Make(TPiSchema());
  AddFact(a.get(), 0, 1, 2, 3, Value::Float64(0.5));
  AddFact(a.get(), 1, 4, 5, 6, Value::Null());
  AddFact(b.get(), 1, 4, 5, 6, Value::Null());
  AddFact(b.get(), 0, 1, 2, 3, Value::Float64(0.5));
  Check(perfbench::TableDigest(*a) == perfbench::TableDigest(*a->Clone()),
        "equal tables, equal digests");
  Check(perfbench::TableDigest(*a) != perfbench::TableDigest(*b),
        "row order changes the digest");
  Check(perfbench::DoublesDigest({0.1, 0.2}) !=
            perfbench::DoublesDigest({0.2, 0.1}),
        "value order changes the digest");

  const std::string line = perfbench::ResultLine(
      true, 3, 0, {Metric{"op_mean_ms", 1.25, "ms"}});
  Check(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                "\"metrics\": {\"op_mean_ms\": {\"value\": 1.25, "
                "\"unit\": \"ms\"}}}",
        "result line format");
  Check(perfbench::ResultLine(true, 1, 0, {Metric{"x", std::nan(""), "s"}})
                .find("\"correct\": false") != std::string::npos,
        "a NaN metric makes the run incorrect");
  Check(perfbench::ResultLine(true, 1, 0, {Metric{"bad name", 1, "s"}})
                .find("\"correct\": false") != std::string::npos,
        "an invalid name makes the run incorrect");
}

SpanRecord MakeSpan(const char* name, uint64_t trace, uint64_t id,
                    uint64_t parent, int64_t dur_us) {
  SpanRecord s;
  s.trace_id = trace;
  s.span_id = id;
  s.parent_id = parent;
  s.dur_us = dur_us;
  std::snprintf(s.name, sizeof(s.name), "%s", name);
  return s;
}

void TestSpanSummaries() {
  // Two traces in close order: children before their root. Trace 1's
  // children cover 60 of 100 us; trace 2's root has no children. A
  // grandchild does not count toward the root.
  const std::vector<SpanRecord> spans = {
      MakeSpan("stage", 1, 11, 10, 40),  MakeSpan("leaf", 1, 13, 12, 5),
      MakeSpan("stage", 1, 12, 10, 20),  MakeSpan("root", 1, 10, 0, 100),
      MakeSpan("root", 2, 11, 0, 50),
  };
  const std::vector<double> stage = perfbench::SpanSeconds(spans, "stage");
  Check(stage.size() == 2 && Near(stage[0], 40e-6) && Near(stage[1], 20e-6),
        "span durations in close order, in seconds");
  Check(perfbench::SpanSeconds(spans, "absent").empty(), "unknown span name");
  const std::vector<double> shares = perfbench::UnattributedShares(spans);
  Check(shares.size() == 2 && Near(shares[0], 0.4) && Near(shares[1], 1.0),
        "one unattributed share per root, direct children only");
}

void TestHostProbe() {
  // A single cycle: the chase returns to slot 0 after exactly `n` loads and
  // visits every slot on the way.
  const uint32_t n = 1000;
  const perfbench::HostProbe probe(n);
  std::vector<bool> seen(n, false);
  bool single_cycle = true;
  for (int64_t k = 1; k <= n; ++k) {
    const uint32_t at = probe.Walk(k);
    single_cycle = single_cycle && at < n && !seen[at] && (at == 0) == (k == n);
    if (at < n) seen[at] = true;
  }
  Check(single_cycle, "probe chase is one cycle through every slot");
  Check(probe.Seconds() > 0 && probe.Seconds(3) > 0,
        "probe takes measurable time on one and on several threads");
}

}  // namespace

int main() {
  TestMedianAndQuartiles();
  TestTailPercentile();
  TestMetricNames();
  TestScorer();
  TestDigestsAndResultLine();
  TestSpanSummaries();
  TestHostProbe();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helper checks passed\n");
  return 0;
}
