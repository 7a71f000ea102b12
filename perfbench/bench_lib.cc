#include "perfbench/bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <thread>
#include <utility>

#include "kb/relational_model.h"
#include "relational/value.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

Quartiles QuartilesOf(std::vector<double> v) {
  if (v.empty()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, and cut point i
  // interpolates between data[j - 1] and data[j] with j = i * m // 4
  // clamped to [1, n - 1] before the interpolation weight is taken.
  const int64_t m = static_cast<int64_t>(v.size()) + 1;
  double q[3];
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j =
        std::clamp<int64_t>(i * m / 4, 1, static_cast<int64_t>(v.size()) - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

std::optional<double> TailPercentile(std::vector<double> v, double pct,
                                     int64_t min_beyond) {
  if (v.empty() || !(pct > 0.0 && pct < 100.0)) return std::nullopt;
  const int64_t n = static_cast<int64_t>(v.size());
  // Nearest rank: the smallest rank r (1-based) with r >= pct% of n.
  int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[static_cast<size_t>(rank - 1)];
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

QualityScore ScoreInferred(const probkb::Table& t_pi,
                           probkb::FactId first_inferred_id,
                           const probkb::GroundTruth& truth) {
  namespace tpi = probkb::tpi;
  QualityScore score;
  double squared_error = 0.0;
  for (int64_t r = 0; r < t_pi.NumRows(); ++r) {
    if (t_pi.ValueAt(r, tpi::kI).i64() < first_inferred_id) continue;
    ++score.inferred;
    const bool is_true = truth.IsTrue(t_pi.ValueAt(r, tpi::kR).i64(),
                                      t_pi.ValueAt(r, tpi::kX).i64(),
                                      t_pi.ValueAt(r, tpi::kY).i64());
    if (is_true) ++score.correct;
    const probkb::Value w = t_pi.ValueAt(r, tpi::kW);
    if (w.is_null()) continue;
    const double err = w.f64() - (is_true ? 1.0 : 0.0);
    squared_error += err * err;
    ++score.scored_marginals;
  }
  score.precision = score.inferred == 0
                        ? 0.0
                        : static_cast<double>(score.correct) /
                              static_cast<double>(score.inferred);
  score.brier = score.scored_marginals == 0
                    ? std::numeric_limits<double>::quiet_NaN()
                    : squared_error /
                          static_cast<double>(score.scored_marginals);
  return score;
}

uint64_t TableDigest(const probkb::Table& table) {
  std::vector<int> cols(static_cast<size_t>(table.width()));
  std::iota(cols.begin(), cols.end(), 0);
  constexpr int64_t kChunk = 4096;
  std::vector<size_t> hashes(kChunk);
  uint64_t digest = static_cast<uint64_t>(table.NumRows());
  for (int64_t begin = 0; begin < table.NumRows(); begin += kChunk) {
    const int64_t end = std::min(table.NumRows(), begin + kChunk);
    table.HashRows(cols, begin, end, hashes.data());
    for (int64_t i = 0; i < end - begin; ++i) {
      digest = probkb::CombineRowHash(digest, hashes[static_cast<size_t>(i)]);
    }
  }
  return digest;
}

uint64_t DoublesDigest(const std::vector<double>& values) {
  uint64_t digest = static_cast<uint64_t>(values.size());
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    digest = probkb::CombineRowHash(digest, probkb::value_hash::Mix(bits));
  }
  return digest;
}

HostProbe::HostProbe(uint32_t entries) : next_(entries) {
  for (uint32_t i = 0; i < entries; ++i) next_[i] = i;
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (uint32_t i = entries; i > 1; --i) {
    // splitmix64
    state += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    std::swap(next_[i - 1], next_[z % (i - 1)]);
  }
}

uint32_t HostProbe::Walk(int64_t steps, uint32_t from) const {
  uint32_t at = from;
  for (int64_t k = 0; k < steps; ++k) at = next_[at];
  return at;
}

double HostProbe::Seconds(int threads) const {
  std::vector<uint32_t> ends(static_cast<size_t>(threads));
  auto walk = [&](int t) {
    const uint64_t from = next_.size() * static_cast<uint64_t>(t) /
                          static_cast<uint64_t>(threads);
    ends[static_cast<size_t>(t)] = Walk(kSteps, static_cast<uint32_t>(from));
  };
  const double t0 = NowSeconds();
  std::vector<std::thread> others;
  for (int t = 1; t < threads; ++t) others.emplace_back(walk, t);
  walk(0);
  for (std::thread& th : others) th.join();
  const double seconds = NowSeconds() - t0;
  volatile uint32_t sink = ends[0];
  (void)sink;
  return seconds;
}

std::vector<double> SpanSeconds(const std::vector<probkb::SpanRecord>& spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const probkb::SpanRecord& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.dur_us) * 1e-6);
  }
  return out;
}

std::vector<double> UnattributedShares(
    const std::vector<probkb::SpanRecord>& spans) {
  std::map<std::pair<uint64_t, uint64_t>, int64_t> child_us;
  for (const probkb::SpanRecord& s : spans) {
    if (s.parent_id != 0) child_us[{s.trace_id, s.parent_id}] += s.dur_us;
  }
  std::vector<double> shares;
  for (const probkb::SpanRecord& s : spans) {
    if (s.parent_id != 0 || s.dur_us <= 0) continue;
    const auto it = child_us.find({s.trace_id, s.span_id});
    const int64_t children = it == child_us.end() ? 0 : it->second;
    const int64_t unattributed = std::max<int64_t>(0, s.dur_us - children);
    shares.push_back(static_cast<double>(unattributed) /
                     static_cast<double>(s.dur_us));
  }
  return shares;
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string body;
  for (const Metric& m : metrics) {
    double value = m.value;
    if (!std::isfinite(value) || !IsValidMetricName(m.name)) {
      correct = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), value,
                  m.unit.c_str());
    body += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
  return std::string(head) + "\"metrics\": {" + body + "}}";
}

}  // namespace perfbench
