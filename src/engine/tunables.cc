#include "engine/tunables.h"

#include <cstdlib>
#include <mutex>

#include "util/logging.h"
#include "util/mem_budget.h"
#include "util/strings.h"

namespace probkb {

namespace {

std::mutex g_tunables_mu;
Tunables g_tunables;  // guarded by g_tunables_mu

/// One row per knob: the single validator behind both override sources.
struct Knob {
  const char* name;  // Tunables field name = the --tunable key
  const char* env;
  int64_t min_value;
  /// Round down to a power of two in [1, 256]: the partition router takes
  /// the top log2(parts) hash bits.
  bool pow2;
  /// Byte size with optional K/M/G suffix ("512M"), parsed by
  /// ParseByteSize.
  bool byte_size;
  /// Settable by name (--tunable); the out-of-core knobs have their own
  /// flags instead.
  bool by_name;
  int64_t Tunables::*field;
};

constexpr Knob kKnobs[] = {
    {"parallel_min_rows", "PROBKB_PARALLEL_MIN_ROWS", 1, false, false, true,
     &Tunables::parallel_min_rows},
    {"hash_chunk_rows", "PROBKB_HASH_CHUNK_ROWS", 64, false, false, true,
     &Tunables::hash_chunk_rows},
    {"morsel_rows", "PROBKB_MORSEL_ROWS", 64, false, false, true,
     &Tunables::morsel_rows},
    {"serial_fanout_row_cutoff", "PROBKB_SERIAL_FANOUT_CUTOFF", 0, false,
     false, true, &Tunables::serial_fanout_row_cutoff},
    {"max_build_partitions", "PROBKB_MAX_BUILD_PARTITIONS", 1, true, false,
     true, &Tunables::max_build_partitions},
    {"mem_budget_bytes", "PROBKB_MEM_BUDGET", 0, false, true, false,
     &Tunables::mem_budget_bytes},
    {"spill_page_bytes", "PROBKB_SPILL_PAGE_BYTES", 4096, false, true, false,
     &Tunables::spill_page_bytes},
    {"grace_split_min_rows", "PROBKB_GRACE_SPLIT_MIN_ROWS", 1, false, false,
     false, &Tunables::grace_split_min_rows},
};

/// Parses and validates `text` for `knob`; on success writes the (clamped)
/// value into `*t`.
Status ApplyKnob(const Knob& knob, std::string_view text, Tunables* t) {
  int64_t v = 0;
  bool parsed = false;
  if (knob.byte_size) {
    auto bytes = ParseByteSize(text);
    parsed = bytes.ok();
    if (parsed) v = *bytes;
  } else {
    parsed = ParseInt64(StripWhitespace(text), &v);
  }
  if (!parsed || v < knob.min_value) {
    return Status::InvalidArgument(StrFormat(
        "%s wants %s >= %lld, got '%.*s'", knob.name,
        knob.byte_size ? "a byte size (e.g. 256M)" : "an integer",
        static_cast<long long>(knob.min_value),
        static_cast<int>(text.size()), text.data()));
  }
  if (knob.pow2) {
    int64_t pow2 = 1;
    while (pow2 * 2 <= v && pow2 < 256) pow2 *= 2;
    v = pow2;
  }
  t->*knob.field = v;
  return Status::OK();
}

}  // namespace

std::string Tunables::ToString() const {
  return StrFormat(
      "parallel_min_rows=%lld hash_chunk_rows=%lld morsel_rows=%lld "
      "serial_fanout_row_cutoff=%lld max_build_partitions=%lld "
      "mem_budget_bytes=%lld spill_page_bytes=%lld "
      "grace_split_min_rows=%lld",
      static_cast<long long>(parallel_min_rows),
      static_cast<long long>(hash_chunk_rows),
      static_cast<long long>(morsel_rows),
      static_cast<long long>(serial_fanout_row_cutoff),
      static_cast<long long>(max_build_partitions),
      static_cast<long long>(mem_budget_bytes),
      static_cast<long long>(spill_page_bytes),
      static_cast<long long>(grace_split_min_rows));
}

Tunables GetTunables() {
  std::lock_guard<std::mutex> lock(g_tunables_mu);
  return g_tunables;
}

void SetTunables(const Tunables& t) {
  std::lock_guard<std::mutex> lock(g_tunables_mu);
  g_tunables = t;
}

Tunables ApplyTunablesEnv(Tunables base) {
  for (const Knob& knob : kKnobs) {
    const char* env = std::getenv(knob.env);
    if (env == nullptr) continue;
    if (Status st = ApplyKnob(knob, env, &base); !st.ok()) {
      PROBKB_SLOG(Engine, Warning)
          << "ignoring " << knob.env << ": " << st.message() << "; keeping "
          << base.*knob.field;
    }
  }
  return base;
}

Status SetTunableFromString(Tunables* t, std::string_view name,
                            std::string_view text) {
  for (const Knob& knob : kKnobs) {
    if (knob.by_name && name == knob.name) return ApplyKnob(knob, text, t);
  }
  return Status::InvalidArgument(StrFormat(
      "unknown tunable '%.*s'", static_cast<int>(name.size()), name.data()));
}

}  // namespace probkb
