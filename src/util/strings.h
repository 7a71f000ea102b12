#ifndef PROBKB_UTIL_STRINGS_H_
#define PROBKB_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace probkb {

/// \brief Splits `input` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view input, char sep);

/// \brief Strips leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Parses a double; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// \brief Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

/// \brief What ParseBoundedInt64 did with the raw text.
struct BoundedInt64 {
  int64_t value = 0;
  /// Text was unparseable; `value` is the fallback.
  bool malformed = false;
  /// Parsed fine but landed outside [min, max]; `value` is the nearer
  /// bound.
  bool clamped = false;

  bool ok() const { return !malformed && !clamped; }
};

/// \brief Hardened numeric-knob parsing shared by CLI flags and env vars:
/// whitespace-tolerant, never throws, no UB on garbage. Unparseable text
/// yields `fallback`; out-of-range values clamp into [min_value,
/// max_value]. The helper never logs — callers decide how loudly to warn
/// on .malformed / .clamped.
BoundedInt64 ParseBoundedInt64(std::string_view text, int64_t fallback,
                               int64_t min_value, int64_t max_value);

/// \brief Escapes `s` for use inside a JSON string literal (quotes,
/// backslashes and control characters).
std::string JsonEscape(std::string_view s);

/// \brief Writes `body` to `path`, truncating; an IOError names `what`
/// (e.g. "trace") and the path on failure. The one writer behind every
/// dump file (stats JSON, traces, post-mortems).
Status WriteTextFile(const std::string& path, std::string_view body,
                     const char* what);

/// \brief Formats with printf semantics into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace probkb

#endif  // PROBKB_UTIL_STRINGS_H_
