// The synthesis option table: one row per user-facing synthesis choice —
// the scheduler (Figs. 3–5) and its list priority, the FU and register
// allocators (§3.2, Fig. 7), the state encoding (§2), the optimization
// level, and the numeric and boolean knobs. Each row carries the serve
// "options" JSON key, the CLI flag, the value tokens, the value kind and
// the CLI/serve default. The CLI flag parser (cli/args.h), the daemon's
// body decoder (serve/service.cpp), the usage text and the fuzz matrix
// labels all read this table, so every option is spelled exactly once.
#pragma once

#include <charconv>
#include <span>
#include <string>
#include <string_view>

#include "common/json_reader.h"
#include "core/synthesizer.h"

namespace mphls::options {

enum class Kind {
  Enum,  ///< one of `tokens`
  Int,   ///< an integer in [min, INT_MAX]
  Bool,  ///< a JSON bool; on the CLI a switch that turns it on
};

/// One spelling of an enum value.
struct Token {
  std::string_view text;
  int value;
};

struct Option {
  std::string_view key;     ///< serve "options" member ("" = CLI-only)
  std::string_view flag;    ///< CLI flag
  std::string_view what;    ///< option name in the serve 400 text
  Kind kind;
  std::span<const Token> tokens;  ///< Enum only
  int min;                        ///< Int only
  int def;                        ///< CLI/serve default
  void (*set)(SynthesisOptions&, int);
};

/// Every row, in usage order.
[[nodiscard]] std::span<const Option> table();

/// The CLI and serve baseline: every row at its default (universalSet(2)
/// FUs, list scheduling, standard optimization).
[[nodiscard]] SynthesisOptions defaults();

/// CLI path: apply one row from its flag's value token ("" for a switch,
/// which turns it on). False on a bad token or number.
bool applyToken(const Option& o, std::string_view value,
                SynthesisOptions& opts);

/// JSON path: apply every member of a serve "options" object. Returns ""
/// on success, else the 400 message ("bad fus", "unknown option: k").
[[nodiscard]] std::string applyJson(const json::Node& obj,
                                    SynthesisOptions& opts);

/// Whole-token decimal number in [lo, hi]; false on anything else
/// ("3x", " 3", "nan", out of range).
template <class T>
bool parseNumber(std::string_view text, T lo, T hi, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) return false;
  out = v;
  return true;
}

/// The value token of an enum value, e.g. token(RegAllocMethod::LeftEdge)
/// is "leftedge".
[[nodiscard]] std::string_view token(SchedulerKind v);
[[nodiscard]] std::string_view token(ListPriority v);
[[nodiscard]] std::string_view token(OptLevel v);
[[nodiscard]] std::string_view token(FuAllocMethod v);
[[nodiscard]] std::string_view token(RegAllocMethod v);
[[nodiscard]] std::string_view token(StateEncoding v);

}  // namespace mphls::options
