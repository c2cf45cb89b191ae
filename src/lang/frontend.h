// One-call frontend: BDL source text -> verified CDFG Function.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "common/diag.h"
#include "ir/cdfg.h"

namespace mphls {

/// Compile `source`. `top` selects the top-level procedure; when empty the
/// last procedure in the file is used. Diagnostics accumulate in `diags`;
/// the result is nullopt whenever an error was reported.
[[nodiscard]] std::optional<Function> compileBdl(const std::string& source,
                                                 DiagEngine& diags,
                                                 const std::string& top = "");

/// A source that does not compile: a user error, not a broken invariant.
/// what() is "BDL compilation failed:\n" plus the diagnostic summary.
class CompileError : public std::runtime_error {
 public:
  explicit CompileError(const std::string& what) : std::runtime_error(what) {}
};

/// Compile or throw CompileError.
[[nodiscard]] Function compileBdlOrThrow(const std::string& source,
                                         const std::string& top = "");

}  // namespace mphls
