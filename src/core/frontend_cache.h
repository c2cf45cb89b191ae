// The one frontend every design point starts from.
//
// Only scheduling and everything after it depend on the swept options, so
// the IR a design point starts from is a function of (source, top,
// optimization level, narrow) alone. The cache memoizes that key ->
// compiled, verified, optimize()d Function, and every entry point that
// synthesizes from source fetches its IR here: the DSE sweeps and Chippe
// (core/dse.h), the fuzzer's matrix points (fuzz/diff_runner.h) and the
// commands shared by the CLI and the serve daemon (core/commands.h). A
// sweep pays the frontend once and each point starts from a clone()d IR.
//
// Thread-safety: get() may be called from any thread; the returned Function
// is immutable (shared_ptr<const Function>) and safe to clone concurrently.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/synthesizer.h"

namespace mphls {

class FrontendCache {
 public:
  /// The process-wide cache every entry point fetches from.
  [[nodiscard]] static FrontendCache& global();

  /// Compile `source` (selecting procedure `top`), verify it, run
  /// optimize(fn, opt, narrow) over it, and cache the result. Subsequent
  /// calls with the same key return the cached function without touching
  /// the frontend. Throws CompileError when the source is rejected: it
  /// does not compile (compileBdlOrThrow's diagnostics) or the frontend's
  /// IR fails to verify. A pass that breaks the IR throws InternalError.
  [[nodiscard]] std::shared_ptr<const Function> get(const std::string& source,
                                                    const std::string& top,
                                                    OptLevel opt,
                                                    bool narrow = false);

  /// Evict everything (tests; also bench runs that want cold-cache timings).
  void clear();

  /// Per-thread hit/miss tracking for request-scoped attribution (the
  /// serve access log): clear before dispatching a request, then ask
  /// whether this thread hit the cache while handling it. A serve
  /// worker handles one request at a time, so the flags are exact.
  static void clearThreadStats();
  [[nodiscard]] static bool threadSawHit();
  [[nodiscard]] static bool threadSawMiss();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;

  /// Entries kept before the least-recently-used one is evicted.
  static constexpr std::size_t kCapacity = 64;

  FrontendCache();
  FrontendCache(const FrontendCache&) = delete;
  FrontendCache& operator=(const FrontendCache&) = delete;
  ~FrontendCache();

 private:
  struct Impl;
  [[nodiscard]] Impl& impl() const { return *impl_; }
  std::unique_ptr<Impl> impl_;
};

}  // namespace mphls
