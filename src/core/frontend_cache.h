// Shared-frontend cache for design-space exploration.
//
// Every DSE sweep point used to re-lex, re-parse, re-lower and re-optimize
// the same BDL source before diverging in the backend; only scheduling and
// everything after it actually depend on the swept options. The cache
// memoizes (source, top, optimization level) -> optimized Function so a
// sweep pays the frontend once and each point starts from a clone()d IR.
// Chippe-style feedback iteration hits the same entry on every lap.
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
  /// The process-wide cache used by the DSE entry points.
  [[nodiscard]] static FrontendCache& global();

  /// Compile `source` (selecting procedure `top`), verify it, run the
  /// `opt` pass pipeline over it, and cache the result. Subsequent calls
  /// with the same key return the cached function without touching the
  /// frontend. Throws CompileError on a source that does not compile, like
  /// compileBdlOrThrow, and InternalError when the result fails to verify.
  [[nodiscard]] std::shared_ptr<const Function> get(const std::string& source,
                                                    const std::string& top,
                                                    OptLevel opt);

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
