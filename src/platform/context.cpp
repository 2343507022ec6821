#include "platform/context.hpp"

#include "platform/parallel.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace bitgb {

namespace {

[[noreturn]] void bad_env(const char* var, const char* value,
                          const char* expected) {
  throw std::invalid_argument(std::string(var) + "=\"" + value +
                              "\": expected " + expected);
}

}  // namespace

Context Context::from_env() {
  Context ctx;
  // The getenv calls below are the library's ONE environment seam (the
  // lint_invariants.py getenv-confinement rule pins them to this file);
  // nothing concurrently calls setenv, so the mt-unsafe findings are
  // excused here and nowhere else.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* e = std::getenv("BITGB_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(e, &end, 10);
    if (end == e || *end != '\0' || n < 1 || n > kMaxWorkerWidth) {
      bad_env("BITGB_THREADS", e,
              ("an integer in [1, " + std::to_string(kMaxWorkerWidth) + "]")
                  .c_str());
    }
    ctx.threads = static_cast<int>(n);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* e = std::getenv("BITGB_BACKEND")) {
    const std::string s(e);
    if (s == "bit") {
      ctx.backend = Backend::kBit;
    } else if (s == "reference") {
      ctx.backend = Backend::kReference;
    } else {
      bad_env("BITGB_BACKEND", e, "bit|reference");
    }
  }
  return ctx;
}

}  // namespace bitgb
