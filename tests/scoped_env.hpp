// Test helper: set one environment variable for the life of a scope.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

#include "src/support/flight.hpp"
#include "src/support/trace.hpp"

namespace splice::testing_env {

/// Sets `var` to `value` (nullptr unsets it) and restores it at scope exit.
/// The global tracer and recorder read the real environment first, so a
/// test value never configures them.
class ScopedEnv {
 public:
  ScopedEnv(const char* var, const char* value) : var_(var) {
    (void)trace::Tracer::global();
    (void)flight::Recorder::global();
    if (const char* old = std::getenv(var)) old_ = old;
    if (value != nullptr) {
      ::setenv(var, value, 1);
    } else {
      ::unsetenv(var);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(var_, old_->c_str(), 1);
    } else {
      ::unsetenv(var_);
    }
  }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* var_;
  std::optional<std::string> old_;
};

}  // namespace splice::testing_env
