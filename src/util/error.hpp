// Error handling primitives for the crowdrank library.
//
// The library reports precondition violations and unrecoverable states by
// throwing `crowdrank::Error` (a std::runtime_error). The CR_EXPECTS /
// CR_ENSURES macros mirror the GSL Expects/Ensures contract idiom from the
// C++ Core Guidelines (I.6/I.8) but throw instead of terminating so that
// harness code (benches, examples) can surface a readable message.
#pragma once

#include <stdexcept>
#include <string>

namespace crowdrank {

/// Exception type thrown on contract violations and invalid configurations.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Builds the exception message and throws; out-of-line to keep the check
/// macros cheap at call sites.
[[noreturn]] void raise_contract_violation(const char* kind, const char* expr,
                                           const char* file, int line,
                                           const std::string& message);
}  // namespace detail

}  // namespace crowdrank

/// Precondition check: throws crowdrank::Error when `cond` is false.
#define CR_EXPECTS(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::crowdrank::detail::raise_contract_violation("precondition", #cond, \
                                                    __FILE__, __LINE__,    \
                                                    (msg));                \
    }                                                                      \
  } while (false)

/// Postcondition / invariant check: throws crowdrank::Error when false.
#define CR_ENSURES(cond, msg)                                               \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::crowdrank::detail::raise_contract_violation("postcondition", #cond, \
                                                    __FILE__, __LINE__,     \
                                                    (msg));                 \
    }                                                                       \
  } while (false)

/// Debug-only contract check for per-element accessors on the inference hot
/// path (Matrix::row, PreferenceGraph::weight and out_edges row walks).
/// These fire on every inner-loop iteration, so Release builds compile them
/// out; define CROWDRANK_DEBUG_CHECKS=1 (automatic when NDEBUG is absent)
/// to keep them. API-level preconditions stay on CR_EXPECTS unconditionally.
#ifndef CROWDRANK_DEBUG_CHECKS
#ifdef NDEBUG
#define CROWDRANK_DEBUG_CHECKS 0
#else
#define CROWDRANK_DEBUG_CHECKS 1
#endif
#endif

#if CROWDRANK_DEBUG_CHECKS
#define CR_DEBUG_EXPECTS(cond, msg) CR_EXPECTS(cond, msg)
#else
#define CR_DEBUG_EXPECTS(cond, msg) \
  do {                              \
  } while (false)
#endif
