// Error hierarchy used across all RelKit modules.
//
// All public RelKit functions report failure by throwing a subclass of
// relkit::Error. Precondition violations on user-supplied models throw
// ModelError; numerical failures (non-convergence, singular systems) throw
// NumericalError; out-of-range or inconsistent arguments throw
// InvalidArgument.
#pragma once

#include <stdexcept>
#include <string>

namespace relkit {

/// Base class of every exception thrown by RelKit.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A user-supplied model is structurally invalid (e.g. a fault-tree gate with
/// no inputs, a CTMC row that does not sum to zero, an unknown state name).
class ModelError : public Error {
 public:
  explicit ModelError(const std::string& what) : Error(what) {}
};

/// A numerical method failed (singular matrix, iteration did not converge,
/// overflow in a weight computation).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// An argument is outside its documented domain.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

namespace detail {
/// Throws InvalidArgument with `msg` unless `cond` holds. The literal
/// overloads build no std::string when the check passes, so hot loops
/// (one matvec per uniformization step) stay allocation-free.
inline void require(bool cond, const char* msg) {
  if (!cond) throw InvalidArgument(msg);
}
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw InvalidArgument(msg);
}
/// Throws ModelError with `msg` unless `cond` holds.
inline void require_model(bool cond, const char* msg) {
  if (!cond) throw ModelError(msg);
}
inline void require_model(bool cond, const std::string& msg) {
  if (!cond) throw ModelError(msg);
}
}  // namespace detail

}  // namespace relkit
