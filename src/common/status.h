#ifndef FACTORML_COMMON_STATUS_H_
#define FACTORML_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace factorml {

/// Error categories used across the library. Mirrors the subset of
/// Arrow/RocksDB-style codes that this project needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kIoError,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  /// The operation was abandoned and is to be retried from the top: the
  /// shard plane's restart signal (core/pipeline/shard_rpc.h).
  kAborted,
};

/// Returns a human-readable name for a status code ("OK", "IOError", ...).
const char* StatusCodeToString(StatusCode code);

/// Lightweight error-or-success value. The library does not throw across
/// public API boundaries; fallible operations return `Status` or
/// `Result<T>`.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type `T` or an error `Status`. Accessing the
/// value of an errored result aborts (programming error).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (the common success path).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from a non-OK status.
  Result(Status status)  // NOLINT(runtime/explicit)
      : repr_(std::move(status)) {
    FML_CHECK(!std::get<Status>(repr_).ok())
        << "Result constructed from OK status";
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }

  T& value() & {
    FML_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  const T& value() const& {
    FML_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  T&& value() && {
    FML_CHECK(ok()) << "Result::value() on error: " << status().ToString();
    return std::move(std::get<T>(repr_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace factorml

/// Propagates a non-OK Status to the caller.
#define FML_RETURN_IF_ERROR(expr)                       \
  do {                                                  \
    ::factorml::Status _fml_status = (expr);            \
    if (!_fml_status.ok()) return _fml_status;          \
  } while (false)

#define FML_CONCAT_IMPL(a, b) a##b
#define FML_CONCAT(a, b) FML_CONCAT_IMPL(a, b)

/// Evaluates `rexpr` (a Result<T>); on error returns the status, otherwise
/// assigns the value to `lhs` (which may be a declaration).
#define FML_ASSIGN_OR_RETURN(lhs, rexpr)                        \
  auto FML_CONCAT(_fml_result_, __LINE__) = (rexpr);            \
  if (!FML_CONCAT(_fml_result_, __LINE__).ok())                 \
    return FML_CONCAT(_fml_result_, __LINE__).status();         \
  lhs = std::move(FML_CONCAT(_fml_result_, __LINE__)).value()

#endif  // FACTORML_COMMON_STATUS_H_
