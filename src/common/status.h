// Status and Result<T>: exception-free error handling in the style of
// Arrow/RocksDB. Library code returns Status (or Result<T>) instead of
// throwing; callers either handle errors or use the QP_CHECK* macros at
// the application boundary.
#ifndef QP_COMMON_STATUS_H_
#define QP_COMMON_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

namespace qp {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  /// The target exists but cannot serve right now (a refused or closed
  /// connection); retrying later may succeed.
  kUnavailable,
  /// A caller-supplied deadline elapsed before the operation finished.
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error value. Cheap to copy on the success path (no
/// allocation); carries a message only when not OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value of type T or an error Status. Modeled after
/// arrow::Result / absl::StatusOr.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Precondition: ok(). Aborts otherwise.
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::cerr << "Result::value() on error: " << status_.ToString()
                << std::endl;
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_ = Status::OK();
};

// Propagates an error Status from an expression returning Status.
#define QP_RETURN_IF_ERROR(expr)            \
  do {                                      \
    ::qp::Status _qp_st = (expr);           \
    if (!_qp_st.ok()) return _qp_st;        \
  } while (0)

// Assigns the value of a Result expression to `lhs`, or propagates the error.
#define QP_ASSIGN_OR_RETURN(lhs, expr)        \
  auto QP_CONCAT_(_qp_res, __LINE__) = (expr);  \
  if (!QP_CONCAT_(_qp_res, __LINE__).ok())      \
    return QP_CONCAT_(_qp_res, __LINE__).status(); \
  lhs = std::move(QP_CONCAT_(_qp_res, __LINE__)).value()

#define QP_CONCAT_IMPL_(a, b) a##b
#define QP_CONCAT_(a, b) QP_CONCAT_IMPL_(a, b)

// Aborts if `expr` (a Status) is not OK. For application code / tests.
#define QP_CHECK_OK(expr)                                              \
  do {                                                                 \
    ::qp::Status _qp_st = (expr);                                      \
    if (!_qp_st.ok()) {                                                \
      std::cerr << __FILE__ << ":" << __LINE__                         \
                << " QP_CHECK_OK failed: " << _qp_st.ToString()        \
                << std::endl;                                          \
      std::abort();                                                    \
    }                                                                  \
  } while (0)

}  // namespace qp

#endif  // QP_COMMON_STATUS_H_
