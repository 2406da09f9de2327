// Scalar / boolean expression AST evaluated against a (possibly
// concatenated, for joins) row of values.
//
// NULL semantics are simplified two-valued logic: any comparison with a
// NULL operand is false (documented deviation from SQL's three-valued
// logic; the generated datasets contain no NULLs and tests pin the
// behavior for engine-level completeness).
#ifndef QP_DB_EXPR_H_
#define QP_DB_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "db/table.h"
#include "db/value.h"

namespace qp::db {

enum class ExprKind : uint8_t {
  kColumn,
  kLiteral,
  kCompare,
  kBetween,
  kLike,
  kInList,
  kAnd,
  kOr,
  kNot,
  kArith,
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  // Factory constructors.
  static ExprPtr Column(int flat_index);
  static ExprPtr Literal(Value value);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Between(ExprPtr operand, Value lo, Value hi);
  static ExprPtr Like(ExprPtr operand, std::string pattern);
  static ExprPtr InList(ExprPtr operand, std::vector<Value> values);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr operand);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);

  /// Scalar value of the expression on `row`. Boolean nodes yield
  /// Int(0/1); arithmetic with NULL operands or division by zero
  /// yields NULL.
  Value Evaluate(const Row& row) const;

  /// Predicate evaluation (NULL-involved comparisons are false). Column
  /// and literal operands are read by reference, never copied; other
  /// operand kinds go through Evaluate.
  bool EvaluateBool(const Row& row) const;

  /// Appends every referenced flat column index (with duplicates).
  void CollectColumns(std::vector<int>* columns) const;

  ExprKind kind() const { return kind_; }
  int column_index() const { return column_index_; }
  const Value& literal() const { return literal_; }
  CompareOp compare_op() const { return compare_op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }
  const std::string& pattern() const { return pattern_; }
  const std::vector<Value>& values() const { return values_; }

  /// SQL-ish rendering; `column_names` (flat) is optional.
  std::string ToString(const std::vector<std::string>* column_names = nullptr) const;

 private:
  friend struct ExprBuilder;
  Expr() = default;

  /// This node's value on `row` as an operand of a boolean node: a
  /// reference to the row's cell or the literal, or Evaluate's result
  /// stored in `scratch`.
  const Value& OperandRef(const Row& row, Value& scratch) const;

  ExprKind kind_ = ExprKind::kLiteral;
  int column_index_ = -1;
  Value literal_;
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  ExprPtr lhs_, rhs_;         // also operand for unary nodes (lhs_)
  std::string pattern_;       // kLike
  std::vector<Value> values_; // kInList; kBetween uses values_[0], values_[1]
};

}  // namespace qp::db

#endif  // QP_DB_EXPR_H_
