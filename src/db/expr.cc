#include "db/expr.h"

#include <cassert>

#include "common/str_util.h"

namespace qp::db {

// Grants the factory functions access to the private constructor.
struct ExprBuilder {
  static std::shared_ptr<Expr> Make() {
    return std::shared_ptr<Expr>(new Expr());
  }
};

ExprPtr Expr::Column(int flat_index) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kColumn;
  e->column_index_ = flat_index;
  return e;
}

ExprPtr Expr::Literal(Value value) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Between(ExprPtr operand, Value lo, Value hi) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kBetween;
  e->lhs_ = std::move(operand);
  e->values_ = {std::move(lo), std::move(hi)};
  return e;
}

ExprPtr Expr::Like(ExprPtr operand, std::string pattern) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kLike;
  e->lhs_ = std::move(operand);
  e->pattern_ = std::move(pattern);
  return e;
}

ExprPtr Expr::InList(ExprPtr operand, std::vector<Value> values) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kInList;
  e->lhs_ = std::move(operand);
  e->values_ = std::move(values);
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kAnd;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kOr;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kNot;
  e->lhs_ = std::move(operand);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprBuilder::Make();
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

Value Expr::Evaluate(const Row& row) const {
  switch (kind_) {
    case ExprKind::kColumn:
      return row[column_index_];
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kArith: {
      Value a = lhs_->Evaluate(row);
      Value b = rhs_->Evaluate(row);
      if (a.is_null() || b.is_null()) return Value::Null();
      bool both_int =
          a.type() == ValueType::kInt && b.type() == ValueType::kInt;
      if (both_int && arith_op_ != ArithOp::kDiv) {
        int64_t x = a.as_int(), y = b.as_int();
        switch (arith_op_) {
          case ArithOp::kAdd:
            return Value::Int(x + y);
          case ArithOp::kSub:
            return Value::Int(x - y);
          case ArithOp::kMul:
            return Value::Int(x * y);
          case ArithOp::kDiv:
            break;
        }
      }
      double x = a.ToNumeric(), y = b.ToNumeric();
      switch (arith_op_) {
        case ArithOp::kAdd:
          return Value::Real(x + y);
        case ArithOp::kSub:
          return Value::Real(x - y);
        case ArithOp::kMul:
          return Value::Real(x * y);
        case ArithOp::kDiv:
          if (y == 0.0) return Value::Null();
          return Value::Real(x / y);
      }
      return Value::Null();
    }
    default:
      return Value::Int(EvaluateBool(row) ? 1 : 0);
  }
}

const Value& Expr::OperandRef(const Row& row, Value& scratch) const {
  switch (kind_) {
    case ExprKind::kColumn:
      return row[column_index_];
    case ExprKind::kLiteral:
      return literal_;
    default:
      scratch = Evaluate(row);
      return scratch;
  }
}

bool Expr::EvaluateBool(const Row& row) const {
  switch (kind_) {
    case ExprKind::kCompare: {
      Value lhs_scratch, rhs_scratch;
      const Value& a = lhs_->OperandRef(row, lhs_scratch);
      const Value& b = rhs_->OperandRef(row, rhs_scratch);
      if (a.is_null() || b.is_null()) return false;
      int c = a.Compare(b);
      switch (compare_op_) {
        case CompareOp::kEq:
          return c == 0;
        case CompareOp::kNe:
          return c != 0;
        case CompareOp::kLt:
          return c < 0;
        case CompareOp::kLe:
          return c <= 0;
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGe:
          return c >= 0;
      }
      return false;
    }
    case ExprKind::kBetween: {
      Value scratch;
      const Value& v = lhs_->OperandRef(row, scratch);
      if (v.is_null()) return false;
      return v.Compare(values_[0]) >= 0 && v.Compare(values_[1]) <= 0;
    }
    case ExprKind::kLike: {
      Value scratch;
      const Value& v = lhs_->OperandRef(row, scratch);
      if (v.type() != ValueType::kString) return false;
      return LikeMatch(v.as_string(), pattern_);
    }
    case ExprKind::kInList: {
      Value scratch;
      const Value& v = lhs_->OperandRef(row, scratch);
      if (v.is_null()) return false;
      for (const Value& candidate : values_) {
        if (v.Compare(candidate) == 0) return true;
      }
      return false;
    }
    case ExprKind::kAnd:
      return lhs_->EvaluateBool(row) && rhs_->EvaluateBool(row);
    case ExprKind::kOr:
      return lhs_->EvaluateBool(row) || rhs_->EvaluateBool(row);
    case ExprKind::kNot:
      return !lhs_->EvaluateBool(row);
    case ExprKind::kColumn:
    case ExprKind::kLiteral:
    case ExprKind::kArith: {
      Value scratch;
      const Value& v = OperandRef(row, scratch);
      if (v.is_null()) return false;
      if (v.type() == ValueType::kString) return !v.as_string().empty();
      return v.ToNumeric() != 0.0;
    }
  }
  return false;
}

void Expr::CollectColumns(std::vector<int>* columns) const {
  if (kind_ == ExprKind::kColumn) {
    columns->push_back(column_index_);
    return;
  }
  if (lhs_) lhs_->CollectColumns(columns);
  if (rhs_) rhs_->CollectColumns(columns);
}

std::string Expr::ToString(const std::vector<std::string>* column_names) const {
  auto col_name = [&](int idx) {
    if (column_names != nullptr && idx < static_cast<int>(column_names->size())) {
      return (*column_names)[idx];
    }
    return StrCat("c", idx);
  };
  switch (kind_) {
    case ExprKind::kColumn:
      return col_name(column_index_);
    case ExprKind::kLiteral:
      return literal_.type() == ValueType::kString
                 ? StrCat("'", literal_.ToString(), "'")
                 : literal_.ToString();
    case ExprKind::kCompare: {
      const char* op = "=";
      switch (compare_op_) {
        case CompareOp::kEq:
          op = "=";
          break;
        case CompareOp::kNe:
          op = "<>";
          break;
        case CompareOp::kLt:
          op = "<";
          break;
        case CompareOp::kLe:
          op = "<=";
          break;
        case CompareOp::kGt:
          op = ">";
          break;
        case CompareOp::kGe:
          op = ">=";
          break;
      }
      return StrCat(lhs_->ToString(column_names), " ", op, " ",
                    rhs_->ToString(column_names));
    }
    case ExprKind::kBetween:
      return StrCat(lhs_->ToString(column_names), " BETWEEN ",
                    values_[0].ToString(), " AND ", values_[1].ToString());
    case ExprKind::kLike:
      return StrCat(lhs_->ToString(column_names), " LIKE '", pattern_, "'");
    case ExprKind::kInList: {
      std::vector<std::string> parts;
      for (const Value& v : values_) parts.push_back(v.ToString());
      return StrCat(lhs_->ToString(column_names), " IN (", Join(parts, ", "),
                    ")");
    }
    case ExprKind::kAnd:
      return StrCat("(", lhs_->ToString(column_names), " AND ",
                    rhs_->ToString(column_names), ")");
    case ExprKind::kOr:
      return StrCat("(", lhs_->ToString(column_names), " OR ",
                    rhs_->ToString(column_names), ")");
    case ExprKind::kNot:
      return StrCat("NOT (", lhs_->ToString(column_names), ")");
    case ExprKind::kArith: {
      const char* op = "+";
      switch (arith_op_) {
        case ArithOp::kAdd:
          op = "+";
          break;
        case ArithOp::kSub:
          op = "-";
          break;
        case ArithOp::kMul:
          op = "*";
          break;
        case ArithOp::kDiv:
          op = "/";
          break;
      }
      return StrCat("(", lhs_->ToString(column_names), " ", op, " ",
                    rhs_->ToString(column_names), ")");
    }
  }
  return "?";
}

}  // namespace qp::db
