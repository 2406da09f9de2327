#include "db/expr.h"

#include <gtest/gtest.h>

namespace qp::db {
namespace {

Row TestRow() {
  return {Value::Int(10), Value::Str("Paris"), Value::Real(2.5), Value::Null()};
}

TEST(ExprTest, ColumnAndLiteral) {
  Row row = TestRow();
  EXPECT_EQ(Expr::Column(0)->Evaluate(row).as_int(), 10);
  EXPECT_EQ(Expr::Column(1)->Evaluate(row).as_string(), "Paris");
  EXPECT_EQ(Expr::Literal(Value::Int(7))->Evaluate(row).as_int(), 7);
}

TEST(ExprTest, ComparisonOperators) {
  Row row = TestRow();
  auto col0 = Expr::Column(0);
  auto lit5 = Expr::Literal(Value::Int(5));
  auto lit10 = Expr::Literal(Value::Int(10));
  EXPECT_TRUE(Expr::Compare(CompareOp::kGt, col0, lit5)->EvaluateBool(row));
  EXPECT_FALSE(Expr::Compare(CompareOp::kLt, col0, lit5)->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kEq, col0, lit10)->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kGe, col0, lit10)->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kLe, col0, lit10)->EvaluateBool(row));
  EXPECT_FALSE(Expr::Compare(CompareOp::kNe, col0, lit10)->EvaluateBool(row));
}

TEST(ExprTest, StringComparison) {
  Row row = TestRow();
  auto name = Expr::Column(1);
  EXPECT_TRUE(Expr::Compare(CompareOp::kEq, name,
                            Expr::Literal(Value::Str("Paris")))
                  ->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kLt, name,
                            Expr::Literal(Value::Str("Q")))
                  ->EvaluateBool(row));
}

TEST(ExprTest, NullComparisonsAreFalse) {
  Row row = TestRow();
  auto null_col = Expr::Column(3);
  auto lit = Expr::Literal(Value::Int(0));
  EXPECT_FALSE(Expr::Compare(CompareOp::kEq, null_col, lit)->EvaluateBool(row));
  EXPECT_FALSE(Expr::Compare(CompareOp::kNe, null_col, lit)->EvaluateBool(row));
  EXPECT_FALSE(Expr::Compare(CompareOp::kLt, null_col, lit)->EvaluateBool(row));
}

TEST(ExprTest, Between) {
  Row row = TestRow();
  EXPECT_TRUE(Expr::Between(Expr::Column(0), Value::Int(5), Value::Int(15))
                  ->EvaluateBool(row));
  EXPECT_TRUE(Expr::Between(Expr::Column(0), Value::Int(10), Value::Int(10))
                  ->EvaluateBool(row));
  EXPECT_FALSE(Expr::Between(Expr::Column(0), Value::Int(11), Value::Int(15))
                   ->EvaluateBool(row));
  EXPECT_FALSE(Expr::Between(Expr::Column(3), Value::Int(0), Value::Int(1))
                   ->EvaluateBool(row));  // NULL
}

TEST(ExprTest, Like) {
  Row row = TestRow();
  EXPECT_TRUE(Expr::Like(Expr::Column(1), "P%")->EvaluateBool(row));
  EXPECT_TRUE(Expr::Like(Expr::Column(1), "%ri%")->EvaluateBool(row));
  EXPECT_FALSE(Expr::Like(Expr::Column(1), "Q%")->EvaluateBool(row));
  // LIKE on a non-string (int) is false.
  EXPECT_FALSE(Expr::Like(Expr::Column(0), "1%")->EvaluateBool(row));
}

TEST(ExprTest, InList) {
  Row row = TestRow();
  EXPECT_TRUE(Expr::InList(Expr::Column(0),
                           {Value::Int(1), Value::Int(10), Value::Int(20)})
                  ->EvaluateBool(row));
  EXPECT_FALSE(
      Expr::InList(Expr::Column(0), {Value::Int(1)})->EvaluateBool(row));
  EXPECT_FALSE(Expr::InList(Expr::Column(3), {Value::Null()})
                   ->EvaluateBool(row));  // NULL never IN
}

TEST(ExprTest, BooleanConnectives) {
  Row row = TestRow();
  auto t = Expr::Compare(CompareOp::kEq, Expr::Column(0),
                         Expr::Literal(Value::Int(10)));
  auto f = Expr::Compare(CompareOp::kEq, Expr::Column(0),
                         Expr::Literal(Value::Int(11)));
  EXPECT_TRUE(Expr::And(t, t)->EvaluateBool(row));
  EXPECT_FALSE(Expr::And(t, f)->EvaluateBool(row));
  EXPECT_TRUE(Expr::Or(f, t)->EvaluateBool(row));
  EXPECT_FALSE(Expr::Or(f, f)->EvaluateBool(row));
  EXPECT_TRUE(Expr::Not(f)->EvaluateBool(row));
  EXPECT_FALSE(Expr::Not(t)->EvaluateBool(row));
}

TEST(ExprTest, ArithmeticIntStaysExact) {
  Row row = TestRow();
  auto sum = Expr::Arith(ArithOp::kAdd, Expr::Column(0),
                         Expr::Literal(Value::Int(5)));
  Value v = sum->Evaluate(row);
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.as_int(), 15);
  auto prod = Expr::Arith(ArithOp::kMul, Expr::Column(0),
                          Expr::Literal(Value::Int(3)));
  EXPECT_EQ(prod->Evaluate(row).as_int(), 30);
}

TEST(ExprTest, ArithmeticDivisionIsDouble) {
  Row row = TestRow();
  auto div = Expr::Arith(ArithOp::kDiv, Expr::Column(0),
                         Expr::Literal(Value::Int(4)));
  Value v = div->Evaluate(row);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.as_double(), 2.5);
  auto by_zero = Expr::Arith(ArithOp::kDiv, Expr::Column(0),
                             Expr::Literal(Value::Int(0)));
  EXPECT_TRUE(by_zero->Evaluate(row).is_null());
}

TEST(ExprTest, ArithmeticNullPropagates) {
  Row row = TestRow();
  auto sum = Expr::Arith(ArithOp::kAdd, Expr::Column(3),
                         Expr::Literal(Value::Int(5)));
  EXPECT_TRUE(sum->Evaluate(row).is_null());
}

// EvaluateBool reads column and literal operands by reference; every
// other operand kind (arithmetic, nested boolean nodes) is evaluated into
// a scratch value. Both paths must keep the predicate semantics the
// conflict-set oracle rests on, NULL operands included.
TEST(ExprTest, ComparisonOverComputedOperands) {
  Row row = TestRow();  // 10, "Paris", 2.5, NULL
  auto plus5 = Expr::Arith(ArithOp::kAdd, Expr::Column(0),
                           Expr::Literal(Value::Int(5)));
  auto times8 = Expr::Arith(ArithOp::kMul, Expr::Column(2),
                            Expr::Literal(Value::Int(8)));  // 20.0
  EXPECT_TRUE(Expr::Compare(CompareOp::kEq, plus5,
                            Expr::Literal(Value::Int(15)))
                  ->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kEq, Expr::Literal(Value::Real(15.0)),
                            plus5)
                  ->EvaluateBool(row));
  EXPECT_FALSE(Expr::Compare(CompareOp::kGt, plus5, times8)
                   ->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kLt, plus5, times8)
                  ->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kNe, plus5, Expr::Column(0))
                  ->EvaluateBool(row));
  // A boolean node as an operand evaluates to Int(0/1).
  auto is_paris = Expr::Compare(CompareOp::kEq, Expr::Column(1),
                                Expr::Literal(Value::Str("Paris")));
  EXPECT_TRUE(Expr::Compare(CompareOp::kEq, is_paris,
                            Expr::Literal(Value::Int(1)))
                  ->EvaluateBool(row));
  // Two literals, and two columns.
  EXPECT_TRUE(Expr::Compare(CompareOp::kEq, Expr::Literal(Value::Str("a")),
                            Expr::Literal(Value::Str("a")))
                  ->EvaluateBool(row));
  EXPECT_TRUE(Expr::Compare(CompareOp::kGt, Expr::Column(0), Expr::Column(2))
                  ->EvaluateBool(row));
}

TEST(ExprTest, ComparisonWithNullOperandsIsFalse) {
  Row row = TestRow();
  auto null_sum = Expr::Arith(ArithOp::kAdd, Expr::Column(3),
                              Expr::Literal(Value::Int(1)));
  auto by_zero = Expr::Arith(ArithOp::kDiv, Expr::Column(0),
                             Expr::Literal(Value::Int(0)));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_FALSE(Expr::Compare(op, null_sum, Expr::Literal(Value::Int(1)))
                     ->EvaluateBool(row));
    EXPECT_FALSE(Expr::Compare(op, Expr::Column(0), by_zero)
                     ->EvaluateBool(row));
    EXPECT_FALSE(Expr::Compare(op, Expr::Literal(Value::Null()),
                               Expr::Literal(Value::Null()))
                     ->EvaluateBool(row));
    EXPECT_FALSE(Expr::Compare(op, Expr::Column(3), Expr::Column(3))
                     ->EvaluateBool(row));
  }
}

TEST(ExprTest, BetweenLikeInListOverComputedOperands) {
  Row row = TestRow();
  auto minus5 = Expr::Arith(ArithOp::kSub, Expr::Column(0),
                            Expr::Literal(Value::Int(5)));   // 5
  auto quarter = Expr::Arith(ArithOp::kDiv, Expr::Column(0),
                             Expr::Literal(Value::Int(4)));  // 2.5
  EXPECT_TRUE(
      Expr::Between(minus5, Value::Int(5), Value::Int(5))->EvaluateBool(row));
  EXPECT_FALSE(
      Expr::Between(minus5, Value::Int(6), Value::Int(9))->EvaluateBool(row));
  EXPECT_TRUE(Expr::Between(quarter, Value::Real(2.5), Value::Int(3))
                  ->EvaluateBool(row));
  EXPECT_TRUE(Expr::InList(quarter, {Value::Int(2), Value::Real(2.5)})
                  ->EvaluateBool(row));
  EXPECT_FALSE(
      Expr::InList(minus5, {Value::Int(4), Value::Int(6)})->EvaluateBool(row));
  EXPECT_TRUE(Expr::InList(Expr::Literal(Value::Str("b")),
                           {Value::Str("a"), Value::Str("b")})
                  ->EvaluateBool(row));
  // LIKE wants a string: a numeric result never matches, a literal
  // string operand does.
  EXPECT_FALSE(Expr::Like(minus5, "5%")->EvaluateBool(row));
  EXPECT_TRUE(Expr::Like(Expr::Literal(Value::Str("Lyon")), "L%n")
                  ->EvaluateBool(row));
}

TEST(ExprTest, BetweenLikeInListWithNullOperandsAreFalse) {
  Row row = TestRow();
  auto null_sum = Expr::Arith(ArithOp::kAdd, Expr::Column(3),
                              Expr::Literal(Value::Int(1)));
  auto by_zero = Expr::Arith(ArithOp::kDiv, Expr::Column(0),
                             Expr::Literal(Value::Int(0)));
  for (const ExprPtr& operand :
       {null_sum, by_zero, Expr::Column(3), Expr::Literal(Value::Null())}) {
    EXPECT_FALSE(Expr::Between(operand, Value::Int(-100), Value::Int(100))
                     ->EvaluateBool(row));
    EXPECT_FALSE(Expr::Like(operand, "%")->EvaluateBool(row));
    EXPECT_FALSE(Expr::InList(operand, {Value::Null(), Value::Int(0)})
                     ->EvaluateBool(row));
    EXPECT_FALSE(operand->EvaluateBool(row));
    EXPECT_TRUE(Expr::Not(operand)->EvaluateBool(row));
  }
}

TEST(ExprTest, BareOperandsAsPredicates) {
  Row row = TestRow();
  EXPECT_TRUE(Expr::Column(0)->EvaluateBool(row));
  EXPECT_TRUE(Expr::Column(1)->EvaluateBool(row));  // non-empty string
  EXPECT_FALSE(Expr::Literal(Value::Str(""))->EvaluateBool(row));
  EXPECT_FALSE(Expr::Literal(Value::Int(0))->EvaluateBool(row));
  EXPECT_FALSE(Expr::Arith(ArithOp::kSub, Expr::Column(0),
                           Expr::Literal(Value::Int(10)))
                   ->EvaluateBool(row));
  EXPECT_TRUE(Expr::Arith(ArithOp::kMul, Expr::Column(2),
                          Expr::Literal(Value::Int(2)))
                  ->EvaluateBool(row));
}

TEST(ExprTest, CollectColumns) {
  auto e = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Column(2), Expr::Column(0)),
      Expr::Like(Expr::Column(1), "x%"));
  std::vector<int> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<int>{2, 0, 1}));
}

TEST(ExprTest, ToStringRendersSqlIsh) {
  auto e = Expr::And(Expr::Compare(CompareOp::kGe, Expr::Column(0),
                                   Expr::Literal(Value::Int(5))),
                     Expr::Like(Expr::Column(1), "A%"));
  std::vector<std::string> names{"pop", "name"};
  EXPECT_EQ(e->ToString(&names), "(pop >= 5 AND name LIKE 'A%')");
}

}  // namespace
}  // namespace qp::db
