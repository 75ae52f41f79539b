/**
 * @file
 * Expression nodes for the parallel-pattern IR (Section III of the paper).
 * Expressions are pure: literals, variable references, arithmetic/logic,
 * selects, and array reads. Effects (stores) and control structures live in
 * statements (ir/pattern.h). Expression trees are immutable and shared via
 * shared_ptr so builder code can freely reuse subtrees.
 */

#ifndef NPP_IR_EXPR_H
#define NPP_IR_EXPR_H

#include <atomic>
#include <cmath>
#include <memory>

#include "ir/type.h"
#include "support/logging.h"

namespace npp {

/** Operators usable in Binary/Unary expressions and Reduce combiners. */
enum class Op {
    // binary arithmetic
    Add, Sub, Mul, Div, Mod, Min, Max, Pow,
    // binary comparison / logic
    Lt, Le, Gt, Ge, Eq, Ne, And, Or,
    // unary
    Neg, Not, Exp, Log, Sqrt, Abs, Floor
};

/** True if op is a unary operator. */
bool isUnaryOp(Op op);

/** True if op is associative and usable as a Reduce/GroupBy combiner. */
bool isCombinerOp(Op op);

/** Identity element of an associative combiner. */
double combinerIdentity(Op op);

/** Relative compute cost of an operator (simple ops are 1). Inline: the
 *  interpreter charges it on every Binary/Unary node it evaluates. */
inline int
opCost(Op op)
{
    switch (op) {
      case Op::Div:
      case Op::Mod:
      case Op::Sqrt:
        return 4;
      case Op::Exp:
      case Op::Log:
      case Op::Pow:
        return 8;
      default:
        return 1;
    }
}

/** Operator name for printing. */
const char *opName(Op op);

/** Expression node discriminator. */
enum class ExprKind {
    Lit,    //!< literal constant
    Var,    //!< reference to any variable (param, local, index)
    Binary, //!< binary operator
    Unary,  //!< unary operator
    Select, //!< cond ? a : b
    Read    //!< array read: array var `arrayId` at index `a`
};

struct Expr;
using ExprRef = std::shared_ptr<const Expr>;

/** Compiled form of an expression tree, defined by the evaluator
 *  (runtime/eval.cc); deleted through this base. */
struct ExprCode
{
    ExprCode() = default;
    ExprCode(const ExprCode &) = delete;
    ExprCode &operator=(const ExprCode &) = delete;
    virtual ~ExprCode() = default;
};

/**
 * Owner of the code compiled from the tree rooted at one node. The
 * evaluator fills it on the node's first evaluation; several threads may
 * race to do so, and publish() keeps exactly one winner. A copied node
 * starts uncompiled, so code never outlives or escapes its own tree.
 */
class ExprCodeSlot
{
  public:
    ExprCodeSlot() = default;
    ExprCodeSlot(const ExprCodeSlot &) {}
    ExprCodeSlot &operator=(const ExprCodeSlot &) = delete;
    ~ExprCodeSlot() { delete code_.load(std::memory_order_acquire); }

    const ExprCode *
    get() const
    {
        return code_.load(std::memory_order_acquire);
    }

    /** Install `code` unless another thread got there first; returns the
     *  installed code either way. */
    const ExprCode *
    publish(std::unique_ptr<const ExprCode> code) const
    {
        const ExprCode *expected = nullptr;
        if (code_.compare_exchange_strong(expected, code.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
            return code.release();
        return expected;
    }

  private:
    mutable std::atomic<const ExprCode *> code_{nullptr};
};

/**
 * A single immutable expression node. Fields are used depending on `kind`;
 * unused fields keep their defaults. Construction goes through the factory
 * functions below which enforce the per-kind invariants.
 */
struct Expr
{
    ExprKind kind = ExprKind::Lit;
    Op op = Op::Add;          //!< Binary/Unary operator
    double lit = 0.0;         //!< Lit value
    int varId = -1;           //!< Var: variable id; Read: array var id
    ExprRef a, b, c;          //!< operands (Read: a = index, Select: c)
    ScalarKind type = ScalarKind::F64;

    /** Memory-trace grouping id of this static Read site. Assigned by
     *  Program::validate() as the node's pre-order position, so it is
     *  identical across rebuilds of the same program — the simulator's
     *  grouping keys must not depend on process state such as node
     *  addresses (mutable: ids are bookkeeping, not IR semantics). */
    mutable int readSite = -1;

    /** Code compiled from the tree rooted here (see runtime/eval.h). */
    ExprCodeSlot code;
};

/** @name Expression factories
 *  @{
 */
ExprRef lit(double v);
ExprRef litI(long long v);
ExprRef litB(bool v);
ExprRef varRef(int varId, ScalarKind kind);
ExprRef binary(Op op, ExprRef a, ExprRef b);
ExprRef unary(Op op, ExprRef a);
ExprRef select(ExprRef cond, ExprRef ifTrue, ExprRef ifFalse);
ExprRef read(int arrayVarId, ExprRef index, ScalarKind kind);
/** @} */

/** Apply a binary/unary op to already-evaluated operands. Inline: this
 *  is the interpreter's innermost dispatch, executed once per evaluated
 *  operator node, and an out-of-line call here costs more than the op. */
inline double
applyOp(Op op, double a, double b)
{
    switch (op) {
      case Op::Add: return a + b;
      case Op::Sub: return a - b;
      case Op::Mul: return a * b;
      case Op::Div: return a / b;
      case Op::Mod: return a - b * std::floor(a / b);
      case Op::Min: return a < b ? a : b;
      case Op::Max: return a > b ? a : b;
      case Op::Pow: return std::pow(a, b);
      case Op::Lt: return a < b ? 1.0 : 0.0;
      case Op::Le: return a <= b ? 1.0 : 0.0;
      case Op::Gt: return a > b ? 1.0 : 0.0;
      case Op::Ge: return a >= b ? 1.0 : 0.0;
      case Op::Eq: return a == b ? 1.0 : 0.0;
      case Op::Ne: return a != b ? 1.0 : 0.0;
      case Op::And: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
      case Op::Or: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
      case Op::Neg: return -a;
      case Op::Not: return a == 0.0 ? 1.0 : 0.0;
      case Op::Exp: return std::exp(a);
      case Op::Log: return std::log(a);
      case Op::Sqrt: return std::sqrt(a);
      case Op::Abs: return std::fabs(a);
      case Op::Floor: return std::floor(a);
    }
    NPP_PANIC("unknown op");
}

/**
 * Value wrapper enabling natural C++ operator syntax in the builder EDSL.
 * An Ex holds an ExprRef; arithmetic on Ex values constructs IR nodes.
 */
class Ex
{
  public:
    Ex() = default;
    explicit Ex(ExprRef ref) : node(std::move(ref)) {}
    /*implicit*/ Ex(double v) : node(lit(v)) {}
    /*implicit*/ Ex(int v) : node(litI(v)) {}
    /*implicit*/ Ex(long v) : node(litI(v)) {}
    /*implicit*/ Ex(long long v) : node(litI(v)) {}

    const ExprRef &ref() const { return node; }
    bool valid() const { return node != nullptr; }

  private:
    ExprRef node;
};

Ex operator+(Ex a, Ex b);
Ex operator-(Ex a, Ex b);
Ex operator*(Ex a, Ex b);
Ex operator/(Ex a, Ex b);
Ex operator%(Ex a, Ex b);
Ex operator<(Ex a, Ex b);
Ex operator<=(Ex a, Ex b);
Ex operator>(Ex a, Ex b);
Ex operator>=(Ex a, Ex b);
Ex operator==(Ex a, Ex b);
Ex operator!=(Ex a, Ex b);
Ex operator&&(Ex a, Ex b);
Ex operator||(Ex a, Ex b);
Ex operator-(Ex a);
Ex operator!(Ex a);

Ex min(Ex a, Ex b);
Ex max(Ex a, Ex b);
Ex exp(Ex a);
Ex log(Ex a);
Ex sqrt(Ex a);
Ex abs(Ex a);
Ex floor(Ex a);
Ex pow(Ex a, Ex b);
Ex sel(Ex cond, Ex ifTrue, Ex ifFalse);

} // namespace npp

#endif // NPP_IR_EXPR_H
