#include "runtime/eval.h"

#include <alloca.h>

#include <algorithm>
#include <cmath>
#include <iterator>

#include "support/logging.h"

namespace npp {

namespace {

/** loadArray's body, forced inline into the tape's read handlers. */
[[gnu::always_inline]] inline double
loadChecked(int64_t site, int arrayVar, int64_t logical, EvalCtx &ctx)
{
    const ArraySlot &slot = ctx.arrays[arrayVar];
    NPP_ASSERT(slot.data != nullptr, "read of unbound array {}",
               ctx.prog->var(arrayVar).name);
    NPP_ASSERT(logical >= 0 && logical < slot.size,
               "read out of bounds: {}[{}], size {}",
               ctx.prog->var(arrayVar).name, logical, slot.size);
    const int64_t phys = slot.physIndex(logical);
    if (ctx.probe) {
        ctx.probe->onAccess(site, arrayVar, slot.traceAddr(logical), false,
                            slot.elemBytes);
    }
    return slot.data[phys];
}

} // namespace

double
loadArray(int64_t site, int arrayVar, int64_t logical, EvalCtx &ctx)
{
    return loadChecked(site, arrayVar, logical, ctx);
}

void
storeArray(int64_t site, int arrayVar, int64_t logical, double value,
           EvalCtx &ctx)
{
    const ArraySlot &slot = ctx.arrays[arrayVar];
    NPP_ASSERT(slot.data != nullptr, "write to unbound array {}",
               ctx.prog->var(arrayVar).name);
    NPP_ASSERT(logical >= 0 && logical < slot.size,
               "write out of bounds: {}[{}], size {}",
               ctx.prog->var(arrayVar).name, logical, slot.size);
    const int64_t phys = slot.physIndex(logical);
    if (ctx.probe) {
        ctx.probe->onAccess(site, arrayVar, slot.traceAddr(logical), true,
                            slot.elemBytes);
    }
    slot.data[phys] = value;
}

namespace {

// Opcode lists. The enum and the dispatch table are both generated from
// them, so their orders cannot drift apart.
#define NPP_TAPE_CONTROL(X) \
    X(Lit) X(Var) X(ReadS) X(ReadV) X(And) X(Or) X(Truth) X(Select) \
    X(Jump) X(Ret)
#define NPP_TAPE_BINARY(X) \
    X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(Min) X(Max) X(Pow) \
    X(Lt) X(Le) X(Gt) X(Ge) X(Eq) X(Ne)
#define NPP_TAPE_UNARY(X) \
    X(Neg) X(Not) X(Exp) X(Log) X(Sqrt) X(Abs) X(Floor)

/**
 * Tape opcodes. Every binary operator has three forms, named by where the
 * right operand comes from: S (the operand stack), L (the instruction's
 * literal) or V (the instruction's variable). The left operand is always
 * the top of the stack.
 */
enum class Code : uint32_t {
#define NPP_CODE(name) name,
#define NPP_BINARY_CODES(name) name##S, name##L, name##V,
    NPP_TAPE_CONTROL(NPP_CODE)
    NPP_TAPE_BINARY(NPP_BINARY_CODES)
    NPP_TAPE_UNARY(NPP_CODE)
#undef NPP_CODE
#undef NPP_BINARY_CODES
    Count
};

/** Right-operand form of a binary opcode, in Code's S, L, V order. */
enum class Form : uint32_t { Stack, Lit, Var };

/** One tape instruction (16 bytes). */
struct Instr
{
    Code code = Code::Ret;
    int var = -1; //!< Var; V-form operand; ReadV index variable
    union {
        double lit = 0.0;  //!< Lit; L-form operand
        const Expr *node;  //!< ReadS/ReadV: array and trace site
        size_t target;     //!< And/Or/Select/Jump destination
    };
};

/**
 * The compiled form of one expression tree: postfix code ending in Ret,
 * plus the operand stack depth it needs. Read instructions keep their
 * node and read `readSite` from it when they run, because trace sites
 * may be assigned after the tape is compiled.
 */
struct Tape final : ExprCode
{
    std::vector<Instr> code;
    int depth = 0;
};

Code
binaryCode(Op op, Form form)
{
    switch (op) {
#define NPP_CASE(name)                                                    \
      case Op::name:                                                      \
        return static_cast<Code>(static_cast<uint32_t>(Code::name##S) +  \
                                 static_cast<uint32_t>(form));
        NPP_TAPE_BINARY(NPP_CASE)
#undef NPP_CASE
      default:
        NPP_PANIC("{} has no binary opcode", opName(op));
    }
}

Code
unaryCode(Op op)
{
    switch (op) {
#define NPP_CASE(name) \
      case Op::name:   \
        return Code::name;
        NPP_TAPE_UNARY(NPP_CASE)
#undef NPP_CASE
      default:
        NPP_PANIC("{} has no unary opcode", opName(op));
    }
}

/**
 * Compiles a tree to a tape. `height` is the number of live values, the
 * top one included: every value pushed spills the previous top to the
 * operand stack, so the stack needs as many slots as the greatest height.
 */
class TapeCompiler
{
  public:
    std::unique_ptr<const ExprCode>
    compile(const Expr &root)
    {
        auto tape = std::make_unique<Tape>();
        code_ = &tape->code;
        emit(root);
        append(Code::Ret);
        tape->code.shrink_to_fit();
        tape->depth = maxHeight_;
        return tape;
    }

  private:
    size_t
    append(Code code)
    {
        Instr instr;
        instr.code = code;
        code_->push_back(instr);
        return code_->size() - 1;
    }

    void
    push()
    {
        maxHeight_ = std::max(maxHeight_, ++height_);
    }

    void
    patch(size_t at)
    {
        (*code_)[at].target = code_->size();
    }

    void
    emit(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::Lit:
            push();
            (*code_)[append(Code::Lit)].lit = e.lit;
            return;
          case ExprKind::Var:
            push();
            (*code_)[append(Code::Var)].var = e.varId;
            return;
          case ExprKind::Binary:
            emit(*e.a);
            if (e.op == Op::And || e.op == Op::Or) {
                // Taken: the left operand decided the result. Not
                // taken: drop it and normalize the right operand.
                const size_t test =
                    append(e.op == Op::And ? Code::And : Code::Or);
                height_--;
                emit(*e.b);
                append(Code::Truth);
                patch(test);
            } else if (e.b->kind == ExprKind::Lit) {
                (*code_)[append(binaryCode(e.op, Form::Lit))].lit = e.b->lit;
            } else if (e.b->kind == ExprKind::Var) {
                (*code_)[append(binaryCode(e.op, Form::Var))].var =
                    e.b->varId;
            } else {
                emit(*e.b);
                append(binaryCode(e.op, Form::Stack));
                height_--;
            }
            return;
          case ExprKind::Unary:
            emit(*e.a);
            append(unaryCode(e.op));
            return;
          case ExprKind::Select: {
            emit(*e.a);
            const size_t test = append(Code::Select);
            height_--;
            emit(*e.b);
            const size_t skip = append(Code::Jump);
            height_--;
            patch(test);
            emit(*e.c);
            patch(skip);
            return;
          }
          case ExprKind::Read: {
            size_t at;
            if (e.a->kind == ExprKind::Var) {
                push();
                at = append(Code::ReadV);
                (*code_)[at].var = e.a->varId;
            } else {
                emit(*e.a);
                at = append(Code::ReadS);
            }
            (*code_)[at].node = &e;
            return;
          }
        }
        NPP_PANIC("unknown expr kind");
    }

    std::vector<Instr> *code_ = nullptr;
    int height_ = 0;
    int maxHeight_ = 0;
};

[[gnu::always_inline]] inline double
readAt(const Expr *node, double index, EvalCtx &ctx)
{
    return loadChecked(node->readSite, node->varId,
                       static_cast<int64_t>(std::llround(index)), ctx);
}

/** The tape compiled from the tree rooted at `expr`, compiling it on
 *  first use. */
const Tape &
tapeOf(const Expr &expr)
{
    const ExprCode *code = expr.code.get();
    if (!code)
        code = expr.code.publish(TapeCompiler().compile(expr));
    return static_cast<const Tape &>(*code);
}

} // namespace

/**
 * Run the expression's tape. The top of the operand stack lives in `acc`,
 * the rest in a stack frame buffer sized by the tape. Each handler does
 * the operation, the cost charge and the probe call its tree node did, so
 * values, `opCount` and probe traffic match a recursive walk exactly:
 * applyOp is the one place an operator is computed, and operands are
 * produced in the tree's left-to-right order. The cost charges of one
 * call are summed locally and added to ctx.opCount on return (a failed
 * access check aborts the process, so no caller sees a partial sum).
 */
double
evalExpr(const Expr *expr, EvalCtx &ctx)
{
    NPP_ASSERT(expr != nullptr, "eval of null expression");
    const Tape &tape = tapeOf(*expr);

    static const void *const kDispatch[] = {
#define NPP_LABEL(name) &&op_##name,
#define NPP_BINARY_LABELS(name) &&op_##name##S, &&op_##name##L, &&op_##name##V,
        NPP_TAPE_CONTROL(NPP_LABEL)
        NPP_TAPE_BINARY(NPP_BINARY_LABELS)
        NPP_TAPE_UNARY(NPP_LABEL)
#undef NPP_LABEL
#undef NPP_BINARY_LABELS
    };
    static_assert(std::size(kDispatch) == static_cast<size_t>(Code::Count));

    const Instr *const code = tape.code.data();
    const Instr *pc = code;
    double *sp =
        static_cast<double *>(alloca(sizeof(double) * tape.depth));
    const double *const vars = ctx.scalars.data();
    const uint64_t accessCost = ctx.accessOpCost;
    uint64_t ops = 0;
    double acc = 0.0;

#define NPP_DISPATCH() goto *kDispatch[static_cast<size_t>(pc->code)]
#define NPP_NEXT()                                                        \
    do {                                                                  \
        ++pc;                                                             \
        NPP_DISPATCH();                                                   \
    } while (0)
#define NPP_JUMP()                                                        \
    do {                                                                  \
        pc = code + pc->target;                                           \
        NPP_DISPATCH();                                                   \
    } while (0)

    NPP_DISPATCH();

op_Lit:
    *sp++ = acc;
    acc = pc->lit;
    NPP_NEXT();
op_Var:
    *sp++ = acc;
    acc = vars[pc->var];
    NPP_NEXT();
op_ReadS:
    ops += accessCost;
    acc = readAt(pc->node, acc, ctx);
    NPP_NEXT();
op_ReadV:
    ops += accessCost;
    *sp++ = acc;
    acc = readAt(pc->node, vars[pc->var], ctx);
    NPP_NEXT();
op_And:
    ops += opCost(Op::And);
    if (acc == 0.0) {
        acc = 0.0; // not -0.0
        NPP_JUMP();
    }
    acc = *--sp;
    NPP_NEXT();
op_Or:
    ops += opCost(Op::Or);
    if (acc != 0.0) {
        acc = 1.0;
        NPP_JUMP();
    }
    acc = *--sp;
    NPP_NEXT();
op_Truth:
    acc = applyOp(Op::Ne, acc, 0.0);
    NPP_NEXT();
op_Select: {
    ops += 1;
    const bool cond = acc != 0.0;
    acc = *--sp;
    if (!cond)
        NPP_JUMP();
    NPP_NEXT();
}
op_Jump:
    NPP_JUMP();
op_Ret:
    ctx.opCount += ops;
    return acc;

#define NPP_BINARY_HANDLERS(name)                                         \
op_##name##S: {                                                           \
    ops += opCost(Op::name);                                              \
    const double lhs = *--sp;                                             \
    acc = applyOp(Op::name, lhs, acc);                                    \
    NPP_NEXT();                                                           \
}                                                                         \
op_##name##L:                                                             \
    ops += opCost(Op::name);                                              \
    acc = applyOp(Op::name, acc, pc->lit);                                \
    NPP_NEXT();                                                           \
op_##name##V:                                                             \
    ops += opCost(Op::name);                                              \
    acc = applyOp(Op::name, acc, vars[pc->var]);                          \
    NPP_NEXT();
    NPP_TAPE_BINARY(NPP_BINARY_HANDLERS)
#undef NPP_BINARY_HANDLERS

#define NPP_UNARY_HANDLER(name)                                           \
op_##name:                                                                \
    ops += opCost(Op::name);                                              \
    acc = applyOp(Op::name, acc, 0.0);                                    \
    NPP_NEXT();
    NPP_TAPE_UNARY(NPP_UNARY_HANDLER)
#undef NPP_UNARY_HANDLER

#undef NPP_DISPATCH
#undef NPP_NEXT
#undef NPP_JUMP
}

} // namespace npp
