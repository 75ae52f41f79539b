/**
 * @file
 * The expression/statement evaluator shared by the sequential reference
 * interpreter (ground truth) and the GPU simulator's per-thread execution.
 * Evaluation carries all scalars as double (exact for the integer ranges
 * used here) and reports every array access to an optional memory probe so
 * the simulator can count per-warp coalesced transactions. Each expression
 * tree is compiled once, on its first evaluation, into flat code cached on
 * its root node (DESIGN.md "Expression evaluation").
 */

#ifndef NPP_RUNTIME_EVAL_H
#define NPP_RUNTIME_EVAL_H

#include <cstdint>
#include <vector>

#include "ir/program.h"

namespace npp {

/**
 * One bound array: storage plus the linear view transform used by the
 * preallocation optimization (physical = offset + logical * stride).
 */
struct ArraySlot
{
    double *data = nullptr;
    int64_t size = 0;    //!< logical element count visible to the program
    int64_t offset = 0;  //!< physical offset (elements)
    int64_t stride = 1;  //!< physical stride (elements)

    /** Total physical capacity backing the slot (for bounds checks). */
    int64_t physSize = 0;

    /** Address transform reported to the memory probe. Usually mirrors
     *  offset/stride, but the simulator decouples them for preallocated
     *  local arrays: data lives in a small reused buffer while the probe
     *  sees the layout-accurate device address (Fig 11). */
    int64_t addrBase = 0;
    int64_t addrStride = 1;

    /** Device element size reported to the probe (cached from the
     *  variable's scalar kind at bind time — the access path is too hot
     *  for a per-access Program::var lookup). */
    int elemBytes = 8;

    int64_t physIndex(int64_t logical) const
    {
        return offset + logical * stride;
    }

    int64_t traceAddr(int64_t logical) const
    {
        return addrBase + logical * addrStride;
    }
};

/**
 * Observer for array traffic. `site` identifies the static access site
 * (the Expr/Stmt/Pattern trace-site id assigned by Program::validate()),
 * which the coalescing model uses to group the accesses that the 32 lanes
 * of a warp issue together. Ids are stable across rebuilds of the same
 * program, so simulated metrics are bit-reproducible; node addresses are
 * not and must never leak into probe keys.
 */
class MemProbe
{
  public:
    virtual ~MemProbe() = default;
    virtual void onAccess(int64_t site, int arrayVar, int64_t physIndex,
                          bool isWrite, int bytes) = 0;
};

/**
 * Mutable evaluation state: one scalar slot and one array slot per program
 * variable. Scalar slots hold params, let-locals, and loop indices alike.
 */
struct EvalCtx
{
    const Program *prog = nullptr;
    std::vector<double> scalars;
    std::vector<ArraySlot> arrays;
    MemProbe *probe = nullptr;

    /** Accumulated compute cost (weighted op count) for timing. */
    uint64_t opCount = 0;

    /** Address-computation cost charged per array access. Compiler-
     *  generated code goes through multidimensional-array wrappers with
     *  offset/stride fields (the ~20% gap vs hand-written raw pointers
     *  the paper reports on Nearest Neighbor); manual kernels use 1. */
    uint64_t accessOpCost = 2;

    explicit EvalCtx(const Program &program)
        : prog(&program),
          scalars(program.numVars(), 0.0),
          arrays(program.numVars())
    {}
};

/** Evaluate a pure expression in the given context. Safe to call from
 *  several threads on one tree, each with its own context. */
double evalExpr(const Expr *expr, EvalCtx &ctx);

inline double
evalExpr(const ExprRef &expr, EvalCtx &ctx)
{
    return evalExpr(expr.get(), ctx);
}

/** Bounds-checked array read through a slot, reporting to the probe. */
double loadArray(int64_t site, int arrayVar, int64_t logical, EvalCtx &ctx);

/** Bounds-checked array write through a slot, reporting to the probe. */
void storeArray(int64_t site, int arrayVar, int64_t logical, double value,
                EvalCtx &ctx);

} // namespace npp

#endif // NPP_RUNTIME_EVAL_H
