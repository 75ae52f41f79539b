/**
 * @file
 * Unit tests for the expression evaluator: value semantics,
 * short-circuit logic, access-cost accounting, slot view transforms
 * (offset/stride and the decoupled trace addressing), probe reporting,
 * and a seeded differential test of the compiled evaluator against a
 * recursive tree-walking oracle.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <random>
#include <thread>
#include <tuple>

#include "ir/builder.h"
#include "runtime/eval.h"

namespace npp {
namespace {

/** Minimal program supplying a variable table for contexts. */
struct Fixture
{
    Fixture()
    {
        ProgramBuilder b("t");
        arr = b.inF64("arr");
        x = b.paramF64("x");
        y = b.paramF64("y");
        out = b.outF64("out");
        Arr a = arr;
        b.map(Ex(4), out, [&](Body &, Ex i) { return a(i); });
        prog = std::make_unique<Program>(b.build());
    }

    std::unique_ptr<Program> prog;
    Arr arr, out;
    Ex x, y;
};

TEST(Eval, ArithmeticAndSelect)
{
    Fixture f;
    EvalCtx ctx(*f.prog);
    ctx.scalars[f.x.ref()->varId] = 3.0;
    ctx.scalars[f.y.ref()->varId] = -2.0;

    EXPECT_DOUBLE_EQ(evalExpr((f.x + f.y * 2.0).ref(), ctx), -1.0);
    EXPECT_DOUBLE_EQ(evalExpr(sel(f.x > f.y, f.x, f.y).ref(), ctx), 3.0);
    EXPECT_DOUBLE_EQ(evalExpr(abs(f.y).ref(), ctx), 2.0);
    EXPECT_DOUBLE_EQ(evalExpr((f.x % 2.0).ref(), ctx), 1.0);
}

TEST(Eval, ShortCircuitLogicSkipsRightSide)
{
    // The right side of && / || reads out of bounds; short-circuiting
    // must avoid evaluating it.
    Fixture f;
    std::vector<double> data = {1, 2, 3, 4};
    EvalCtx ctx(*f.prog);
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 4;
    slot.physSize = 4;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    Ex falseC(0.0), trueC(1.0);
    EXPECT_DOUBLE_EQ(evalExpr((falseC && a(Ex(99))).ref(), ctx), 0.0);
    EXPECT_DOUBLE_EQ(evalExpr((trueC || a(Ex(99))).ref(), ctx), 1.0);
}

TEST(Eval, OpCountIncludesAccessCost)
{
    Fixture f;
    std::vector<double> data = {5, 6, 7, 8};
    EvalCtx ctx(*f.prog);
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 4;
    slot.physSize = 4;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    ctx.accessOpCost = 2;
    ctx.opCount = 0;
    evalExpr(a(Ex(1)).ref(), ctx);
    const uint64_t wrapper = ctx.opCount;

    ctx.accessOpCost = 1;
    ctx.opCount = 0;
    evalExpr(a(Ex(1)).ref(), ctx);
    EXPECT_EQ(wrapper, ctx.opCount + 1)
        << "wrapper accesses cost one extra op";
}

TEST(Eval, OffsetStrideViews)
{
    // Physical layout: interleaved (offset + logical * stride).
    Fixture f;
    std::vector<double> data = {0, 10, 20, 30, 40, 50, 60, 70};
    EvalCtx ctx(*f.prog);
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 3;
    slot.physSize = 8;
    slot.offset = 1;
    slot.stride = 2;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(0)).ref(), ctx), 10.0);
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(1)).ref(), ctx), 30.0);
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(2)).ref(), ctx), 50.0);
}

/** Probe capturing reported addresses. */
class RecordingProbe : public MemProbe
{
  public:
    void
    onAccess(int64_t, int, int64_t addr, bool isWrite, int) override
    {
        (isWrite ? writes : reads).push_back(addr);
    }

    std::vector<int64_t> reads, writes;
};

TEST(Eval, TraceAddressDecoupledFromStorage)
{
    // Data sits in a small buffer, but the probe sees the layout-accurate
    // virtual addresses (the preallocation trick).
    Fixture f;
    std::vector<double> data = {1, 2, 3, 4};
    EvalCtx ctx(*f.prog);
    RecordingProbe probe;
    ctx.probe = &probe;
    ArraySlot slot;
    slot.data = data.data();
    slot.size = 4;
    slot.physSize = 4;
    slot.addrBase = 1000;
    slot.addrStride = 64;
    ctx.arrays[f.arr.id()] = slot;

    Arr a = f.arr;
    EXPECT_DOUBLE_EQ(evalExpr(a(Ex(2)).ref(), ctx), 3.0)
        << "storage uses physIndex";
    ASSERT_EQ(probe.reads.size(), 1u);
    EXPECT_EQ(probe.reads[0], 1000 + 2 * 64) << "probe uses traceAddr";

    storeArray(-1, f.arr.id(), 1, 9.0, ctx);
    EXPECT_DOUBLE_EQ(data[1], 9.0);
    ASSERT_EQ(probe.writes.size(), 1u);
    EXPECT_EQ(probe.writes[0], 1000 + 64);
}

TEST(EvalDeath, NullAndUnboundAccessesPanic)
{
    Fixture f;
    EvalCtx ctx(*f.prog);
    EXPECT_DEATH(evalExpr(static_cast<const Expr *>(nullptr), ctx),
                 "null expression");
    Arr a = f.arr;
    EXPECT_DEATH(evalExpr(a(Ex(0)).ref(), ctx), "unbound array");
}

/**
 * The recursive evaluator semantics the compiled code must reproduce:
 * charge a node's cost on entry, evaluate operands left to right,
 * short-circuit && and || on the left operand, and evaluate only the
 * taken arm of a select.
 */
double
oracleEval(const Expr *e, EvalCtx &ctx)
{
    switch (e->kind) {
      case ExprKind::Lit:
        return e->lit;
      case ExprKind::Var:
        return ctx.scalars[e->varId];
      case ExprKind::Binary: {
        ctx.opCount += opCost(e->op);
        const double a = oracleEval(e->a.get(), ctx);
        if (e->op == Op::And && a == 0.0)
            return 0.0;
        if (e->op == Op::Or && a != 0.0)
            return 1.0;
        return applyOp(e->op, a, oracleEval(e->b.get(), ctx));
      }
      case ExprKind::Unary:
        ctx.opCount += opCost(e->op);
        return applyOp(e->op, oracleEval(e->a.get(), ctx), 0.0);
      case ExprKind::Select: {
        ctx.opCount += 1;
        const double c = oracleEval(e->a.get(), ctx);
        return oracleEval(c != 0.0 ? e->b.get() : e->c.get(), ctx);
      }
      case ExprKind::Read: {
        ctx.opCount += ctx.accessOpCost;
        const double idx = oracleEval(e->a.get(), ctx);
        return loadArray(e->readSite, e->varId,
                         static_cast<int64_t>(std::llround(idx)), ctx);
      }
    }
    ADD_FAILURE() << "unknown expr kind";
    return 0.0;
}

/** Probe recording every access in order. */
class SequenceProbe : public MemProbe
{
  public:
    using Access = std::tuple<int64_t, int, int64_t, bool>;

    void
    onAccess(int64_t site, int array, int64_t index, bool isWrite,
             int) override
    {
        seen.emplace_back(site, array, index, isWrite);
    }

    std::vector<Access> seen;
};

/** Program with scalar operands and two readable arrays whose values
 *  include the edge cases (NaN, infinities, signed zeros, halves). */
struct DiffFixture
{
    static constexpr int64_t kArraySize = 6;

    DiffFixture()
    {
        ProgramBuilder b("diff");
        arrays = {b.inF64("a"), b.inF64("b")};
        for (int i = 0; i < 6; i++)
            scalars.push_back(b.paramF64("s" + std::to_string(i)));
        for (int i = 0; i < 3; i++)
            indices.push_back(b.paramF64("i" + std::to_string(i)));
        Arr out = b.outF64("out");
        Arr a = arrays[0];
        b.map(Ex(4), out, [&](Body &, Ex i) { return a(i); });
        prog = std::make_unique<Program>(b.build());
        data = {{kNan, -0.0, 2.5, 0.0, -3.0, 1e300},
                {1.0, kInf, -kInf, 0.5, -0.0, 7.0}};
    }

    /** A context with the fixture's bindings and scalar values. */
    EvalCtx
    context(MemProbe *probe, uint64_t accessCost) const
    {
        EvalCtx ctx(*prog);
        ctx.probe = probe;
        ctx.accessOpCost = accessCost;
        for (size_t k = 0; k < arrays.size(); k++) {
            ArraySlot slot;
            slot.data = const_cast<double *>(data[k].data());
            slot.size = kArraySize;
            slot.physSize = kArraySize;
            slot.addrBase = 100 * static_cast<int64_t>(k);
            ctx.arrays[arrays[k].id()] = slot;
        }
        const double values[] = {kNan, 0.0, -0.0, 2.5, -1.5, 3.0};
        for (size_t k = 0; k < scalars.size(); k++)
            ctx.scalars[scalars[k].ref()->varId] = values[k];
        // Index variables hold in-range values, halves included, so
        // a read through one directly exercises llround's rounding.
        const double idx[] = {2.5, 0.0, 4.5};
        for (size_t k = 0; k < indices.size(); k++)
            ctx.scalars[indices[k].ref()->varId] = idx[k];
        return ctx;
    }

    static constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    std::unique_ptr<Program> prog;
    std::vector<Arr> arrays;
    std::vector<Ex> scalars, indices;
    std::vector<std::vector<double>> data;
};

/** Seeded random expression trees over every node kind and operator. */
class ExprGen
{
  public:
    ExprGen(const DiffFixture &f, uint64_t seed) : f_(f), rng_(seed) {}

    Ex
    gen(int depth)
    {
        const size_t leafOdds = depth <= 0 ? 100 : 25;
        if (pick(100) < leafOdds)
            return leaf();
        switch (pick(4)) {
          case 0:
            return Ex(binary(kBinary[pick(std::size(kBinary))],
                             gen(depth - 1).ref(), gen(depth - 1).ref()));
          case 1:
            return Ex(unary(kUnary[pick(std::size(kUnary))],
                            gen(depth - 1).ref()));
          case 2:
            return sel(gen(depth - 1), gen(depth - 1), gen(depth - 1));
          default:
            return readAt(depth);
        }
    }

  private:
    static constexpr Op kBinary[] = {
        Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Mod, Op::Min, Op::Max,
        Op::Pow, Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne,
        Op::And, Op::Or};
    static constexpr Op kUnary[] = {Op::Neg, Op::Not, Op::Exp, Op::Log,
                                    Op::Sqrt, Op::Abs, Op::Floor};

    size_t
    pick(size_t n)
    {
        return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
    }

    Ex
    leaf()
    {
        static constexpr double kLits[] = {
            0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.5, 2.5, 3.0, 1e-300,
            DiffFixture::kNan, DiffFixture::kInf, -DiffFixture::kInf};
        switch (pick(3)) {
          case 0:
            return Ex(kLits[pick(std::size(kLits))]);
          case 1:
            return f_.scalars[pick(f_.scalars.size())];
          default:
            return f_.indices[pick(f_.indices.size())];
        }
    }

    /** A read whose index is always in bounds: an index variable, a
     *  literal (a half or a whole), or any subtree clamped to
     *  [0, size-1] (min/max map NaN and the infinities into range). */
    Ex
    readAt(int depth)
    {
        const Arr &arr = f_.arrays[pick(f_.arrays.size())];
        Ex index;
        switch (pick(3)) {
          case 0:
            index = f_.indices[pick(f_.indices.size())];
            break;
          case 1:
            index = Ex(0.5 * static_cast<double>(pick(10)));
            break;
          default:
            index = min(max(gen(depth - 1), Ex(0.0)),
                        Ex(static_cast<double>(DiffFixture::kArraySize -
                                               1)));
            break;
        }
        Ex e = arr(index);
        e.ref()->readSite = nextSite_++;
        return e;
    }

    const DiffFixture &f_;
    std::mt19937_64 rng_;
    int nextSite_ = 0;
};

/** Identical bits, except that any NaN matches any NaN: which operand's
 *  payload an operation on two NaNs returns depends on the operand order
 *  the compiler picks for a commutative instruction, which C++ leaves
 *  open, so no NaN payload is part of the evaluator's contract. */
bool
sameBits(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Evaluate with the oracle and the compiled evaluator (twice: the
 *  second call reuses the compiled code) and require the same value
 *  bits (see sameBits), op counts and access sequences. */
void
expectSameAsOracle(const DiffFixture &f, const Ex &e, uint64_t accessCost)
{
    SequenceProbe want;
    EvalCtx oracleCtx = f.context(&want, accessCost);
    const double expected = oracleEval(e.ref().get(), oracleCtx);
    for (int round = 0; round < 2; round++) {
        SequenceProbe got;
        EvalCtx ctx = f.context(&got, accessCost);
        const double value = evalExpr(e.ref(), ctx);
        ASSERT_TRUE(sameBits(value, expected))
            << "value " << value << " vs oracle " << expected;
        ASSERT_EQ(ctx.opCount, oracleCtx.opCount);
        ASSERT_EQ(got.seen, want.seen);
    }
}

TEST(EvalDifferential, RandomTreesMatchRecursiveOracle)
{
    DiffFixture f;
    for (uint64_t seed = 1; seed <= 3000; seed++) {
        ExprGen gen(f, seed);
        const Ex e = gen.gen(6);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSameAsOracle(f, e, 1 + seed % 2);
        if (HasFatalFailure())
            return;
    }
}

TEST(EvalDifferential, ConditionsOnNanAndSignedZeros)
{
    DiffFixture f;
    Arr a = f.arrays[0];
    const Ex nan = f.scalars[0], zero = f.scalars[1], negZero = f.scalars[2];
    const Ex some = f.scalars[3];
    for (const Ex &c : {nan, zero, negZero, Ex(-0.0), some}) {
        // The untaken side of every operator reads out of bounds: only
        // the right side may run.
        expectSameAsOracle(f, c && a(f.indices[0]), 2);
        expectSameAsOracle(f, c || a(f.indices[1]), 2);
        expectSameAsOracle(f, sel(c, a(f.indices[0]), a(f.indices[2])), 2);
        expectSameAsOracle(f, (c && negZero) || (c && nan), 2);
        expectSameAsOracle(f, -(c && nan), 2);
    }
}

TEST(EvalDifferential, RoundingPowModFloor)
{
    DiffFixture f;
    Arr a = f.arrays[0], b = f.arrays[1];
    for (double idx : {0.5, 1.5, 2.5, 3.5, 4.5, 4.49999, 0.49999}) {
        expectSameAsOracle(f, a(Ex(idx)), 2);
        expectSameAsOracle(f, b(Ex(idx) + f.scalars[1]), 1);
    }
    for (const Ex &x : f.scalars) {
        for (const Ex &y : f.scalars) {
            expectSameAsOracle(f, pow(x, y), 1);
            expectSameAsOracle(f, x % y, 1);
            expectSameAsOracle(f, floor(x / y), 1);
        }
        expectSameAsOracle(f, pow(x, Ex(0.5)), 1);
        expectSameAsOracle(f, x % Ex(-0.0), 1);
    }
}

TEST(EvalDifferential, TreeDeeperThanAnyFixedStack)
{
    // Right-deep chains: every level keeps its left operand live while
    // the right one is evaluated, so the operand stack must hold all of
    // them at once.
    DiffFixture f;
    Arr a = f.arrays[1];
    Ex chain = f.scalars[3];
    Ex guarded = f.scalars[4];
    for (int i = 0; i < 5000; i++) {
        chain = Ex(binary(i % 2 ? Op::Sub : Op::Max,
                          f.scalars[3 + i % 3].ref(), chain.ref()));
        guarded = sel(f.scalars[1 + i % 3], a(f.indices[i % 3]), guarded);
    }
    expectSameAsOracle(f, chain, 2);
    expectSameAsOracle(f, guarded, 2);
}

TEST(EvalDifferential, TraceSiteReadWhenRun)
{
    // Sites may be assigned after a tree is first evaluated; accesses
    // report the node's current site.
    DiffFixture f;
    const Ex e = f.arrays[0](f.indices[1]) + f.arrays[1](Ex(2.0));
    SequenceProbe first, second;
    EvalCtx ctx = f.context(&first, 2);
    evalExpr(e.ref(), ctx);
    e.ref()->a->readSite = 7;
    e.ref()->b->readSite = 9;
    ctx.probe = &second;
    evalExpr(e.ref(), ctx);
    ASSERT_EQ(second.seen.size(), 2u);
    EXPECT_EQ(std::get<0>(second.seen[0]), 7);
    EXPECT_EQ(std::get<0>(second.seen[1]), 9);
}

TEST(EvalDifferential, ConcurrentFirstEvaluations)
{
    // Pool threads evaluate shared programs: first evaluations of one
    // tree race to compile it, and every thread must see the same
    // results. Run under tsan to check the publication.
    DiffFixture f;
    std::vector<Ex> trees;
    for (uint64_t seed = 1; seed <= 200; seed++)
        trees.push_back(ExprGen(f, seed).gen(5));
    std::vector<double> expected;
    for (const Ex &e : trees) {
        EvalCtx ctx = f.context(nullptr, 2);
        expected.push_back(oracleEval(e.ref().get(), ctx));
    }
    std::vector<std::vector<double>> got(4);
    std::vector<std::thread> threads;
    for (auto &out : got) {
        threads.emplace_back([&] {
            EvalCtx ctx = f.context(nullptr, 2);
            for (const Ex &e : trees)
                out.push_back(evalExpr(e.ref(), ctx));
        });
    }
    for (auto &t : threads)
        t.join();
    for (const auto &out : got) {
        ASSERT_EQ(out.size(), expected.size());
        for (size_t i = 0; i < out.size(); i++)
            EXPECT_TRUE(sameBits(out[i], expected[i])) << "tree " << i;
    }
}

} // namespace
} // namespace npp
