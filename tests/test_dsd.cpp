#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "support/error.h"
#include "wse/dsd.h"
#include "wse/simulator.h"

namespace wsc::test {
namespace {

using wse::ArchParams;
using wse::Dsd;
using wse::DsdOperand;

/** Run `fn` inside a task and return the consumed cycles. */
class DsdTest : public ::testing::Test
{
  protected:
    DsdTest() : sim(ArchParams::wse3(), 1, 1), pe(sim.pe(0, 0)) {}

    wse::Cycles
    inTask(const std::function<void(wse::TaskContext &)> &fn)
    {
        wse::Cycles consumed = 0;
        static int counter = 0;
        std::string name = "t" + std::to_string(counter++);
        pe.registerTask(name,
                        [&](wse::TaskContext &ctx) {
                            fn(ctx);
                            consumed = ctx.consumed();
                        });
        pe.activate(name, 0);
        sim.runWithReport();
        return consumed;
    }

    wse::Simulator sim;
    wse::Pe &pe;
};

TEST_F(DsdTest, FaddsElementwise)
{
    std::vector<float> a = {1, 2, 3, 4};
    std::vector<float> b = {10, 20, 30, 40};
    std::vector<float> d(4, 0);
    inTask([&](wse::TaskContext &ctx) {
        wse::fadds(ctx, Dsd{&d, 0, 4, 1},
                   DsdOperand::fromDsd(Dsd{&a, 0, 4, 1}),
                   DsdOperand::fromDsd(Dsd{&b, 0, 4, 1}));
    });
    EXPECT_EQ(d, (std::vector<float>{11, 22, 33, 44}));
}

TEST_F(DsdTest, FmacsFusedMultiplyAccumulate)
{
    std::vector<float> acc = {1, 1, 1};
    std::vector<float> src = {2, 3, 4};
    inTask([&](wse::TaskContext &ctx) {
        wse::fmacs(ctx, Dsd{&acc, 0, 3, 1},
                   DsdOperand::fromDsd(Dsd{&acc, 0, 3, 1}),
                   DsdOperand::fromDsd(Dsd{&src, 0, 3, 1}), 0.5f);
    });
    EXPECT_EQ(acc, (std::vector<float>{2.0f, 2.5f, 3.0f}));
}

TEST_F(DsdTest, ScalarOperandsBroadcast)
{
    std::vector<float> d(5, 0);
    inTask([&](wse::TaskContext &ctx) {
        wse::fmovs(ctx, Dsd{&d, 0, 5, 1}, DsdOperand::fromScalar(7.5f));
    });
    EXPECT_EQ(d, std::vector<float>(5, 7.5f));
}

TEST_F(DsdTest, OffsetAndStrideViews)
{
    std::vector<float> buf = {0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<float> out(3, 0);
    inTask([&](wse::TaskContext &ctx) {
        // Every second element starting at 1: {1, 3, 5}.
        wse::fmovs(ctx, Dsd{&out, 0, 3, 1},
                   DsdOperand::fromDsd(Dsd{&buf, 1, 3, 2}));
    });
    EXPECT_EQ(out, (std::vector<float>{1, 3, 5}));
}

TEST_F(DsdTest, ShiftedViewsAliasCorrectly)
{
    std::vector<float> buf = {1, 2, 3, 4, 5, 6};
    inTask([&](wse::TaskContext &ctx) {
        Dsd interior{&buf, 1, 4, 1};
        // buf[1..5) += buf[2..6): the second operand reads ahead of the
        // writes, so every element sees its original neighbour.
        wse::fadds(ctx, interior, DsdOperand::fromDsd(interior),
                   DsdOperand::fromDsd(interior.shifted(1)));
    });
    EXPECT_EQ(buf, (std::vector<float>{1, 5, 7, 9, 11, 6}));
}

TEST_F(DsdTest, BackwardShiftedViewsSeeEarlierWrites)
{
    std::vector<float> buf = {1, 2, 3, 4, 5, 6};
    inTask([&](wse::TaskContext &ctx) {
        Dsd interior{&buf, 1, 4, 1};
        // buf[1..5) += buf[0..4): the second operand reads the element
        // written one iteration earlier — in-order semantics make it a
        // running sum.
        wse::fadds(ctx, interior, DsdOperand::fromDsd(interior),
                   DsdOperand::fromDsd(interior.shifted(-1)));
    });
    EXPECT_EQ(buf, (std::vector<float>{1, 3, 6, 10, 15, 6}));
}

TEST_F(DsdTest, WrappedDsdImplementsOneShotReduction)
{
    // recv = 3 sections x 4 elements; acc (4) += all sections.
    std::vector<float> recv = {1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3};
    std::vector<float> acc(4, 0);
    inTask([&](wse::TaskContext &ctx) {
        Dsd accWrap{&acc, 0, 12, 1, /*wrap=*/4};
        wse::fadds(ctx, accWrap, DsdOperand::fromDsd(accWrap),
                   DsdOperand::fromDsd(Dsd{&recv, 0, 12, 1}));
    });
    EXPECT_EQ(acc, std::vector<float>(4, 6.0f));
}

TEST_F(DsdTest, OutOfRangeAccessPanics)
{
    std::vector<float> buf(4, 0);
    EXPECT_THROW(
        inTask([&](wse::TaskContext &ctx) {
            wse::fmovs(ctx, Dsd{&buf, 2, 4, 1},
                       DsdOperand::fromScalar(0.0f));
        }),
        PanicError);
}

TEST_F(DsdTest, CostsScaleWithLength)
{
    std::vector<float> a(100, 1);
    std::vector<float> d(100, 0);
    wse::Cycles c100 = inTask([&](wse::TaskContext &ctx) {
        wse::fadds(ctx, Dsd{&d, 0, 100, 1},
                   DsdOperand::fromDsd(Dsd{&a, 0, 100, 1}),
                   DsdOperand::fromScalar(1.0f));
    });
    wse::Cycles c10 = inTask([&](wse::TaskContext &ctx) {
        wse::fadds(ctx, Dsd{&d, 0, 10, 1},
                   DsdOperand::fromDsd(Dsd{&a, 0, 10, 1}),
                   DsdOperand::fromScalar(1.0f));
    });
    EXPECT_EQ(c100 - c10, 90u);
}

TEST_F(DsdTest, FlopAccountingPerBuiltin)
{
    std::vector<float> a(10, 1);
    std::vector<float> d(10, 0);
    uint64_t before = sim.stats().flops;
    inTask([&](wse::TaskContext &ctx) {
        wse::fmacs(ctx, Dsd{&d, 0, 10, 1},
                   DsdOperand::fromDsd(Dsd{&a, 0, 10, 1}),
                   DsdOperand::fromDsd(Dsd{&a, 0, 10, 1}), 2.0f);
        wse::fmovs(ctx, Dsd{&d, 0, 10, 1},
                   DsdOperand::fromScalar(0.0f));
    });
    // fmacs: 2 flops/elem; fmovs: 0.
    EXPECT_EQ(sim.stats().flops - before, 20u);
}

//===----------------------------------------------------------------------===
// Table tests: every builtin against a naive per-element loop
//===----------------------------------------------------------------------===

/** Run `fn` inside a task on a fresh one-PE simulator. */
void
runInTask(const std::function<void(wse::TaskContext &)> &fn)
{
    wse::Simulator sim(ArchParams::wse3(), 1, 1);
    sim.pe(0, 0).registerTask("t", fn);
    sim.pe(0, 0).activate("t", 0);
    sim.runWithReport();
}

/** A builtin under test and its per-element reference semantics. */
struct Builtin
{
    const char *name;
    void (*call)(wse::TaskContext &, const Dsd &, const DsdOperand &,
                 const DsdOperand &, float);
    float (*ref)(float x, float y, float scalar);
    /** fmovs reads only its first operand. */
    bool readsB = true;
};

const Builtin kBuiltins[] = {
    {"fadds",
     [](wse::TaskContext &ctx, const Dsd &d, const DsdOperand &a,
        const DsdOperand &b, float) { wse::fadds(ctx, d, a, b); },
     [](float x, float y, float) { return x + y; }},
    {"fsubs",
     [](wse::TaskContext &ctx, const Dsd &d, const DsdOperand &a,
        const DsdOperand &b, float) { wse::fsubs(ctx, d, a, b); },
     [](float x, float y, float) { return x - y; }},
    {"fmuls",
     [](wse::TaskContext &ctx, const Dsd &d, const DsdOperand &a,
        const DsdOperand &b, float) { wse::fmuls(ctx, d, a, b); },
     [](float x, float y, float) { return x * y; }},
    {"fmovs",
     [](wse::TaskContext &ctx, const Dsd &d, const DsdOperand &a,
        const DsdOperand &, float) { wse::fmovs(ctx, d, a); },
     [](float x, float, float) { return x; }, false},
    {"fmacs",
     [](wse::TaskContext &ctx, const Dsd &d, const DsdOperand &a,
        const DsdOperand &b, float s) { wse::fmacs(ctx, d, a, b, s); },
     [](float x, float y, float s) { return x + y * s; }},
};

/** A view in a table case: buffer 0 or 1, or a scalar (buffer -1). */
struct View
{
    int buffer = -1;
    int64_t offset = 0;
    int64_t stride = 1;
    int64_t wrap = 0;
    float scalar = 0.0f;
};

View
view(int buffer, int64_t offset, int64_t stride = 1, int64_t wrap = 0)
{
    return View{buffer, offset, stride, wrap, 0.0f};
}

View
scalar(float s)
{
    return View{-1, 0, 1, 0, s};
}

struct TableCase
{
    const char *name;
    int64_t n;
    View dest, a, b;
};

/** Index of element i of `v`, written out independently of Dsd::at. */
int64_t
naiveIndex(const View &v, int64_t i)
{
    int64_t k = i;
    if (v.wrap > 0)
        k = i - (i / v.wrap) * v.wrap;
    return v.offset + k * v.stride;
}

/** The reference semantics: one element at a time, in index order. */
void
naiveBuiltin(const Builtin &op, std::vector<float> *bufs, const TableCase &c,
             float scalarArg)
{
    auto read = [&](const View &v, int64_t i) {
        return v.buffer < 0 ? v.scalar : bufs[v.buffer][naiveIndex(v, i)];
    };
    for (int64_t i = 0; i < c.n; ++i) {
        float x = read(c.a, i);
        float y = read(c.b, i);
        bufs[c.dest.buffer][naiveIndex(c.dest, i)] = op.ref(x, y, scalarArg);
    }
}

Dsd
toDsd(std::vector<float> *bufs, const View &v, int64_t n)
{
    return Dsd{&bufs[v.buffer], v.offset, n, v.stride, v.wrap};
}

DsdOperand
toOperand(std::vector<float> *bufs, const View &v, int64_t n)
{
    return v.buffer < 0 ? DsdOperand::fromScalar(v.scalar)
                        : DsdOperand::fromDsd(toDsd(bufs, v, n));
}

std::vector<uint32_t>
bits(const std::vector<float> &v)
{
    std::vector<uint32_t> out(v.size());
    std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
    return out;
}

TEST(DsdTableTest, EveryBuiltinMatchesANaiveLoopBitForBit)
{
    // Buffers 0 and 1 hold 64 elements each.
    const TableCase cases[] = {
        {"plain", 20, view(1, 0), view(0, 0), view(0, 32)},
        {"offsets", 13, view(1, 5), view(0, 3), view(0, 17)},
        {"stride 2 dest", 10, view(1, 1, 2), view(0, 0), view(0, 40)},
        {"stride 2 operands", 12, view(1, 0), view(0, 1, 2),
         view(0, 30, 2)},
        {"forward overlap", 30, view(0, 1), view(0, 0), view(0, 2)},
        {"backward overlap", 30, view(0, 0), view(0, 1), view(0, 2)},
        {"dest between operands", 25, view(0, 10), view(0, 9),
         view(0, 11)},
        {"wrapped reduction", 32, view(1, 4, 1, 8), view(1, 4, 1, 8),
         view(0, 0)},
        {"wrapped, n not a multiple", 30, view(1, 4, 1, 8),
         view(1, 4, 1, 8), view(0, 0)},
        {"wrapped, recv overlaps acc", 30, view(0, 0, 1, 8),
         view(0, 0, 1, 8), view(0, 4)},
        {"wrapped operand only", 21, view(1, 0), view(0, 3, 1, 5),
         view(0, 20)},
        {"mixed wraps", 24, view(1, 0, 1, 8), view(1, 0, 1, 4),
         view(0, 0)},
        {"wrap beyond n", 16, view(1, 2, 1, 40), view(0, 0, 1, 16),
         view(0, 20)},
        {"wrapped stride 2", 18, view(1, 0, 2, 6), view(1, 0, 2, 6),
         view(0, 0)},
        {"scalar a", 17, view(1, 3), scalar(1.25f), view(0, 5)},
        {"scalar b", 17, view(1, 3), view(0, 5), scalar(-0.75f)},
        {"both scalar", 9, view(1, 50), scalar(2.5f), scalar(0.5f)},
        {"scalar into wrap", 20, view(1, 0, 1, 6), view(1, 0, 1, 6),
         scalar(3.0f)},
    };

    std::mt19937 rng(20260417);
    std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
    for (const Builtin &op : kBuiltins) {
        for (const TableCase &c : cases) {
            SCOPED_TRACE(std::string(op.name) + ": " + c.name);
            std::vector<float> got[2];
            for (std::vector<float> &b : got) {
                b.resize(64);
                for (float &x : b)
                    x = dist(rng);
            }
            const float scalarArg = dist(rng);
            std::vector<float> want[2] = {got[0], got[1]};
            naiveBuiltin(op, want, c, scalarArg);
            runInTask([&](wse::TaskContext &ctx) {
                op.call(ctx, toDsd(got, c.dest, c.n),
                        toOperand(got, c.a, c.n), toOperand(got, c.b, c.n),
                        scalarArg);
            });
            EXPECT_EQ(bits(got[0]), bits(want[0]));
            EXPECT_EQ(bits(got[1]), bits(want[1]));
        }
    }
}

TEST(DsdTableTest, OutOfRangeViewPanicsInEveryBuiltin)
{
    // Each case puts one view out of range of a 16-element buffer.
    const TableCase cases[] = {
        {"dest past the end", 8, view(1, 10), view(0, 0), view(0, 0)},
        {"dest negative offset", 8, view(1, -1), view(0, 0), view(0, 0)},
        {"a past the end", 8, view(1, 0), view(0, 9), view(0, 0)},
        {"b past the end", 8, view(1, 0), view(0, 0), view(0, 12)},
        {"strided past the end", 8, view(1, 0), view(0, 0, 3),
         view(0, 0)},
        {"wrapped section past the end", 10, view(1, 12, 1, 5),
         view(1, 12, 1, 5), view(0, 0)},
    };
    for (const Builtin &op : kBuiltins) {
        for (const TableCase &c : cases) {
            if (!op.readsB && c.b.offset != 0)
                continue;
            SCOPED_TRACE(std::string(op.name) + ": " + c.name);
            std::vector<float> bufs[2] = {std::vector<float>(16, 1.0f),
                                          std::vector<float>(16, 0.0f)};
            EXPECT_THROW(runInTask([&](wse::TaskContext &ctx) {
                             op.call(ctx, toDsd(bufs, c.dest, c.n),
                                     toOperand(bufs, c.a, c.n),
                                     toOperand(bufs, c.b, c.n), 2.0f);
                         }),
                         PanicError);
        }
    }
}

} // namespace
} // namespace wsc::test
