#include "wse/dsd.h"

#include <algorithm>

#include "support/error.h"

namespace wsc::wse {

[[noreturn]] void
Dsd::accessError(int64_t idx) const
{
    WSC_ASSERT(buf, "DSD with null buffer");
    panic(strcat("DSD access out of range: idx=", idx,
                 " size=", buf->size()));
}

namespace {

/** Number of elements a builtin iterates over (the dest length). */
int64_t
opLength(const Dsd &dest)
{
    WSC_ASSERT(dest.length > 0, "DSD builtin over empty destination");
    return dest.length;
}

/** Whether `d` is a non-null stride-1 view whose elements [0, count)
 *  all lie inside its buffer. */
bool
contiguousInRange(const Dsd &d, int64_t count)
{
    if (d.buf == nullptr || d.stride != 1 || d.offset < 0)
        return false;
    auto size = static_cast<int64_t>(d.buf->size());
    return count <= size && d.offset <= size - count;
}

/** A view whose wrap changes which elements it addresses within n
 *  iterations (wrap >= n addresses i itself). */
bool
wraps(const Dsd &d, int64_t n)
{
    return d.wrap > 0 && d.wrap < n;
}

/** One element source of the contiguous path: the section's first
 *  element (p) or a broadcast scalar (p == nullptr). */
struct Src
{
    const float *p;
    float scalar;
};

/** dest[j] = op(a[j], b[j]) for j < len. One loop per scalar shape:
 *  GCC vectorizes each of them (behind a run-time overlap check), but
 *  leaves most of a single loop that tests p per element scalar. */
template <typename Op>
void
sectionLoop(float *d, Src a, Src b, int64_t len, Op op)
{
    if (a.p && b.p)
        for (int64_t j = 0; j < len; ++j)
            d[j] = op(a.p[j], b.p[j]);
    else if (a.p)
        for (int64_t j = 0; j < len; ++j)
            d[j] = op(a.p[j], b.scalar);
    else if (b.p)
        for (int64_t j = 0; j < len; ++j)
            d[j] = op(a.scalar, b.p[j]);
    else
        for (int64_t j = 0; j < len; ++j)
            d[j] = op(a.scalar, b.scalar);
}

/**
 * dest[i] = op(a[i], b[i]) for i < n.
 *
 * The contiguous path applies when dest and every DSD operand are
 * non-null stride-1 views in range for all n elements, and every
 * wrapped view shares one wrap C. Element i of a view is then base[i]
 * (unwrapped) or base[i mod C] (wrapped), so the loop runs section by
 * section, i = s*C + j, over raw pointers: no `%` and no per-element
 * bounds check. This covers plain element-wise ops and the one-shot
 * reduction fadds(acc, acc, recv) with acc.wrap = C. Elements are read
 * and written in the same order as the checked loop and no `restrict`
 * is claimed, so overlapping views give the same bits.
 *
 * Every other case (other strides, mixed wraps, a view out of range)
 * runs the checked Dsd::at loop, which panics at the first bad
 * element.
 */
template <typename Op>
void
elementwise(const Dsd &dest, const DsdOperand &a, const DsdOperand &b,
            int64_t n, Op op)
{
    const Dsd *views[] = {&dest, a.isScalar ? nullptr : &a.dsd,
                          b.isScalar ? nullptr : &b.dsd};
    int64_t wrap = 0;
    bool contiguous = true;
    for (const Dsd *v : views) {
        if (v == nullptr)
            continue;
        if (!wraps(*v, n)) {
            contiguous &= contiguousInRange(*v, n);
            continue;
        }
        contiguous &= contiguousInRange(*v, v->wrap) &&
                      (wrap == 0 || v->wrap == wrap);
        wrap = v->wrap;
    }

    if (!contiguous) {
        for (int64_t i = 0; i < n; ++i) {
            float x = a.read(i);
            float y = b.read(i);
            dest.at(i) = op(x, y);
        }
        return;
    }

    // Section s starts at element s*C of an unwrapped view and at
    // element 0 of a wrapped one.
    const int64_t section = wrap > 0 ? wrap : n;
    auto base = [n](const Dsd &d, int64_t start) {
        return d.buf->data() + d.offset + (wraps(d, n) ? 0 : start);
    };
    auto src = [&](const DsdOperand &o, int64_t start) {
        return o.isScalar ? Src{nullptr, o.scalar}
                          : Src{base(o.dsd, start), 0.0f};
    };
    for (int64_t start = 0; start < n; start += section)
        sectionLoop(base(dest, start), src(a, start), src(b, start),
                    std::min(section, n - start), op);
}

} // namespace

void
fadds(TaskContext &ctx, const Dsd &dest, const DsdOperand &a,
      const DsdOperand &b)
{
    int64_t n = opLength(dest);
    elementwise(dest, a, b, n, [](float x, float y) { return x + y; });
    ctx.dsdOp(n, 1);
}

void
fsubs(TaskContext &ctx, const Dsd &dest, const DsdOperand &a,
      const DsdOperand &b)
{
    int64_t n = opLength(dest);
    elementwise(dest, a, b, n, [](float x, float y) { return x - y; });
    ctx.dsdOp(n, 1);
}

void
fmuls(TaskContext &ctx, const Dsd &dest, const DsdOperand &a,
      const DsdOperand &b)
{
    int64_t n = opLength(dest);
    elementwise(dest, a, b, n, [](float x, float y) { return x * y; });
    ctx.dsdOp(n, 1);
}

void
fmovs(TaskContext &ctx, const Dsd &dest, const DsdOperand &src)
{
    int64_t n = opLength(dest);
    // The second operand is an unread placeholder scalar.
    elementwise(dest, src, DsdOperand::fromScalar(0.0f), n,
                [](float x, float) { return x; });
    ctx.dsdOp(n, 0, /*bytesPerElem=*/8);
}

void
fmacs(TaskContext &ctx, const Dsd &dest, const DsdOperand &a,
      const DsdOperand &b, float scalar)
{
    int64_t n = opLength(dest);
    elementwise(dest, a, b, n,
                [scalar](float x, float y) { return x + y * scalar; });
    ctx.dsdOp(n, 2);
}

} // namespace wsc::wse
