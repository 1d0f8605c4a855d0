/**
 * @file
 * Shared helpers for the paper-figure benchmark harnesses.
 *
 * All harnesses print the paper's rows/series from *measured* simulator
 * runs (reduced step counts, steady-state extrapolation;
 * docs/architecture.md §3, "Timing model").
 * Absolute numbers are not expected to match the authors' testbed — the
 * shape (orderings, rough factors, crossovers) is the reproduction
 * target, so the harnesses print measured rows and assert no paper
 * figure.
 */

#ifndef WSC_BENCH_BENCH_COMMON_H
#define WSC_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>

#include "frontends/benchmarks.h"
#include "model/wafer_model.h"

namespace wsc::bench {

/** Simulated steps used to reach steady state per benchmark. */
inline model::MeasureOptions
defaultMeasure(int simGrid = 0)
{
    model::MeasureOptions options;
    options.steps = 12;
    options.warmupSteps = 4;
    options.simGrid = simGrid;
    return options;
}

/** Reduced-step instance of a named paper benchmark at a problem size. */
inline fe::Benchmark
paperBenchmark(const std::string &name, int64_t nx, int64_t ny,
               int64_t steps = 12)
{
    if (name == "Jacobian")
        return fe::makeJacobian(nx, ny, steps);
    if (name == "Diffusion")
        return fe::makeDiffusion(nx, ny, steps);
    if (name == "Acoustic")
        return fe::makeAcoustic(nx, ny, steps);
    if (name == "Seismic")
        return fe::makeSeismic(nx, ny, steps);
    return fe::makeUvkbe(nx, ny);
}

inline void
printRule(char c = '-')
{
    for (int i = 0; i < 74; ++i)
        std::putchar(c);
    std::putchar('\n');
}

} // namespace wsc::bench

#endif // WSC_BENCH_BENCH_COMMON_H
