/**
 * @file
 * The star-stencil property corpus: radius 1..3 linear stencils with
 * deterministic pseudo-random coefficients over uneven grids, several z
 * depths and forced chunk counts. The numeric property suite
 * (test_property_correctness.cpp) checks each case against the
 * reference executor; the golden timing table (tests/golden/) locks
 * each case's simulated timing.
 */

#ifndef WSC_TESTS_PROPERTY_CASES_H
#define WSC_TESTS_PROPERTY_CASES_H

#include <cmath>
#include <string>
#include <vector>

#include "frontends/benchmarks.h"

namespace wsc::test {

struct PropertyCase
{
    int radius;
    int nx;
    int ny;
    int nz;
    int steps;
    int forceChunks; // 0 = policy default
};

/** The fixed corpus, in suite order. */
inline const std::vector<PropertyCase> &
propertyCases()
{
    static const std::vector<PropertyCase> cases = {
        {1, 6, 6, 10, 3, 0},  {1, 6, 6, 10, 3, 2},  {1, 9, 4, 14, 4, 0},
        {1, 4, 9, 14, 4, 3},  {2, 7, 7, 12, 3, 0},  {2, 7, 7, 12, 3, 2},
        {2, 10, 6, 18, 3, 4}, {2, 6, 10, 18, 2, 0}, {3, 8, 8, 16, 3, 0},
        {3, 8, 8, 16, 3, 2},  {3, 11, 8, 20, 2, 5}, {3, 8, 11, 20, 2, 0},
    };
    return cases;
}

/** Case name, e.g. "r2_g7x7x12_s3_c2". */
inline std::string
propertyCaseName(const PropertyCase &pc)
{
    return "r" + std::to_string(pc.radius) + "_g" + std::to_string(pc.nx) +
           "x" + std::to_string(pc.ny) + "x" + std::to_string(pc.nz) +
           "_s" + std::to_string(pc.steps) + "_c" +
           std::to_string(pc.forceChunks);
}

/** Deterministic pseudo-random coefficient for term i. */
inline double
propertyCoeff(int i, int radius)
{
    double c = 0.03 + 0.021 * ((i * 7 + radius * 13) % 11);
    return ((i + radius) % 2 == 0) ? c : -c;
}

/** One-field star stencil of the case's radius over its grid. */
inline fe::Benchmark
makePropertyBenchmark(const PropertyCase &pc)
{
    fe::Program program(fe::Grid{pc.nx, pc.ny, pc.nz});
    program.setTimesteps(pc.steps);
    fe::Field u = program.addField("u");
    // Coefficients are assigned in a fixed order (chained `+` would
    // leave the evaluation order of `term++` unspecified).
    int term = 0;
    auto next = [&] { return fe::constant(propertyCoeff(term++, pc.radius)); };
    fe::Expr update = next() * u();
    for (int d = 1; d <= pc.radius; ++d) {
        update = update + next() * u.at(d, 0, 0);
        update = update + next() * u.at(-d, 0, 0);
        update = update + next() * u.at(0, d, 0);
        update = update + next() * u.at(0, -d, 0);
        update = update + next() * u.at(0, 0, d);
        update = update + next() * u.at(0, 0, -d);
    }
    program.setUpdate(u, update);

    fe::Benchmark bench;
    bench.name = "property";
    bench.frontend = "sym";
    bench.program = std::move(program);
    bench.paperIterations = pc.steps;
    bench.init = [](int f, int64_t x, int64_t y, int64_t z) {
        return static_cast<float>(
            std::sin(0.13 * static_cast<double>(x + 2 * y) + 0.2 * f) +
            0.4 * std::cos(0.09 * static_cast<double>(z)));
    };
    return bench;
}

} // namespace wsc::test

#endif // WSC_TESTS_PROPERTY_CASES_H
