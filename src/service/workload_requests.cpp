#include "service/workload_requests.h"

#include <utility>

namespace wsc::service {

CompileRequest
benchmarkRequest(const fe::Benchmark &bench, bool simulate, int nx, int ny)
{
    CompileRequest request;
    request.name = bench.name;
    // The Program (expression trees, grid, field names) is tiny and
    // context-free; each job re-emits it into its worker's context.
    fe::Program program = bench.program;
    request.build = [program](ir::Context &ctx) {
        return program.emit(ctx);
    };
    if (simulate) {
        request.sim.run = true;
        request.sim.nx = nx;
        request.sim.ny = ny;
        for (size_t f = 0; f < bench.program.numFields(); ++f)
            request.sim.fields.push_back(bench.program.fieldName(f));
        fe::InitFn init = bench.init;
        request.sim.init = [init](int field, int x, int y, int z) {
            return init(field, x, y, z);
        };
    }
    return request;
}

CompileRequest
fortranRequest(std::string name, std::string source,
               fe::FortranKernelConfig config)
{
    CompileRequest request;
    request.name = std::move(name);
    request.build = [source = std::move(source),
                     config](ir::Context &ctx) {
        fe::FortranParseResult parsed =
            fe::parseFortranStencilChecked(source, config);
        if (!parsed) {
            ctx.diagnostics().report(std::move(parsed.diagnostic));
            return ir::OwningOp();
        }
        return parsed.program->emit(ctx);
    };
    return request;
}

std::vector<CompileRequest>
allWorkloadRequests(int64_t nx, int64_t ny, int64_t steps, bool simulate)
{
    // Reduced z extents (vs the paper's 450-900) keep a full five-way
    // round affordable for stress tests and latency benches while still
    // exercising every frontend and pipeline path.
    std::vector<fe::Benchmark> benches;
    benches.push_back(fe::makeJacobian(nx, ny, steps, 24));
    benches.push_back(fe::makeDiffusion(nx, ny, steps, 16));
    benches.push_back(fe::makeAcoustic(nx, ny, steps, 24));
    benches.push_back(fe::makeSeismic(nx, ny, steps, 20));
    benches.push_back(fe::makeUvkbe(nx, ny, 24));

    std::vector<CompileRequest> requests;
    requests.reserve(benches.size());
    for (const fe::Benchmark &bench : benches)
        requests.push_back(benchmarkRequest(bench, simulate,
                                            static_cast<int>(nx),
                                            static_cast<int>(ny)));
    return requests;
}

} // namespace wsc::service
