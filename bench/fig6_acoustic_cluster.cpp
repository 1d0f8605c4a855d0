/**
 * Figure 6: Devito acoustic benchmark on the WSE3 (large problem size)
 * vs 128 A100 GPUs (Tursa, MPI+OpenACC) and 128 dual-EPYC-7742 nodes
 * (ARCHER2, MPI+OpenMP), in GPts/s. The cluster baselines use the
 * calibrated analytic memory-bound models (see model/cluster_model.h
 * and docs/architecture.md §3, "Timing model", for the substitution
 * rationale).
 */

#include "bench_common.h"
#include "model/cluster_model.h"
#include "model/flops.h"

using namespace wsc;

int
main()
{
    printf("Figure 6: acoustic throughput, WSE3 vs cluster baselines "
           "(GPts/s)\n");
    bench::printRule('=');

    fe::Benchmark bench =
        fe::makeAcoustic(fe::largeSize().nx, fe::largeSize().ny, 12);
    model::WaferPerf wse3 = model::measureBenchmark(
        bench, wse::ArchParams::wse3(), bench::defaultMeasure());

    double bytesPerPoint = model::acousticBytesPerPointCacheMachine();
    model::ClusterSpec gpus = model::tursaA100Cluster();
    model::ClusterSpec cpus = model::archer2CpuCluster();
    double gpuGpts = gpus.gptsPerSec(bytesPerPoint);
    double cpuGpts = cpus.gptsPerSec(bytesPerPoint);

    printf("%-44s %12s %9s\n", "system", "GPts/s", "WSE3/x");
    bench::printRule();
    printf("%-44s %12.0f %9s\n", "WSE3 (ours, simulated+extrapolated)",
           wse3.gptsPerSec, "1.0");
    printf("%-44s %12.0f %8.1fx\n", gpus.name.c_str(), gpuGpts,
           wse3.gptsPerSec / gpuGpts);
    printf("%-44s %12.0f %8.1fx\n", cpus.name.c_str(), cpuGpts,
           wse3.gptsPerSec / cpuGpts);
    bench::printRule('=');
    printf("Paper shape: WSE3 ~14x the 128-A100 cluster and ~20x the "
           "128-node\nCPU system for time-to-solution at this problem "
           "size.\n");
    printf("(Assuming perfect CPU scaling, ~%.0f%% of ARCHER2 would "
           "match one WSE3.)\n",
           100.0 * wse3.gptsPerSec / (cpuGpts / 128.0) / 5860.0);
    return 0;
}
