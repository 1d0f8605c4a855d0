/**
 * @file
 * Analytic throughput models of the Figure 6 baselines: 128 Nvidia A100
 * GPUs (Tursa) and 128 dual-EPYC-7742 nodes (ARCHER2), substituting for
 * the Bisbas et al. measurements this repository cannot re-run.
 *
 * Both baselines are memory-bound for finite-difference stencils (the
 * paper's own Figure 7 argument), so a bandwidth-limited model with a
 * kernel efficiency (achieved fraction of STREAM bandwidth) and a
 * strong-scaling efficiency (halo exchange overhead at 128 devices)
 * captures their throughput to first order. The efficiency constants
 * are calibrated against the published absolute numbers from the
 * paper's source [5] (see docs/architecture.md §3, "Timing model").
 */

#ifndef WSC_MODEL_CLUSTER_MODEL_H
#define WSC_MODEL_CLUSTER_MODEL_H

#include <string>

namespace wsc::model {

/** A bandwidth-limited cluster baseline. */
struct ClusterSpec
{
    std::string name;
    /** STREAM-class memory bandwidth per device, bytes/s. */
    double perDeviceBandwidth = 0.0;
    /** Peak FP32 FLOP/s per device (for the roofline plot). */
    double perDevicePeakFlops = 0.0;
    int devices = 1;
    /** Fraction of bandwidth a real stencil kernel achieves. */
    double kernelEfficiency = 1.0;
    /** Strong-scaling efficiency at `devices` (halo overhead). */
    double scalingEfficiency = 1.0;

    /** Modelled throughput in GPts/s for a kernel moving
     *  `bytesPerPoint` to/from memory per updated point. */
    double gptsPerSec(double bytesPerPoint) const;
    /** Modelled FLOP/s given the kernel's FLOPs per point. */
    double flopsPerSec(double flopsPerPoint, double bytesPerPoint) const;
};

/** 128 x A100-80 on Tursa (MPI + OpenACC, Bisbas et al. setup). */
ClusterSpec tursaA100Cluster();
/** A single A100 (for the Figure 7 roofline point). */
ClusterSpec singleA100();
/** 128 dual-EPYC-7742 nodes of the ARCHER2 Cray-EX (MPI + OpenMP). */
ClusterSpec archer2CpuCluster();

/**
 * Memory traffic per updated point of the acoustic kernel on a
 * cache-based machine: read u and u_prev, write u_next, plus an
 * effective fraction of the halo re-reads that miss cache.
 */
double acousticBytesPerPointCacheMachine();

} // namespace wsc::model

#endif // WSC_MODEL_CLUSTER_MODEL_H
