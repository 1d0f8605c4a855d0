/**
 * @file
 * The hand-written 25-point seismic kernel (Jacquelin et al., shipped in
 * Cerebras' csl-examples) recreated directly against the simulator
 * runtime — the Figure 5 comparator. It reproduces the documented
 * characteristics of that implementation relative to the generated code
 * (paper §6.1):
 *   - communication in two chunks (vs. one);
 *   - the full column is transmitted, including the first/last values
 *     the calculation never uses (no trimming);
 *   - per-(direction, distance) receive tasks, roughly doubling task
 *     activations;
 *   - written for the WSE2's switch configuration (runs on the WSE2
 *     parameter set only, like the original).
 */

#ifndef WSC_BASELINES_HANDWRITTEN_SEISMIC_H
#define WSC_BASELINES_HANDWRITTEN_SEISMIC_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comms/star_comm.h"
#include "wse/simulator.h"

namespace wsc::baselines {

/** Configuration of the hand-written kernel. */
struct HandwrittenSeismicConfig
{
    int64_t nz = 450;
    int64_t timesteps = 10;
    /** The original uses two chunks. */
    int64_t numChunks = 2;
};

/** The hand-coded CSL program, instantiated on every simulated PE. */
class HandwrittenSeismic
{
  public:
    HandwrittenSeismic(wse::Simulator &sim,
                       HandwrittenSeismicConfig config);

    /** Initial conditions for p (field 0) and p_prev (field 1). */
    void setInit(std::function<float(int f, int x, int y, int z)> init);

    void configure();
    void launch();

    /** Final pressure column (resolving the buffer rotation). */
    std::vector<float> readP(int x, int y);

    /** for_cond dispatch markers on a PE (per-step timing). */
    const std::vector<wse::Cycles> &stepMarks(int x, int y) const;

    /** Ready cycles of a PE's receive activations: the landing cycle of
     *  each section (per-section timing, which the dispatch markers
     *  absorb while the PE is busy). */
    const std::vector<wse::Cycles> &recvReadyMarks(int x, int y) const;

    const comms::StarComm &comm() const { return *comm_; }

  private:
    struct PeState
    {
        // Triple buffering by dense-handle rotation (resolved once at
        // configure; no string lookups during the run).
        wse::BufferId pBuf;
        wse::BufferId pPrevBuf;
        wse::BufferId pNextBuf;
        wse::BufferId accBuf;
        wse::BufferId recvBuf;
        wse::TaskId forCondTask;
        wse::TaskId recvTask;
        wse::TaskId doneTask;
        int64_t step = 0;
        bool interior = true;
    };

    PeState &state(int x, int y);
    void registerTasks(int x, int y);
    /** seq_kernel body: zero the accumulator, start the exchange. */
    void pe_seq(wse::TaskContext &ctx, int x, int y);

    wse::Simulator &sim_;
    HandwrittenSeismicConfig config_;
    std::unique_ptr<comms::StarComm> comm_;
    std::function<float(int, int, int, int)> init_;
    std::vector<PeState> states_;
    std::vector<std::vector<wse::Cycles>> stepMarks_;
    std::vector<std::vector<wse::Cycles>> recvReadyMarks_;
};

} // namespace wsc::baselines

#endif // WSC_BASELINES_HANDWRITTEN_SEISMIC_H
