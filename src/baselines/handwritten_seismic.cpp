#include "baselines/handwritten_seismic.h"

#include "frontends/benchmarks.h"
#include "support/error.h"
#include "wse/dsd.h"

namespace wsc::baselines {

namespace {

/** The 16 remote accesses of the 25-point star, canonical order. */
std::vector<comms::Access>
seismicAccesses()
{
    std::vector<comms::Access> accesses;
    for (int d = 1; d <= 4; ++d) {
        accesses.push_back({d, 0});
        accesses.push_back({-d, 0});
        accesses.push_back({0, -d});
        accesses.push_back({0, d});
    }
    return comms::canonicalAccessOrder(accesses);
}

} // namespace

HandwrittenSeismic::HandwrittenSeismic(wse::Simulator &sim,
                                       HandwrittenSeismicConfig config)
    : sim_(sim), config_(config)
{
    states_.resize(static_cast<size_t>(sim.width()) * sim.height());
    stepMarks_.resize(states_.size());
    recvReadyMarks_.resize(states_.size());

    comms::StarCommConfig comm;
    comm.accesses = seismicAccesses();
    comm.zSize = config_.nz;
    comm.numChunks = config_.numChunks;
    // The hand-written kernel transmits the full column, including the
    // first and last values the calculation never uses.
    comm.trimFirst = 0;
    comm.trimLast = 0;
    // No coefficient promotion: the receive tasks apply coefficients.
    comm.coeffs.clear();
    comm.recvBufferName = "hw_recv";
    // Per-(direction, distance) receive tasks, as in the original.
    comm.perSectionCallbacks = true;
    comm_ = std::make_unique<comms::StarComm>(sim_, comm);
}

void
HandwrittenSeismic::setInit(
    std::function<float(int f, int x, int y, int z)> init)
{
    init_ = std::move(init);
}

HandwrittenSeismic::PeState &
HandwrittenSeismic::state(int x, int y)
{
    return states_[static_cast<size_t>(x) * sim_.height() + y];
}

void
HandwrittenSeismic::configure()
{
    WSC_ASSERT(init_, "setInit must be called before configure");
    for (int x = 0; x < sim_.width(); ++x) {
        for (int y = 0; y < sim_.height(); ++y) {
            wse::Pe &pe = sim_.pe(x, y);
            size_t nz = static_cast<size_t>(config_.nz);
            PeState &st = state(x, y);
            st.pBuf = pe.allocBufferId("p", nz);
            st.pPrevBuf = pe.allocBufferId("p_prev", nz);
            st.pNextBuf = pe.allocBufferId("p_next", nz);
            st.accBuf = pe.allocBufferId("hw_acc", nz);
            std::vector<float> &p = pe.buffer(st.pBuf);
            std::vector<float> &pPrev = pe.buffer(st.pPrevBuf);
            std::vector<float> &pNext = pe.buffer(st.pNextBuf);
            st.interior = comm_->expectedSections(x, y) > 0;
            for (size_t z = 0; z < nz; ++z) {
                int zi = static_cast<int>(z);
                // Boundary PEs carry the p boundary condition in every
                // buffer (value-neutral rotation).
                p[z] = init_(0, x, y, zi);
                pPrev[z] = init_(st.interior ? 1 : 0, x, y, zi);
                pNext[z] = init_(0, x, y, zi);
            }
            registerTasks(x, y);
        }
    }
    comm_->setup();
    // The receive buffer is allocated by the comms library's setup, so
    // its handle resolves only now.
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            state(x, y).recvBuf = sim_.pe(x, y).bufferId("hw_recv");
}

void
HandwrittenSeismic::registerTasks(int x, int y)
{
    wse::Pe &pe = sim_.pe(x, y);
    const fe::SeismicCoefficients sc = fe::seismicCoefficients();
    const int64_t nz = config_.nz;
    const int64_t rz = 4;
    const int64_t interior = nz - 2 * rz;
    const int64_t chunk = comm_->chunkElems();

    PeState &registeredState = state(x, y);

    // for_cond: step < T ? seq : post
    registeredState.forCondTask = pe.registerTask(
        "for_cond", [this, x, y](wse::TaskContext &ctx) {
            stepMarks_[static_cast<size_t>(x) * sim_.height() + y]
                .push_back(ctx.startCycle());
            PeState &st = state(x, y);
            ctx.consume(4);
            if (st.step < config_.timesteps)
                pe_seq(ctx, x, y);
            else
                ctx.consume(2); // unblock, return to host
        });

    // Receive task: one activation per landed (direction, distance)
    // section; applies the coefficient and accumulates — twice the task
    // traffic of the generated code's per-chunk callback.
    registeredState.recvTask = pe.registerTask(
        "recv_dir", [this, x, y, chunk, sc](wse::TaskContext &ctx) {
            recvReadyMarks_[static_cast<size_t>(x) * sim_.height() + y]
                .push_back(ctx.readyCycle());
            wse::Pe &pe = ctx.pe();
            PeState &st = state(x, y);
            auto [section, offset] = comm_->popCompletedSection(pe);
            const comms::Access &a = comm_->config().accesses[
                static_cast<size_t>(section)];
            float coeff = static_cast<float>(sc.k[a.distance() - 1]);
            std::vector<float> &recv = pe.buffer(st.recvBuf);
            wse::Dsd accD{&pe.buffer(st.accBuf), offset, chunk, 1};
            wse::Dsd secD{&recv, section * chunk, chunk, 1};
            // acc += coeff * section (separate pointer per section).
            wse::fmacs(ctx, accD, wse::DsdOperand::fromDsd(accD),
                       wse::DsdOperand::fromDsd(secD), coeff);
        });

    // done: local compute + time integration, then next step.
    registeredState.doneTask = pe.registerTask(
        "done_dir", [this, x, y, nz, rz, interior, sc](wse::TaskContext &ctx) {
            wse::Pe &pe = ctx.pe();
            PeState &st = state(x, y);
            if (st.interior) {
                std::vector<float> &p = pe.buffer(st.pBuf);
                std::vector<float> &pPrev = pe.buffer(st.pPrevBuf);
                std::vector<float> &pNext = pe.buffer(st.pNextBuf);
                std::vector<float> &acc = pe.buffer(st.accBuf);
                wse::Dsd accI{&acc, rz, interior, 1};
                wse::Dsd pI{&p, rz, interior, 1};
                wse::Dsd prevI{&pPrev, rz, interior, 1};
                wse::Dsd nextI{&pNext, rz, interior, 1};
                // z-axis contributions.
                for (int d = 1; d <= 4; ++d) {
                    float c = static_cast<float>(sc.k[d - 1]);
                    wse::fmacs(ctx, accI,
                               wse::DsdOperand::fromDsd(accI),
                               wse::DsdOperand::fromDsd(pI.shifted(d)),
                               c);
                    wse::fmacs(ctx, accI,
                               wse::DsdOperand::fromDsd(accI),
                               wse::DsdOperand::fromDsd(pI.shifted(-d)),
                               c);
                }
                // centre + time integration:
                // p_next = 2p - p_prev + acc + k0 * p
                wse::fmacs(ctx, accI, wse::DsdOperand::fromDsd(accI),
                           wse::DsdOperand::fromDsd(pI),
                           static_cast<float>(sc.k0));
                wse::fmacs(ctx, nextI, wse::DsdOperand::fromDsd(accI),
                           wse::DsdOperand::fromDsd(pI), 2.0f);
                wse::fsubs(ctx, nextI, wse::DsdOperand::fromDsd(nextI),
                           wse::DsdOperand::fromDsd(prevI));
                // z-boundary copy-through.
                wse::Dsd nextLo{&pNext, 0, rz, 1};
                wse::Dsd pLo{&p, 0, rz, 1};
                wse::fmovs(ctx, nextLo, wse::DsdOperand::fromDsd(pLo));
                wse::Dsd nextHi{&pNext, nz - rz, rz, 1};
                wse::Dsd pHi{&p, nz - rz, rz, 1};
                wse::fmovs(ctx, nextHi, wse::DsdOperand::fromDsd(pHi));
            }
            // step++, rotate buffers, loop.
            st.step++;
            wse::BufferId oldPrev = st.pPrevBuf;
            st.pPrevBuf = st.pBuf;
            st.pBuf = st.pNextBuf;
            st.pNextBuf = oldPrev;
            ctx.consume(8);
            ctx.pe().activate(st.forCondTask, ctx.currentCycle());
        });
}

void
HandwrittenSeismic::pe_seq(wse::TaskContext &ctx, int x, int y)
{
    wse::Pe &pe = ctx.pe();
    PeState &st = state(x, y);
    // Zero the accumulator, then start the exchange of the full column.
    std::vector<float> &acc = pe.buffer(st.accBuf);
    wse::Dsd accD{&acc, 0, static_cast<int64_t>(acc.size()), 1};
    wse::fmovs(ctx, accD, wse::DsdOperand::fromScalar(0.0f));
    comm_->exchange(ctx, st.pBuf, st.recvTask, st.doneTask);
}

void
HandwrittenSeismic::launch()
{
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            sim_.pe(x, y).activate(state(x, y).forCondTask, 0);
}

std::vector<float>
HandwrittenSeismic::readP(int x, int y)
{
    return sim_.pe(x, y).buffer(state(x, y).pBuf);
}

const std::vector<wse::Cycles> &
HandwrittenSeismic::stepMarks(int x, int y) const
{
    return stepMarks_[static_cast<size_t>(x) * sim_.height() + y];
}

const std::vector<wse::Cycles> &
HandwrittenSeismic::recvReadyMarks(int x, int y) const
{
    return recvReadyMarks_[static_cast<size_t>(x) * sim_.height() + y];
}

} // namespace wsc::baselines
