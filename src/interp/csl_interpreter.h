/**
 * @file
 * The csl-ir interpreter: instantiates a lowered csl.module program on
 * every PE of a simulated WSE and executes it under the simulator's
 * timing model. This stands in for the Cerebras SDK compiler + hardware:
 * the very IR the CSL printer emits as source code is executed, so the
 * generated program structure (tasks, callbacks, DSD builtins, chunked
 * exchanges) is what gets measured.
 *
 * Execution (docs/architecture.md §8): configure() reads the IR once
 * into a per-program plan — every variable's kind, size, host data and
 * role, every callable's body, receive site and step-marker role — and
 * compiles every callable body once into a flat vector of opcode +
 * operand-slot instructions (SSA values become dense slot indices,
 * attributes and comms specs are resolved up front). Every PE interns
 * the same names in the same order, so the task, buffer and scalar
 * handles are the same on every PE: they are resolved once and checked
 * per PE. The per-PE loop then touches no IR attribute, string or map,
 * and a PE keeps only its buffer data pointers and pointer targets;
 * activation frames come from one recycled stack per shard. The single
 * switch dispatch loop performs no name lookups or validity checks.
 *
 * The original tree-walking evaluator is kept behind
 * setReferenceMode(true) as the semantic oracle: the compiled loop must
 * match it bit for bit (`ctest -L interp`).
 */

#ifndef WSC_CSL_INTERPRETER_H
#define WSC_CSL_INTERPRETER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comms/star_comm.h"
#include "dialects/csl.h"
#include "ir/operation.h"
#include "wse/dsd.h"
#include "wse/simulator.h"

namespace wsc::interp {

/** Host-side initial condition for one field: value at (x, y, z). */
using FieldInitFn = std::function<float(int x, int y, int z)>;

/** One program instance mapped across the simulated PE grid. */
class CslProgramInstance
{
  public:
    /**
     * `root` is either the final builtin.module (layout + program
     * csl.modules) or the program csl.module itself. The IR must outlive
     * this instance.
     */
    CslProgramInstance(wse::Simulator &sim, ir::Operation *root);

    /** Host data transfer: set a field's initial contents. Must be
     *  called before configure(). */
    void setFieldInit(const std::string &field, FieldInitFn init);

    /**
     * Execute through the reference tree-walking evaluator instead of
     * the pre-decoded instruction stream. Must be called before
     * configure(). Both modes are semantically identical (asserted by
     * the dispatch-equivalence tests); the reference mode exists as the
     * oracle for those tests.
     */
    void setReferenceMode(bool on);

    /** Allocate variables, wire the runtime comms library, register
     *  tasks on every PE. */
    void configure();

    /** Host launch: invoke f_main on every PE (memcpy RPC). */
    void launch();

    /**
     * Read back a field column through the result mapping (resolves
     * pointer rotation). Falls back to the field's own buffer when the
     * program records no result for it.
     */
    std::vector<float> readFieldColumn(const std::string &field, int x,
                                       int y);

    /** PEs that returned control to the host (unblock_cmd_stream). */
    uint64_t unblockCount() const
    {
        return unblockCount_.load(std::memory_order_relaxed);
    }

    /** Frame-arena telemetry summed over the shards' frame stacks:
     *  (acquires, heap-backed frames created). Steady state acquires
     *  without creating. */
    std::pair<uint64_t, uint64_t> frameStats() const;

    /** Dispatch timestamps of for_cond0 on a PE (per-step markers). */
    const std::vector<wse::Cycles> &stepMarks(int x, int y) const;

    /** The runtime communication sites (for statistics). */
    const std::vector<std::unique_ptr<comms::StarComm>> &commSites() const
    {
        return comms_;
    }

    /** Per-PE memory in use after configure (bytes), for reporting. */
    size_t memoryBytesUsed(int x, int y);

  private:
    struct RtValue
    {
        enum class Kind { None, Num, Buffer, DsdVal, Ptr };
        Kind kind = Kind::None;
        double num = 0.0;
        /** Dense buffer handle: the buffer (Buffer, DsdVal) or the
         *  pointer target (Ptr). */
        wse::BufferId buf;
        /** DSD view; for Buffer/Ptr kinds only dsd.buf is meaningful
         *  (the cached data pointer riding with the handle). */
        wse::Dsd dsd;
    };

    /** Reference-mode per-PE state. */
    struct PeEnv
    {
        /** Pointer-variable targets, resolved by name on this PE. */
        std::map<std::string, wse::BufferId> ptrs;
    };

    /// @name Per-program plan (read from the IR once by configure())
    /// @{

    /** One module variable, or a name the code uses without declaring
     *  it (a zero-initialised scalar). */
    struct VarPlan
    {
        enum class Kind : uint8_t { Buffer, CommsOwned, Ptr, Scalar };
        Kind kind = Kind::Scalar;
        wse::PeName peName;
        /** Buffer: element count and host data on interior and on
         *  boundary PEs (nullptr: zeros). */
        size_t elems = 0;
        const FieldInitFn *init = nullptr;
        const FieldInitFn *boundaryInit = nullptr;
        /** Ptr: initial target buffer name. */
        std::string ptrInit;
        /** Scalar: initial value. */
        double scalarInit = 0.0;
        /** Comptime role flags, set after StarComm::setup: 1.0 on PEs
         *  where every comms site computes (roleInterior), or where
         *  site roleSite computes (roleSite >= 0). */
        bool roleInterior = false;
        int roleSite = -1;
        /** Handles, the same on every PE: the variable's buffer (Buffer,
         *  CommsOwned), its scalar (Scalar) and its initial pointer
         *  target (Ptr). */
        wse::BufferId buffer;
        wse::ScalarId scalar;
        wse::BufferId ptrTarget;
    };

    /** One csl.func / csl.task, registered as a task on every PE.
     *  Callable i is body i in compiled mode. */
    struct CallablePlan
    {
        wse::PeName peName;
        ir::Operation *op = nullptr;
        /** A 1-argument body binds the chunk offset of comms site
         *  recvSite (the site whose receive callback this is); recvSite
         *  -1 panics when (and only if) the task is activated. */
        bool wantsOffset = false;
        int recvSite = -1;
        /** for_cond0: records per-step dispatch timestamps. */
        bool marksStep = false;
        /** Task handle, the same on every PE. */
        wse::TaskId task;
    };

    /** One entry of the program's result mapping (readFieldColumn). */
    struct ResultField
    {
        std::string field;
        std::string var;
        bool viaPtr = false;
        /** varPlan_ index of `var` (-1 = undeclared). */
        int32_t varIdx = -1;
    };
    /// @}

    /// @name Pre-decoded form
    /// @{

    /** The pre-decoded instruction set; mirrors the csl/arith/scf ops
     *  the interpreter executes. */
    enum class Opcode : uint8_t
    {
        Constant, Add, Sub, Mul, Div, Cmp, If, Return,
        LoadScalar, LoadBuffer, LoadBufferViaPtr, LoadPtr,
        StoreScalar, StorePtr, AddressOf,
        GetMemDsd, GetMemDsdViaPtr, IncrementDsdOffset, SetDsdLength,
        Fadds, Fsubs, Fmuls, Fmovs, Fmacs,
        Call, Activate, CommsExchange, UnblockCmdStream, Nop, Unsupported,
    };

    /** Comparison predicates, pre-decoded from the string attribute. */
    enum class CmpPred : uint8_t { Lt, Le, Gt, Ge, Eq, Ne };

    struct Instr
    {
        Opcode op = Opcode::Nop;
        CmpPred pred = CmpPred::Lt;
        /** Result slot; -1 when the op produces nothing. */
        int32_t dst = -1;
        /** Operand slots. */
        int32_t a = -1, b = -1, c = -1, d = -1;
        /** Constant payload. */
        double imm = 0.0;
        /** DSD shape (GetMemDsd); wrap 0 = no broadcast wrap. */
        int64_t offset = 0, length = 0, stride = 1, wrap = 0;
        /** varPlan_ index (loads/stores/DSDs/addressof). */
        int32_t var = -1;
        /** Body indices (callable i is body i): then/else for If, callee
         *  for Call, target for Activate, receive/done callbacks for
         *  CommsExchange. */
        int32_t body0 = -1, body1 = -1;
        /** Comms site index (CommsExchange). */
        uint32_t site = 0;
        /** Pooled string payload (diagnostics only). */
        const std::string *str = nullptr;
    };

    struct CompiledBody
    {
        /** Instruction stream; always terminated by a Return sentinel
         *  so the dispatch loop never runs off the end. */
        std::vector<Instr> code;
        /** Slot count; meaningful on callable roots only. */
        uint32_t numSlots = 0;
        /** Callable entry-block argument slots, in order. */
        std::vector<int32_t> argSlots;
    };

    /**
     * Recycled stack of RtValue slot frames: the exec loop gets its
     * frame from here instead of constructing a std::vector per
     * activation — after warmup, task dispatch performs zero heap
     * allocations. There is one stack per shard: a shard runs one event
     * at a time on one worker, so its activations (and their nested
     * csl.call frames) are strictly LIFO. Released frames keep their
     * capacity. Aligned so two shards' stacks share no cache line.
     */
    struct alignas(64) FrameStack
    {
        std::vector<std::vector<RtValue>> pool;
        uint64_t acquires = 0;
        /** Acquires that allocated (empty pool or capacity growth). */
        uint64_t fresh = 0;

        std::vector<RtValue> acquire(uint32_t n);
        void
        release(std::vector<RtValue> &&frame)
        {
            pool.push_back(std::move(frame));
        }
    };

    /** One variable's run-time state on one PE (compiled mode). */
    struct VarSlot
    {
        /** The variable's own buffer (nullptr = no buffer); stable for
         *  the run — Pe buffer slots never move. */
        std::vector<float> *data = nullptr;
        /** Pointer-variable target; mutated by StorePtr at run time
         *  (pointer rotation). */
        wse::BufferId ptrTarget;
        /** Data of ptrTarget, kept in lock step by StorePtr. */
        std::vector<float> *ptrData = nullptr;
    };

    /** What the dispatch loop needs of a running activation: its PE's
     *  row of varSlots_ and its shard's frame stack. */
    struct PeRt
    {
        VarSlot *vars;
        FrameStack &frames;
    };

    class Compiler;
    friend class Compiler;

    void compileProgram();
    /** Append the Return sentinel the dispatch loop relies on. */
    void sealBodies();
    /** Read the variables and the result mapping into the plan (the
     *  callables and comms sites are planned first). */
    void planProgram(const std::map<std::string, ir::Operation *> &variables);
    /** Resolve the comms-owned buffer and pointer-target handles on one
     *  PE after StarComm::setup (they are the same on every PE) and
     *  check scalar accesses: panics at configure, not mid-run. */
    void resolveVarTable(wse::Pe &pe);

    /** Body of every registered task: run callable `idx` on ctx's PE. */
    void runTask(int idx, wse::TaskContext &ctx);
    /** The dispatch loop: run one compiled body in `slots`. */
    void execCompiled(int bodyIdx, std::vector<RtValue> &slots, PeRt &peRt,
                      wse::TaskContext &ctx);
    void runCompiledCallable(int bodyIdx, PeRt &peRt,
                             wse::TaskContext &ctx);
    /// @}

    using SsaEnv = std::map<ir::ValueImpl *, RtValue>;

    void execBody(ir::Block *block, SsaEnv &env, PeEnv &peEnv,
                  wse::TaskContext &ctx);
    RtValue evalOperand(const SsaEnv &env, ir::Value v) const;
    wse::DsdOperand asDsdOperand(const RtValue &v) const;
    void runCallable(const std::string &name, PeEnv &peEnv,
                     wse::TaskContext &ctx);
    bool interiorEverywhere(int x, int y) const;

    wse::Simulator &sim_;
    ir::Operation *program_ = nullptr;
    std::map<std::string, FieldInitFn> fieldInits_;
    std::vector<std::unique_ptr<comms::StarComm>> comms_;
    /** comms site index per csl.comms_exchange op. */
    std::map<ir::Operation *, size_t> commSiteOf_;
    /** The variable table and its index by name. */
    std::vector<VarPlan> varPlan_;
    std::map<std::string, int32_t> varIndex_;
    /** The callable table and its index by name. */
    std::vector<CallablePlan> callablePlan_;
    std::map<std::string, int> bodyOf_;
    std::vector<ResultField> resultFields_;
    /** Reference mode only. */
    std::vector<PeEnv> peEnvs_;
    std::vector<std::vector<wse::Cycles>> stepMarks_;
    /** Atomic: incremented from any shard's worker thread. */
    std::atomic<uint64_t> unblockCount_{0};
    /**
     * Per-PE unblock_cmd_stream flag feeding the deadlock diagnosis
     * (each entry is only written by its own PE's events). Valid after
     * launch(); the quiescence probe names PEs whose flag never set.
     */
    std::vector<char> peUnblocked_;
    bool configured_ = false;
    bool launched_ = false;
    bool referenceMode_ = false;

    /** varPlan_ index of `name`; a name the code uses without declaring
     *  it gets a zero-initialised scalar entry. */
    int32_t varIdx(const std::string &name);
    /** Callable index of `name`; panics when it names no callable. */
    int32_t callableIdx(const std::string &name) const;

    /// @name Compiled program (shared across PEs)
    /// @{
    std::vector<CompiledBody> bodies_;
    std::deque<std::string> stringPool_;
    /** Per-PE state: PE p's var slots are varSlots_[p * varPlan_.size()
     *  ...], allocated once for the whole grid. */
    std::vector<VarSlot> varSlots_;
    /** Activation frames, one stack per shard (see FrameStack). */
    std::vector<FrameStack> frames_;
    /// @}
};

} // namespace wsc::interp

#endif // WSC_CSL_INTERPRETER_H
