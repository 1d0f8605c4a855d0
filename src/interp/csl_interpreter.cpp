#include "interp/csl_interpreter.h"

#include <set>

#include "dialects/arith.h"
#include "dialects/csl.h"
#include "dialects/scf.h"
#include "support/error.h"

namespace wsc::interp {

namespace {

namespace csl = dialects::csl;
namespace ar = dialects::arith;
namespace scf = dialects::scf;

/** Find the program csl.module under root (or root itself). */
ir::Operation *
findProgramModule(ir::Operation *root)
{
    if (root->is(csl::kModule) && root->strAttr(ir::attrs::kKind) == "program")
        return root;
    ir::Operation *program = nullptr;
    root->walk([&](ir::Operation *op) {
        if (op->is(csl::kModule) && op->strAttr(ir::attrs::kKind) == "program")
            program = op;
    });
    WSC_ASSERT(program, "no program csl.module found");
    return program;
}

} // namespace

CslProgramInstance::CslProgramInstance(wse::Simulator &sim,
                                       ir::Operation *root)
    : sim_(sim), program_(findProgramModule(root))
{
    stepMarks_.resize(static_cast<size_t>(sim.width()) * sim.height());
}

void
CslProgramInstance::setFieldInit(const std::string &field, FieldInitFn init)
{
    WSC_ASSERT(!configured_, "setFieldInit after configure");
    fieldInits_[field] = std::move(init);
}

void
CslProgramInstance::setReferenceMode(bool on)
{
    WSC_ASSERT(!configured_, "setReferenceMode after configure");
    referenceMode_ = on;
}

bool
CslProgramInstance::interiorEverywhere(int x, int y) const
{
    for (const auto &comm : comms_)
        if (comm->expectedSections(x, y) == 0)
            return false;
    return true;
}

//===----------------------------------------------------------------------===
// Pre-decode compiler
//===----------------------------------------------------------------------===

/**
 * Compiles callable bodies into flat instruction vectors. SSA values get
 * dense slot indices (per callable, shared with nested scf.if bodies);
 * attributes, comparison predicates and comms specs are resolved once.
 */
class CslProgramInstance::Compiler
{
  public:
    explicit Compiler(CslProgramInstance &self) : self_(self) {}

    void
    compileCallable(int idx, ir::Operation *callable)
    {
        slotIndex_.clear();
        nextSlot_ = 0;
        ir::Block *body = csl::calleeBody(callable);
        for (unsigned i = 0; i < body->numArguments(); ++i)
            self_.bodies_[idx].argSlots.push_back(
                slotOf(body->argument(i).impl()));
        compileInto(idx, body);
        self_.bodies_[idx].numSlots = nextSlot_;
    }

  private:
    int32_t
    slotOf(ir::ValueImpl *v)
    {
        auto [it, inserted] = slotIndex_.try_emplace(v, nextSlot_);
        if (inserted)
            nextSlot_++;
        return it->second;
    }

    int32_t varIdx(const std::string &name) { return self_.varIdx(name); }

    int
    newBody()
    {
        self_.bodies_.emplace_back();
        return static_cast<int>(self_.bodies_.size() - 1);
    }

    void
    compileInto(int bodyIdx, ir::Block *block)
    {
        std::vector<Instr> code;
        code.reserve(block->size());
        for (ir::Operation *op : block->operations())
            compileOp(op, code);
        self_.bodies_[bodyIdx].code = std::move(code);
    }

    void
    compileOp(ir::Operation *op, std::vector<Instr> &code)
    {
        ir::OpId n = op->opId();
        Instr ins;
        if (n == ar::kConstant) {
            ir::Attribute a = op->attr(ir::attrs::kValue);
            ins.op = Opcode::Constant;
            ins.dst = slotOf(op->result().impl());
            ins.imm = ir::isFloatAttr(a)
                          ? ir::floatAttrValue(a)
                          : static_cast<double>(ir::intAttrValue(a));
            code.push_back(ins);
            return;
        }
        if (n == ar::kAddI || n == ar::kAddF || n == ar::kSubI ||
            n == ar::kSubF || n == ar::kMulI || n == ar::kMulF ||
            n == ar::kDivF) {
            ins.op = (n == ar::kAddI || n == ar::kAddF) ? Opcode::Add
                     : (n == ar::kSubI || n == ar::kSubF)
                         ? Opcode::Sub
                         : (n == ar::kDivF) ? Opcode::Div : Opcode::Mul;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == ar::kCmpI) {
            const std::string &p = op->strAttr(ir::attrs::kPredicate);
            ins.op = Opcode::Cmp;
            ins.pred = p == "lt"   ? CmpPred::Lt
                       : p == "le" ? CmpPred::Le
                       : p == "gt" ? CmpPred::Gt
                       : p == "ge" ? CmpPred::Ge
                       : p == "eq" ? CmpPred::Eq
                                   : CmpPred::Ne;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == scf::kIf) {
            ins.op = Opcode::If;
            ins.a = slotOf(op->operand(0).impl());
            ins.body0 = newBody();
            compileInto(ins.body0, scf::ifThenBlock(op));
            if (!op->region(1).empty()) {
                ins.body1 = newBody();
                compileInto(ins.body1, scf::ifElseBlock(op));
            }
            code.push_back(ins);
            return;
        }
        if (n == scf::kYield)
            return;
        if (n == csl::kReturn) {
            ins.op = Opcode::Return;
            code.push_back(ins);
            return;
        }
        if (n == csl::kLoadVar) {
            ir::Type t = op->result().type();
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.dst = slotOf(op->result().impl());
            if (ir::isMemRef(t))
                ins.op = op->hasAttr(ir::attrs::kViaPtr) ? Opcode::LoadBufferViaPtr
                                                : Opcode::LoadBuffer;
            else if (csl::isPtrType(t))
                ins.op = Opcode::LoadPtr;
            else
                ins.op = Opcode::LoadScalar;
            code.push_back(ins);
            return;
        }
        if (n == csl::kStoreVar) {
            // Split by the operand's static type so the hot handlers
            // skip the runtime kind dispatch: memref/ptr operands
            // retarget the pointer variable, everything else stores a
            // scalar (Kind::None comptime values store 0.0, exactly as
            // the unsplit opcode did).
            ir::Type t = op->operand(0).type();
            ins.op = (ir::isMemRef(t) || csl::isPtrType(t))
                         ? Opcode::StorePtr
                         : Opcode::StoreScalar;
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.a = slotOf(op->operand(0).impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kAddressOf) {
            ins.op = Opcode::AddressOf;
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kGetMemDsd) {
            ins.op = op->hasAttr(ir::attrs::kViaPtr) ? Opcode::GetMemDsdViaPtr
                                            : Opcode::GetMemDsd;
            ins.var = varIdx(op->strAttr(ir::attrs::kVar));
            ins.dst = slotOf(op->result().impl());
            ins.offset = op->intAttr(ir::attrs::kOffset);
            ins.length = op->intAttr(ir::attrs::kLength);
            ins.stride = op->intAttr(ir::attrs::kStride);
            // wrap 0 (the Dsd default) when the attribute is absent, so
            // the handler assigns unconditionally.
            ins.wrap = op->hasAttr(ir::attrs::kWrap)
                           ? op->intAttr(ir::attrs::kWrap)
                           : 0;
            code.push_back(ins);
            return;
        }
        if (n == csl::kIncrementDsdOffset || n == csl::kSetDsdLength) {
            ins.op = n == csl::kIncrementDsdOffset
                         ? Opcode::IncrementDsdOffset
                         : Opcode::SetDsdLength;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.dst = slotOf(op->result().impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kFadds || n == csl::kFsubs || n == csl::kFmuls ||
            n == csl::kFmacs) {
            ins.op = n == csl::kFadds   ? Opcode::Fadds
                     : n == csl::kFsubs ? Opcode::Fsubs
                     : n == csl::kFmuls ? Opcode::Fmuls
                                        : Opcode::Fmacs;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            ins.c = slotOf(op->operand(2).impl());
            if (n == csl::kFmacs)
                ins.d = slotOf(op->operand(3).impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kFmovs) {
            ins.op = Opcode::Fmovs;
            ins.a = slotOf(op->operand(0).impl());
            ins.b = slotOf(op->operand(1).impl());
            code.push_back(ins);
            return;
        }
        if (n == csl::kCall) {
            const std::string &callee = op->strAttr(ir::attrs::kCallee);
            auto it = self_.bodyOf_.find(callee);
            ins.op = Opcode::Call;
            ins.body0 = it == self_.bodyOf_.end() ? -1 : it->second;
            ins.str = pooled(callee);
            code.push_back(ins);
            return;
        }
        if (n == csl::kActivate) {
            ins.op = Opcode::Activate;
            ins.body0 = self_.callableIdx(op->strAttr(ir::attrs::kTask));
            code.push_back(ins);
            return;
        }
        if (n == csl::kCommsExchange) {
            csl::CommsExchangeSpec spec = csl::commsExchangeSpec(op);
            ins.op = Opcode::CommsExchange;
            ins.a = slotOf(op->operand(0).impl());
            ins.site = static_cast<uint32_t>(self_.commSiteOf_.at(op));
            ins.body0 = self_.callableIdx(spec.recvCallback);
            ins.body1 = self_.callableIdx(spec.doneCallback);
            code.push_back(ins);
            return;
        }
        if (n == csl::kUnblockCmdStream) {
            ins.op = Opcode::UnblockCmdStream;
            code.push_back(ins);
            return;
        }
        if (n == csl::kImportModule || n == csl::kMemberCall ||
            n == csl::kExport || n == csl::kParam) {
            // Comptime / host-interface constructs: results stay
            // Kind::None (the slots' default), no instruction needed.
            for (ir::Value r : op->results())
                slotOf(r.impl());
            return;
        }
        // Unknown op: preserve the reference semantics of panicking only
        // if and when the op is actually executed.
        for (ir::Value r : op->results())
            slotOf(r.impl());
        ins.op = Opcode::Unsupported;
        ins.str = pooled(op->name());
        code.push_back(ins);
    }

    const std::string *
    pooled(const std::string &s)
    {
        self_.stringPool_.push_back(s);
        return &self_.stringPool_.back();
    }

    CslProgramInstance &self_;
    std::map<ir::ValueImpl *, int32_t> slotIndex_;
    uint32_t nextSlot_ = 0;
};

int32_t
CslProgramInstance::varIdx(const std::string &name)
{
    auto [it, inserted] = varIndex_.try_emplace(
        name, static_cast<int32_t>(varPlan_.size()));
    if (inserted) {
        VarPlan v; // Kind::Scalar, initial value 0.
        v.peName = sim_.internName(name);
        varPlan_.push_back(std::move(v));
    }
    return it->second;
}

int32_t
CslProgramInstance::callableIdx(const std::string &name) const
{
    auto it = bodyOf_.find(name);
    WSC_ASSERT(it != bodyOf_.end(),
               "`" << name << "` is not a csl.func or csl.task");
    return it->second;
}

void
CslProgramInstance::compileProgram()
{
    // Callable i compiles to body i (nested scf.if bodies follow); every
    // callable's body exists before the first compiles, so csl.call
    // sites resolve forward references.
    bodies_.resize(callablePlan_.size());
    Compiler compiler(*this);
    for (size_t i = 0; i < callablePlan_.size(); ++i)
        compiler.compileCallable(static_cast<int>(i), callablePlan_[i].op);
    sealBodies();
}

void
CslProgramInstance::sealBodies()
{
    // The dispatch loop never bounds-checks: every body ends in an
    // explicit Return. Return's semantics are identical to falling off
    // the end, so sealing is bit-exact (and covers empty scf.if arms).
    Instr ret;
    ret.op = Opcode::Return;
    for (CompiledBody &body : bodies_)
        body.code.push_back(ret);
}

//===----------------------------------------------------------------------===
// Configuration
//===----------------------------------------------------------------------===

namespace {

/** Record a handle on the first PE; every later PE must agree (every PE
 *  interns the same names in the same order). */
template <class Handle>
void
agree(Handle &planned, Handle got, wse::PeName name, const wse::Pe &pe)
{
    if (!planned.valid())
        planned = got;
    WSC_ASSERT(planned == got, "`" << name.str()
                                   << "` has a different handle on PE ("
                                   << pe.x() << ", " << pe.y()
                                   << ") than on the first PE");
}

} // namespace

void
CslProgramInstance::planProgram(
    const std::map<std::string, ir::Operation *> &variables)
{
    // Buffer-rotation pool: the initial targets of all pointer
    // variables. On boundary (non-computing) PEs the host loads every
    // pool buffer with the primary wavefield's boundary-condition data,
    // making pointer rotation value-neutral there.
    std::set<std::string> rotationPool;
    std::string primaryField;
    for (const auto &[name, var] : variables) {
        ir::Type type = ir::typeAttrValue(var->attr(ir::attrs::kType));
        if (!csl::isPtrType(type))
            continue;
        std::string target = ir::stringAttrValue(var->attr(ir::attrs::kInit));
        rotationPool.insert(target);
        if (name == "ptr_iter0")
            primaryField = target;
    }
    auto initOf = [&](const std::string &field) -> const FieldInitFn * {
        auto it = fieldInits_.find(field);
        return it == fieldInits_.end() ? nullptr : &it->second;
    };

    for (const auto &[name, var] : variables) {
        VarPlan v;
        v.peName = sim_.internName(name);
        ir::Type type = ir::typeAttrValue(var->attr(ir::attrs::kType));
        if (var->hasAttr(ir::attrs::kCommsOwned)) {
            v.kind = VarPlan::Kind::CommsOwned; // StarComm::setup allocates.
        } else if (ir::isMemRef(type)) {
            v.kind = VarPlan::Kind::Buffer;
            v.elems = static_cast<size_t>(ir::numElementsOf(type));
            // Host data transfer: fields get their own init; result
            // buffers inherit from their target field; rotation-pool
            // buffers on boundary PEs all carry the primary field's
            // boundary condition.
            std::string initField;
            if (fieldInits_.count(name))
                initField = name;
            else if (var->hasAttr(ir::attrs::kInitAs))
                initField = var->strAttr(ir::attrs::kInitAs);
            v.init = initOf(initField);
            v.boundaryInit = !primaryField.empty() && rotationPool.count(name)
                                 ? initOf(primaryField)
                                 : v.init;
        } else if (csl::isPtrType(type)) {
            v.kind = VarPlan::Kind::Ptr;
            v.ptrInit = ir::stringAttrValue(var->attr(ir::attrs::kInit));
        } else {
            v.kind = VarPlan::Kind::Scalar;
            if (ir::Attribute a = var->attr(ir::attrs::kInit))
                v.scalarInit = static_cast<double>(ir::intAttrValue(a));
        }
        v.roleInterior = var->hasAttr(ir::attrs::kComptimeRole);
        if (ir::Attribute site = var->attr(ir::attrs::kComptimeRoleSite)) {
            const std::string &cb = ir::stringAttrValue(site);
            v.roleSite = callablePlan_[callableIdx(cb)].recvSite;
            WSC_ASSERT(v.roleSite >= 0,
                       "`" << cb << "` is not a comms receive callback");
        }
        varIndex_.emplace(name, static_cast<int32_t>(varPlan_.size()));
        varPlan_.push_back(std::move(v));
    }

    // Result mapping for readFieldColumn.
    if (ir::Attribute results = program_->attr(ir::attrs::kResultFields)) {
        for (ir::Attribute entry : ir::arrayAttrValue(results)) {
            ResultField rf;
            rf.field = ir::stringAttrValue(ir::dictAttrGet(entry, "field"));
            rf.var = ir::stringAttrValue(ir::dictAttrGet(entry, "var"));
            rf.viaPtr =
                ir::intAttrValue(ir::dictAttrGet(entry, "via_ptr")) != 0;
            auto it = varIndex_.find(rf.var);
            rf.varIdx = it == varIndex_.end() ? -1 : it->second;
            resultFields_.push_back(std::move(rf));
        }
    }
}

void
CslProgramInstance::configure()
{
    WSC_ASSERT(!configured_, "configure called twice");
    // The reference evaluator probes IR attributes at run time; the IR
    // context is not safe to touch from shard worker threads.
    WSC_ASSERT(!referenceMode_ || sim_.shardCount() == 1,
               "reference mode requires the sequential (single-shard) "
               "simulator");
    configured_ = true;

    // Deadlock introspection: after launch(), any PE that has not
    // reached unblock_cmd_stream by the time the event queues drain is
    // stuck mid-program (a halted dependency, a lost wavelet, ...).
    // Gated on launched_ so configure-without-launch runs stay clean.
    sim_.addQuiescenceProbe([this](std::vector<wse::BlockedPeInfo> &out) {
        if (!launched_)
            return;
        for (int x = 0; x < sim_.width(); ++x)
            for (int y = 0; y < sim_.height(); ++y)
                if (!peUnblocked_[sim_.pe(x, y).id()])
                    out.push_back({x, y,
                                   "program incomplete: "
                                   "unblock_cmd_stream not reached",
                                   0, false});
    });

    // --- Collect module structure ---------------------------------------
    std::map<std::string, ir::Operation *> variables;
    std::map<std::string, ir::Operation *> callables;
    std::vector<ir::Operation *> commsOps;
    for (ir::Operation *op : csl::moduleBody(program_)->operations()) {
        if (op->is(csl::kFunc) || op->is(csl::kTask))
            callables[op->strAttr(ir::attrs::kSymName)] = op;
        else if (op->is(csl::kVariable))
            variables[op->strAttr(ir::attrs::kSymName)] = op;
    }
    program_->walk([&](ir::Operation *op) {
        if (op->is(csl::kCommsExchange))
            commsOps.push_back(op);
    });

    // --- The per-program plan (no IR is read past it) ----------------------
    // Callables first: the comms sites resolve their callbacks, and the
    // variables their comptime role sites, through bodyOf_.
    for (const auto &[name, op] : callables) {
        CallablePlan c;
        c.peName = sim_.internName(name);
        c.op = op;
        c.marksStep = name == "for_cond0";
        c.wantsOffset = csl::calleeBody(op)->numArguments() == 1;
        bodyOf_[name] = static_cast<int>(callablePlan_.size());
        callablePlan_.push_back(c);
    }

    // --- Runtime communication sites ------------------------------------
    for (size_t i = 0; i < commsOps.size(); ++i) {
        csl::CommsExchangeSpec spec =
            csl::commsExchangeSpec(commsOps[i]);
        comms::StarCommConfig config;
        for (const auto &[dx, dy] : spec.accesses)
            config.accesses.push_back(
                {static_cast<int>(dx), static_cast<int>(dy)});
        config.accesses = comms::canonicalAccessOrder(config.accesses);
        config.zSize = spec.zSize;
        config.numChunks = spec.numChunks;
        config.trimFirst = spec.trimFirst;
        config.trimLast = spec.trimLast;
        config.coeffs = spec.coeffs;
        config.recvBufferName = spec.recvBufferName;
        comms_.push_back(
            std::make_unique<comms::StarComm>(sim_, config));
        commSiteOf_[commsOps[i]] = i;
        // Both callbacks must be callables, in either mode. A 1-argument
        // task that is no site's receive callback keeps recvSite -1 and
        // panics only if it is activated (runTask).
        callablePlan_[callableIdx(spec.recvCallback)].recvSite =
            static_cast<int>(i);
        callableIdx(spec.doneCallback);
    }

    planProgram(variables);
    if (!referenceMode_)
        compileProgram();

    // --- Per-PE variables --------------------------------------------------
    for (int x = 0; x < sim_.width(); ++x) {
        for (int y = 0; y < sim_.height(); ++y) {
            wse::Pe &pe = sim_.pe(x, y);
            bool boundaryPe = !interiorEverywhere(x, y);
            for (VarPlan &v : varPlan_) {
                if (v.kind == VarPlan::Kind::Buffer) {
                    wse::BufferId id = pe.allocBufferId(v.peName, v.elems);
                    agree(v.buffer, id, v.peName, pe);
                    const FieldInitFn *init =
                        boundaryPe ? v.boundaryInit : v.init;
                    if (init) {
                        std::vector<float> &buf = pe.buffer(id);
                        for (size_t z = 0; z < buf.size(); ++z)
                            buf[z] = (*init)(x, y, static_cast<int>(z));
                    }
                } else if (v.kind == VarPlan::Kind::Scalar) {
                    wse::ScalarId id = pe.scalarId(v.peName);
                    agree(v.scalar, id, v.peName, pe);
                    pe.scalar(id) = v.scalarInit;
                }
            }
        }
    }

    // StarComm setup after variables (its receive buffers count towards
    // the same 48 kB).
    for (auto &comm : comms_)
        comm->setup();

    // The comms-owned buffer and pointer-target handles are resolved
    // once, on the first PE, after StarComm::setup. Every PE then sets
    // the comptime role flags (which depend on the comm sites' view of
    // the grid), registers every callable as a task with a closure of
    // `this` and the callable index, and fills its pointer targets
    // (reference mode) or its row of variable slots.
    const size_t numPes = static_cast<size_t>(sim_.width()) * sim_.height();
    if (referenceMode_) {
        peEnvs_.resize(numPes);
    } else {
        resolveVarTable(sim_.pe(0, 0));
        varSlots_.resize(numPes * varPlan_.size());
        frames_.resize(static_cast<size_t>(sim_.shardCount()));
    }
    for (int x = 0; x < sim_.width(); ++x) {
        for (int y = 0; y < sim_.height(); ++y) {
            wse::Pe &pe = sim_.pe(x, y);
            for (const VarPlan &v : varPlan_) {
                if (v.roleInterior)
                    pe.scalar(v.scalar) = interiorEverywhere(x, y) ? 1.0 : 0.0;
                if (v.roleSite >= 0)
                    pe.scalar(v.scalar) =
                        comms_[v.roleSite]->expectedSections(x, y) > 0
                            ? 1.0
                            : 0.0;
            }
            for (size_t i = 0; i < callablePlan_.size(); ++i) {
                CallablePlan &c = callablePlan_[i];
                int idx = static_cast<int>(i);
                wse::TaskId id = pe.registerTask(
                    c.peName, [this, idx](wse::TaskContext &ctx) {
                        runTask(idx, ctx);
                    });
                agree(c.task, id, c.peName, pe);
            }
            if (referenceMode_) {
                for (const VarPlan &v : varPlan_)
                    if (v.kind == VarPlan::Kind::Ptr)
                        peEnvs_[pe.id()].ptrs[v.peName.str()] =
                            pe.bufferId(v.ptrInit);
                continue;
            }
            VarSlot *vars = varSlots_.data() + pe.id() * varPlan_.size();
            for (size_t i = 0; i < varPlan_.size(); ++i) {
                const VarPlan &v = varPlan_[i];
                if (v.buffer.valid())
                    vars[i].data = &pe.buffer(v.buffer);
                vars[i].ptrTarget = v.ptrTarget;
                if (v.ptrTarget.valid())
                    vars[i].ptrData = &pe.buffer(v.ptrTarget);
            }
        }
    }
}

void
CslProgramInstance::resolveVarTable(wse::Pe &pe)
{
    for (VarPlan &v : varPlan_) {
        if (v.kind == VarPlan::Kind::CommsOwned)
            v.buffer = pe.findBuffer(v.peName.str());
        else if (v.kind == VarPlan::Kind::Ptr)
            v.ptrTarget = pe.bufferId(v.ptrInit);
    }

    // Every scalar-accessing instruction must name a scalar — the
    // handlers use unchecked access and never fall back to name
    // interning. A scalar op naming a buffer is a type-inconsistent
    // program; diagnose it here, not mid-run. A variable with no live
    // buffer travels as nullptr and panics on first element access
    // (Dsd::at) — the same program point the per-access guard used to
    // fire at, one instruction later.
    for (const CompiledBody &body : bodies_) {
        for (const Instr &ins : body.code) {
            if (ins.op == Opcode::LoadScalar ||
                ins.op == Opcode::StoreScalar)
                WSC_ASSERT(varPlan_[ins.var].kind == VarPlan::Kind::Scalar,
                           "scalar access to non-scalar variable `"
                               << varPlan_[ins.var].peName.str() << "`");
        }
    }
}

void
CslProgramInstance::launch()
{
    WSC_ASSERT(configured_, "launch before configure");
    launched_ = true;
    peUnblocked_.assign(
        static_cast<size_t>(sim_.width()) * sim_.height(), 0);
    // Task handles are the same on every PE (configure checks this).
    wse::TaskId main = sim_.pe(0, 0).taskId("f_main");
    for (int x = 0; x < sim_.width(); ++x)
        for (int y = 0; y < sim_.height(); ++y)
            sim_.pe(x, y).activate(main, 0);
}

void
CslProgramInstance::runTask(int idx, wse::TaskContext &ctx)
{
    const CallablePlan &c = callablePlan_[static_cast<size_t>(idx)];
    const uint32_t peIdx = ctx.pe().id();
    if (c.marksStep)
        stepMarks_[peIdx].push_back(ctx.startCycle());
    // Receive-chunk callback: bind the chunk offset provided by the comms
    // library.
    auto chunkOffset = [&] {
        WSC_ASSERT(c.recvSite >= 0, "task with a chunk-offset argument is "
                                    "not a comms receive callback");
        return static_cast<double>(
            comms_[static_cast<size_t>(c.recvSite)]->popCompletedChunkOffset(
                ctx.pe()));
    };
    if (referenceMode_) {
        SsaEnv env;
        ir::Block *body = csl::calleeBody(c.op);
        if (c.wantsOffset) {
            RtValue offset;
            offset.kind = RtValue::Kind::Num;
            offset.num = chunkOffset();
            env[body->argument(0).impl()] = offset;
        }
        execBody(body, env, peEnvs_[peIdx], ctx);
        return;
    }
    const CompiledBody &cb = bodies_[static_cast<size_t>(idx)];
    PeRt rt{varSlots_.data() + peIdx * varPlan_.size(),
            frames_[static_cast<size_t>(ctx.pe().shard().index())]};
    std::vector<RtValue> slots = rt.frames.acquire(cb.numSlots);
    if (c.wantsOffset) {
        RtValue &offset = slots[cb.argSlots[0]];
        offset.kind = RtValue::Kind::Num;
        offset.num = chunkOffset();
    }
    execCompiled(idx, slots, rt, ctx);
    rt.frames.release(std::move(slots));
}

//===----------------------------------------------------------------------===
// Pre-decoded execution (the per-PE, per-cycle hot loop)
//===----------------------------------------------------------------------===

std::vector<CslProgramInstance::RtValue>
CslProgramInstance::FrameStack::acquire(uint32_t n)
{
    acquires++;
    if (pool.empty()) {
        fresh++;
        return std::vector<RtValue>(n);
    }
    std::vector<RtValue> frame = std::move(pool.back());
    pool.pop_back();
    if (frame.capacity() < n)
        fresh++; // Growing past the recycled capacity allocates.
    frame.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        RtValue &v = frame[i];
        v.kind = RtValue::Kind::None;
        v.num = 0.0;
        v.buf = {};
        // A stale dsd (notably wrap) must not leak into a body whose
        // GetMemDsd omits the optional attributes.
        v.dsd = wse::Dsd{};
    }
    return frame;
}

std::pair<uint64_t, uint64_t>
CslProgramInstance::frameStats() const
{
    uint64_t acquires = 0;
    uint64_t fresh = 0;
    for (const FrameStack &frames : frames_) {
        acquires += frames.acquires;
        fresh += frames.fresh;
    }
    return {acquires, fresh};
}

void
CslProgramInstance::runCompiledCallable(int bodyIdx, PeRt &peRt,
                                        wse::TaskContext &ctx)
{
    std::vector<RtValue> slots =
        peRt.frames.acquire(bodies_[bodyIdx].numSlots);
    execCompiled(bodyIdx, slots, peRt, ctx);
    peRt.frames.release(std::move(slots));
}

void
CslProgramInstance::execCompiled(int bodyIdx, std::vector<RtValue> &slots,
                                 PeRt &peRt, wse::TaskContext &ctx)
{
    // Operand slots, scalar handles and buffer data pointers were
    // validated/resolved at configure() (resolveVarTable), so handlers
    // perform no name lookups and no validity checks. Buffer/Ptr-kind
    // values carry their data pointer in dsd.buf, so StorePtr keeps the
    // ptrTarget/ptrData pair in lock step without a handle lookup; a
    // missing buffer travels as nullptr and panics on first element
    // access (Dsd::at), not here.
    wse::Pe &pe = ctx.pe();
    VarSlot *vars = peRt.vars;
    auto setNum = [&slots](int32_t dst, double num) {
        RtValue &v = slots[dst];
        v.kind = RtValue::Kind::Num;
        v.num = num;
    };
    auto setRef = [&slots](int32_t dst, RtValue::Kind kind,
                           wse::BufferId buf, std::vector<float> *data) {
        RtValue &v = slots[dst];
        v.kind = kind;
        v.buf = buf;
        v.dsd.buf = data;
    };
    auto setMemDsd = [&](const Instr &ins, wse::BufferId buf,
                         std::vector<float> *data) {
        setRef(ins.dst, RtValue::Kind::DsdVal, buf, data);
        wse::Dsd &dsd = slots[ins.dst].dsd;
        dsd.offset = ins.offset;
        dsd.length = ins.length;
        dsd.stride = ins.stride;
        dsd.wrap = ins.wrap;
        ctx.consume(2); // DSD configuration is cheap but not free.
    };

    // Every body ends in a Return sentinel (sealBodies), the only exit.
    for (const Instr *pc = bodies_[bodyIdx].code.data();; ++pc) {
        const Instr &ins = *pc;
        switch (ins.op) {
        case Opcode::Constant:
            setNum(ins.dst, ins.imm);
            break;
        case Opcode::Add:
            setNum(ins.dst, slots[ins.a].num + slots[ins.b].num);
            ctx.consume(1);
            break;
        case Opcode::Sub:
            setNum(ins.dst, slots[ins.a].num - slots[ins.b].num);
            ctx.consume(1);
            break;
        case Opcode::Mul:
            setNum(ins.dst, slots[ins.a].num * slots[ins.b].num);
            ctx.consume(1);
            break;
        case Opcode::Div:
            setNum(ins.dst, slots[ins.a].num / slots[ins.b].num);
            ctx.consume(1);
            break;
        case Opcode::Cmp: {
            double a = slots[ins.a].num;
            double b = slots[ins.b].num;
            bool r = ins.pred == CmpPred::Lt   ? a < b
                     : ins.pred == CmpPred::Le ? a <= b
                     : ins.pred == CmpPred::Gt ? a > b
                     : ins.pred == CmpPred::Ge ? a >= b
                     : ins.pred == CmpPred::Eq ? a == b
                                               : a != b;
            setNum(ins.dst, r ? 1.0 : 0.0);
            ctx.consume(1);
            break;
        }
        case Opcode::If: {
            ctx.consume(1);
            int branch = slots[ins.a].num != 0.0 ? ins.body0 : ins.body1;
            if (branch >= 0)
                execCompiled(branch, slots, peRt, ctx);
            break;
        }
        case Opcode::Return:
            return;
        case Opcode::LoadScalar:
            setNum(ins.dst, pe.scalarUnchecked(varPlan_[ins.var].scalar));
            ctx.consume(1);
            break;
        case Opcode::LoadBuffer:
            setRef(ins.dst, RtValue::Kind::Buffer, varPlan_[ins.var].buffer,
                   vars[ins.var].data);
            ctx.consume(1);
            break;
        case Opcode::LoadBufferViaPtr:
            setRef(ins.dst, RtValue::Kind::Buffer, vars[ins.var].ptrTarget,
                   vars[ins.var].ptrData);
            ctx.consume(1);
            break;
        case Opcode::LoadPtr:
            setRef(ins.dst, RtValue::Kind::Ptr, vars[ins.var].ptrTarget,
                   vars[ins.var].ptrData);
            ctx.consume(1);
            break;
        case Opcode::StoreScalar:
            pe.scalarUnchecked(varPlan_[ins.var].scalar) = slots[ins.a].num;
            ctx.consume(1);
            break;
        case Opcode::StorePtr:
            vars[ins.var].ptrTarget = slots[ins.a].buf;
            vars[ins.var].ptrData = slots[ins.a].dsd.buf;
            ctx.consume(1);
            break;
        case Opcode::AddressOf:
            setRef(ins.dst, RtValue::Kind::Ptr, varPlan_[ins.var].buffer,
                   vars[ins.var].data);
            break;
        case Opcode::GetMemDsd:
            setMemDsd(ins, varPlan_[ins.var].buffer, vars[ins.var].data);
            break;
        case Opcode::GetMemDsdViaPtr:
            setMemDsd(ins, vars[ins.var].ptrTarget, vars[ins.var].ptrData);
            break;
        case Opcode::IncrementDsdOffset: {
            RtValue &v = slots[ins.dst];
            v = slots[ins.a];
            v.dsd.offset += static_cast<int64_t>(slots[ins.b].num);
            ctx.consume(1);
            break;
        }
        case Opcode::SetDsdLength: {
            RtValue &v = slots[ins.dst];
            v = slots[ins.a];
            v.dsd.length = static_cast<int64_t>(slots[ins.b].num);
            ctx.consume(1);
            break;
        }
        case Opcode::Fadds:
            wse::fadds(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]));
            break;
        case Opcode::Fsubs:
            wse::fsubs(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]));
            break;
        case Opcode::Fmuls:
            wse::fmuls(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]));
            break;
        case Opcode::Fmovs:
            wse::fmovs(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]));
            break;
        case Opcode::Fmacs:
            wse::fmacs(ctx, slots[ins.a].dsd, asDsdOperand(slots[ins.b]),
                       asDsdOperand(slots[ins.c]),
                       static_cast<float>(slots[ins.d].num));
            break;
        case Opcode::Call:
            WSC_ASSERT(ins.body0 >= 0, "call of unknown symbol " << *ins.str);
            runCompiledCallable(ins.body0, peRt, ctx);
            ctx.consume(2);
            break;
        case Opcode::Activate:
            pe.activate(callablePlan_[ins.body0].task, ctx.currentCycle());
            ctx.consume(2);
            break;
        case Opcode::CommsExchange: {
            const RtValue &send = slots[ins.a];
            WSC_ASSERT(send.kind == RtValue::Kind::DsdVal,
                       "comms_exchange expects a DSD operand");
            comms_[ins.site]->exchange(ctx, send.buf,
                                       callablePlan_[ins.body0].task,
                                       callablePlan_[ins.body1].task);
            ctx.consume(4);
            break;
        }
        case Opcode::UnblockCmdStream:
            unblockCount_.fetch_add(1, std::memory_order_relaxed);
            peUnblocked_[pe.id()] = 1;
            break;
        case Opcode::Nop:
            break;
        case Opcode::Unsupported:
            // Lazy by design: an unknown op only errors if actually
            // executed (matching the reference evaluator).
            panic("csl interpreter: unsupported op " + *ins.str);
        }
    }
}

//===----------------------------------------------------------------------===
// Reference tree-walking evaluator (the semantic oracle)
//===----------------------------------------------------------------------===

CslProgramInstance::RtValue
CslProgramInstance::evalOperand(const SsaEnv &env, ir::Value v) const
{
    auto it = env.find(v.impl());
    WSC_ASSERT(it != env.end(), "use of an unevaluated SSA value");
    return it->second;
}

wse::DsdOperand
CslProgramInstance::asDsdOperand(const RtValue &v) const
{
    if (v.kind == RtValue::Kind::DsdVal)
        return wse::DsdOperand::fromDsd(v.dsd);
    WSC_ASSERT(v.kind == RtValue::Kind::Num,
               "builtin operand must be a DSD or scalar");
    return wse::DsdOperand::fromScalar(static_cast<float>(v.num));
}

void
CslProgramInstance::runCallable(const std::string &name, PeEnv &peEnv,
                                wse::TaskContext &ctx)
{
    auto it = bodyOf_.find(name);
    WSC_ASSERT(it != bodyOf_.end(), "call of unknown symbol " << name);
    SsaEnv env;
    execBody(csl::calleeBody(callablePlan_[it->second].op), env, peEnv, ctx);
}

void
CslProgramInstance::execBody(ir::Block *block, SsaEnv &env, PeEnv &peEnv,
                             wse::TaskContext &ctx)
{
    wse::Pe &pe = ctx.pe();
    for (ir::Operation *op : block->operations()) {
        ir::OpId n = op->opId();
        if (n == ar::kConstant) {
            RtValue v;
            v.kind = RtValue::Kind::Num;
            ir::Attribute a = op->attr(ir::attrs::kValue);
            v.num = ir::isFloatAttr(a) ? ir::floatAttrValue(a)
                                       : static_cast<double>(
                                             ir::intAttrValue(a));
            env[op->result().impl()] = v;
            continue;
        }
        if (n == ar::kAddI || n == ar::kSubI || n == ar::kMulI ||
            n == ar::kAddF || n == ar::kSubF || n == ar::kMulF ||
            n == ar::kDivF) {
            double a = evalOperand(env, op->operand(0)).num;
            double b = evalOperand(env, op->operand(1)).num;
            double r = 0.0;
            if (n == ar::kAddI || n == ar::kAddF)
                r = a + b;
            else if (n == ar::kSubI || n == ar::kSubF)
                r = a - b;
            else if (n == ar::kMulI || n == ar::kMulF)
                r = a * b;
            else
                r = a / b;
            RtValue v;
            v.kind = RtValue::Kind::Num;
            v.num = r;
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == ar::kCmpI) {
            double a = evalOperand(env, op->operand(0)).num;
            double b = evalOperand(env, op->operand(1)).num;
            const std::string &p = op->strAttr(ir::attrs::kPredicate);
            bool r = p == "lt"   ? a < b
                     : p == "le" ? a <= b
                     : p == "gt" ? a > b
                     : p == "ge" ? a >= b
                     : p == "eq" ? a == b
                                 : a != b;
            RtValue v;
            v.kind = RtValue::Kind::Num;
            v.num = r ? 1.0 : 0.0;
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == scf::kIf) {
            bool cond = evalOperand(env, op->operand(0)).num != 0.0;
            ctx.consume(1);
            ir::Block *branch = cond ? scf::ifThenBlock(op)
                                     : (op->region(1).empty()
                                            ? nullptr
                                            : scf::ifElseBlock(op));
            if (branch)
                execBody(branch, env, peEnv, ctx);
            continue;
        }
        if (n == scf::kYield)
            continue;
        if (n == csl::kReturn)
            return;
        if (n == csl::kLoadVar) {
            const std::string &var = op->strAttr(ir::attrs::kVar);
            ir::Type t = op->result().type();
            RtValue v;
            if (ir::isMemRef(t)) {
                v.kind = RtValue::Kind::Buffer;
                v.buf = op->hasAttr(ir::attrs::kViaPtr) ? peEnv.ptrs.at(var)
                                                        : pe.findBuffer(var);
            } else if (csl::isPtrType(t)) {
                v.kind = RtValue::Kind::Ptr;
                v.buf = peEnv.ptrs.at(var);
            } else {
                v.kind = RtValue::Kind::Num;
                v.num = pe.scalar(var);
            }
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kStoreVar) {
            const std::string &var = op->strAttr(ir::attrs::kVar);
            RtValue v = evalOperand(env, op->operand(0));
            if (v.kind == RtValue::Kind::Ptr ||
                v.kind == RtValue::Kind::Buffer)
                peEnv.ptrs[var] = v.buf;
            else
                pe.scalar(var) = v.num;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kAddressOf) {
            RtValue v;
            v.kind = RtValue::Kind::Ptr;
            v.buf = pe.findBuffer(op->strAttr(ir::attrs::kVar));
            env[op->result().impl()] = v;
            continue;
        }
        if (n == csl::kGetMemDsd) {
            const std::string &var = op->strAttr(ir::attrs::kVar);
            RtValue v;
            v.kind = RtValue::Kind::DsdVal;
            v.buf = op->hasAttr(ir::attrs::kViaPtr) ? peEnv.ptrs.at(var)
                                                    : pe.bufferId(var);
            v.dsd.buf = &pe.buffer(v.buf);
            v.dsd.offset = op->intAttr(ir::attrs::kOffset);
            v.dsd.length = op->intAttr(ir::attrs::kLength);
            v.dsd.stride = op->intAttr(ir::attrs::kStride);
            if (op->hasAttr(ir::attrs::kWrap))
                v.dsd.wrap = op->intAttr(ir::attrs::kWrap);
            env[op->result().impl()] = v;
            ctx.consume(2); // DSD configuration is cheap but not free.
            continue;
        }
        if (n == csl::kIncrementDsdOffset) {
            RtValue v = evalOperand(env, op->operand(0));
            double delta = evalOperand(env, op->operand(1)).num;
            v.dsd.offset += static_cast<int64_t>(delta);
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kSetDsdLength) {
            RtValue v = evalOperand(env, op->operand(0));
            v.dsd.length = static_cast<int64_t>(
                evalOperand(env, op->operand(1)).num);
            env[op->result().impl()] = v;
            ctx.consume(1);
            continue;
        }
        if (n == csl::kFadds || n == csl::kFsubs || n == csl::kFmuls) {
            wse::Dsd dest = evalOperand(env, op->operand(0)).dsd;
            wse::DsdOperand a =
                asDsdOperand(evalOperand(env, op->operand(1)));
            wse::DsdOperand b =
                asDsdOperand(evalOperand(env, op->operand(2)));
            if (n == csl::kFadds)
                wse::fadds(ctx, dest, a, b);
            else if (n == csl::kFsubs)
                wse::fsubs(ctx, dest, a, b);
            else
                wse::fmuls(ctx, dest, a, b);
            continue;
        }
        if (n == csl::kFmovs) {
            wse::Dsd dest = evalOperand(env, op->operand(0)).dsd;
            wse::DsdOperand src =
                asDsdOperand(evalOperand(env, op->operand(1)));
            wse::fmovs(ctx, dest, src);
            continue;
        }
        if (n == csl::kFmacs) {
            wse::Dsd dest = evalOperand(env, op->operand(0)).dsd;
            wse::DsdOperand a =
                asDsdOperand(evalOperand(env, op->operand(1)));
            wse::DsdOperand b =
                asDsdOperand(evalOperand(env, op->operand(2)));
            double scalar = evalOperand(env, op->operand(3)).num;
            wse::fmacs(ctx, dest, a, b, static_cast<float>(scalar));
            continue;
        }
        if (n == csl::kCall) {
            runCallable(op->strAttr(ir::attrs::kCallee), peEnv, ctx);
            ctx.consume(2);
            continue;
        }
        if (n == csl::kActivate) {
            pe.activate(op->strAttr(ir::attrs::kTask), ctx.currentCycle());
            ctx.consume(2);
            continue;
        }
        if (n == csl::kCommsExchange) {
            size_t site = commSiteOf_.at(op);
            RtValue send = evalOperand(env, op->operand(0));
            WSC_ASSERT(send.kind == RtValue::Kind::DsdVal,
                       "comms_exchange expects a DSD operand");
            csl::CommsExchangeSpec spec = csl::commsExchangeSpec(op);
            comms_[site]->exchange(ctx, send.buf,
                                   pe.taskId(spec.recvCallback),
                                   pe.taskId(spec.doneCallback));
            ctx.consume(4);
            continue;
        }
        if (n == csl::kUnblockCmdStream) {
            unblockCount_++;
            peUnblocked_[pe.id()] = 1;
            continue;
        }
        if (n == csl::kImportModule || n == csl::kMemberCall ||
            n == csl::kExport || n == csl::kParam) {
            // Comptime / host-interface constructs: no runtime effect in
            // the interpreter.
            for (ir::Value r : op->results()) {
                RtValue v;
                v.kind = RtValue::Kind::None;
                env[r.impl()] = v;
            }
            continue;
        }
        panic("csl interpreter: unsupported op " + n.str());
    }
}

//===----------------------------------------------------------------------===
// Host readback
//===----------------------------------------------------------------------===

std::vector<float>
CslProgramInstance::readFieldColumn(const std::string &field, int x, int y)
{
    WSC_ASSERT(configured_, "readFieldColumn before configure");
    wse::Pe &pe = sim_.pe(x, y);
    // Resolve through the program's result mapping (read at configure;
    // a later entry for the same field wins).
    const ResultField *rf = nullptr;
    for (const ResultField &r : resultFields_)
        if (r.field == field)
            rf = &r;
    if (!rf)
        return pe.buffer(field);
    if (!rf->viaPtr) {
        if (!referenceMode_ && rf->varIdx >= 0 &&
            varPlan_[rf->varIdx].buffer.valid())
            return pe.buffer(varPlan_[rf->varIdx].buffer);
        return pe.buffer(rf->var);
    }
    if (referenceMode_)
        return pe.buffer(peEnvs_[pe.id()].ptrs.at(rf->var));
    // Compiled mode tracks pointer rotation in the variable slots.
    WSC_ASSERT(rf->varIdx >= 0,
               "unknown pointer variable `" << rf->var << "`");
    return pe.buffer(
        varSlots_[pe.id() * varPlan_.size() + rf->varIdx].ptrTarget);
}

const std::vector<wse::Cycles> &
CslProgramInstance::stepMarks(int x, int y) const
{
    return stepMarks_[static_cast<size_t>(x) * sim_.height() + y];
}

size_t
CslProgramInstance::memoryBytesUsed(int x, int y)
{
    return sim_.pe(x, y).memoryBytesUsed();
}

} // namespace wsc::interp
