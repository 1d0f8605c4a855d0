#include "test_helpers.h"

namespace wsc::test {
namespace {

namespace csl = dialects::csl;
namespace ar = dialects::arith;
namespace scf = dialects::scf;
namespace bt = dialects::builtin;

/**
 * Interpreter unit tests against hand-written csl-ir programs: each
 * exercises a specific op family on a 1x1 simulated grid, independent
 * of the compilation pipeline.
 */
class InterpUnit : public IrTest
{
  protected:
    InterpUnit() : module(bt::createModule(ctx)), b(ctx)
    {
        b.setInsertionPointToEnd(bt::moduleBody(module.get()));
        program = csl::createModule(b, "program", "pe");
        pb = std::make_unique<ir::OpBuilder>(ctx);
        pb->setInsertionPointToEnd(csl::moduleBody(program));
    }

    /** Append a csl.func and position a builder in its body. */
    ir::OpBuilder
    makeFunc(const std::string &name)
    {
        ir::Operation *fn = csl::createFunc(*pb, name);
        ir::OpBuilder fb(ctx);
        fb.setInsertionPointToEnd(csl::calleeBody(fn));
        return fb;
    }

    ir::OwningOp module;
    ir::Operation *program;
    ir::OpBuilder b;
    std::unique_ptr<ir::OpBuilder> pb;
};

TEST_F(InterpUnit, DsdBuiltinsComputeOnBuffers)
{
    ir::Type buf = ir::getMemRefType(ctx, {8}, ir::getF32Type(ctx));
    csl::createVariable(*pb, "x", buf);
    ir::OpBuilder fb = makeFunc("f_main");
    ir::Value d = csl::createGetMemDsd(fb, "x", 0, 8);
    ir::Value c = ar::createConstantF32(fb, 3.0);
    csl::createBuiltin(fb, csl::kFmovs, {d, c});
    ir::Value half = ar::createConstantF32(fb, 0.5);
    csl::createBuiltin(fb, csl::kFmuls, {d, d, half});
    csl::createReturn(fb);
    ASSERT_TRUE(ir::succeeded(ir::verify(module.get())));

    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    interp::CslProgramInstance instance(sim, module.get());
    instance.configure();
    instance.launch();
    sim.runWithReport();
    EXPECT_EQ(sim.pe(0, 0).buffer("x"),
              std::vector<float>(8, 1.5f));
}

TEST_F(InterpUnit, ScalarVariablesAndControlFlow)
{
    csl::createVariable(*pb, "counter", ir::getI32Type(ctx),
                        ir::getIntAttr(ctx, 0));
    // count_up: counter < 5 ? (counter += 1; re-activate) : stop.
    {
        ir::Operation *task =
            csl::createTask(*pb, "count_up", "local", 0);
        ir::OpBuilder tb(ctx);
        tb.setInsertionPointToEnd(csl::calleeBody(task));
        ir::Value v = csl::createLoadVar(tb, "counter",
                                         ir::getI32Type(ctx));
        ir::Value limit = ar::createConstantI32(tb, 5);
        ir::Value cond = ar::createCmpI(tb, "lt", v, limit);
        ir::Operation *ifOp = scf::createIf(tb, cond);
        ir::OpBuilder thenB(ctx);
        thenB.setInsertionPointToEnd(scf::ifThenBlock(ifOp));
        ir::Value one = ar::createConstantI32(thenB, 1);
        ir::Value next = ar::createAddI(thenB, v, one);
        csl::createStoreVar(thenB, "counter", next);
        csl::createActivate(thenB, "count_up");
        scf::createYield(thenB);
        ir::OpBuilder elseB(ctx);
        elseB.setInsertionPointToEnd(scf::ifElseBlock(ifOp));
        scf::createYield(elseB);
        csl::createReturn(tb);
    }
    ir::OpBuilder fb = makeFunc("f_main");
    csl::createActivate(fb, "count_up");
    csl::createReturn(fb);
    ASSERT_TRUE(ir::succeeded(ir::verify(module.get())));

    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference" : "compiled");
        wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        instance.configure();
        instance.launch();
        sim.runWithReport();
        EXPECT_EQ(sim.pe(0, 0).scalar("counter"), 5.0);
        // f_main + 6 count_up dispatches.
        EXPECT_EQ(sim.pe(0, 0).taskActivations(), 7u);
    }
}

TEST_F(InterpUnit, PointerVariablesRotateBuffers)
{
    ir::Type buf = ir::getMemRefType(ctx, {4}, ir::getF32Type(ctx));
    csl::createVariable(*pb, "a", buf);
    csl::createVariable(*pb, "b", buf);
    csl::createVariable(*pb, "pa", csl::getPtrType(ctx, buf),
                        ir::getStringAttr(ctx, "a"));
    csl::createVariable(*pb, "pb", csl::getPtrType(ctx, buf),
                        ir::getStringAttr(ctx, "b"));
    ir::OpBuilder fb = makeFunc("f_main");
    // Write 1.0 through pa (-> a), swap, write 2.0 through pa (-> b).
    ir::Value d1 = csl::createGetMemDsd(fb, "pa", 0, 4, 1,
                                        /*viaPtr=*/true);
    csl::createBuiltin(fb, csl::kFmovs,
                       {d1, ar::createConstantF32(fb, 1.0)});
    ir::Value pav =
        csl::createLoadVar(fb, "pa", csl::getPtrType(ctx, buf));
    ir::Value pbv =
        csl::createLoadVar(fb, "pb", csl::getPtrType(ctx, buf));
    csl::createStoreVar(fb, "pa", pbv);
    csl::createStoreVar(fb, "pb", pav);
    ir::Value d2 = csl::createGetMemDsd(fb, "pa", 0, 4, 1,
                                        /*viaPtr=*/true);
    csl::createBuiltin(fb, csl::kFmovs,
                       {d2, ar::createConstantF32(fb, 2.0)});
    csl::createReturn(fb);
    // Host read-back: "rotated" through pa (now b), "fixed" from a.
    auto result = [&](const std::string &field, const std::string &var,
                      bool viaPtr) {
        return ir::getDictAttr(
            ctx, {{"field", ir::getStringAttr(ctx, field)},
                  {"var", ir::getStringAttr(ctx, var)},
                  {"via_ptr", ir::getIntAttr(ctx, viaPtr ? 1 : 0)}});
    };
    program->setAttr("result_fields",
                     ir::getArrayAttr(ctx, {result("rotated", "pa", true),
                                            result("fixed", "a", false)}));
    ASSERT_TRUE(ir::succeeded(ir::verify(module.get())));

    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference" : "compiled");
        wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        instance.configure();
        instance.launch();
        sim.runWithReport();
        EXPECT_EQ(sim.pe(0, 0).buffer("a"), std::vector<float>(4, 1.0f));
        EXPECT_EQ(sim.pe(0, 0).buffer("b"), std::vector<float>(4, 2.0f));
        EXPECT_EQ(instance.readFieldColumn("rotated", 0, 0),
                  std::vector<float>(4, 2.0f));
        EXPECT_EQ(instance.readFieldColumn("fixed", 0, 0),
                  std::vector<float>(4, 1.0f));
    }
}

TEST_F(InterpUnit, CallsExecuteSynchronously)
{
    csl::createVariable(*pb, "order", ir::getI32Type(ctx),
                        ir::getIntAttr(ctx, 0));
    {
        ir::OpBuilder hb = makeFunc("helper");
        ir::Value v =
            csl::createLoadVar(hb, "order", ir::getI32Type(ctx));
        ir::Value ten = ar::createConstantI32(hb, 10);
        csl::createStoreVar(hb, "order",
                            ar::createAddI(hb, v, ten));
        csl::createReturn(hb);
    }
    ir::OpBuilder fb = makeFunc("f_main");
    csl::createCall(fb, "helper");
    csl::createCall(fb, "helper");
    ir::Value v = csl::createLoadVar(fb, "order", ir::getI32Type(ctx));
    ir::Value one = ar::createConstantI32(fb, 1);
    csl::createStoreVar(fb, "order", ar::createAddI(fb, v, one));
    csl::createReturn(fb);
    ASSERT_TRUE(ir::succeeded(ir::verify(module.get())));

    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference" : "compiled");
        wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        instance.configure();
        instance.launch();
        sim.runWithReport();
        // Two helper calls ran before the final increment: 10+10+1.
        EXPECT_EQ(sim.pe(0, 0).scalar("order"), 21.0);
    }
}

TEST_F(InterpUnit, IncrementDsdOffsetShiftsTheView)
{
    ir::Type buf = ir::getMemRefType(ctx, {8}, ir::getF32Type(ctx));
    csl::createVariable(*pb, "x", buf);
    ir::OpBuilder fb = makeFunc("f_main");
    ir::Value base = csl::createGetMemDsd(fb, "x", 0, 4);
    ir::Value off = ar::createConstantI32(fb, 4);
    ir::Value shifted = csl::createIncrementDsdOffset(fb, base, off);
    csl::createBuiltin(fb, csl::kFmovs,
                       {shifted, ar::createConstantF32(fb, 9.0)});
    csl::createReturn(fb);
    ASSERT_TRUE(ir::succeeded(ir::verify(module.get())));

    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference" : "compiled");
        wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        instance.configure();
        instance.launch();
        sim.runWithReport();
        const std::vector<float> &x = sim.pe(0, 0).buffer("x");
        EXPECT_EQ(x[3], 0.0f);
        EXPECT_EQ(x[4], 9.0f);
        EXPECT_EQ(x[7], 9.0f);
    }
}

TEST_F(InterpUnit, UnknownOpIsRejected)
{
    ir::OpBuilder fb = makeFunc("f_main");
    fb.create("tensor.empty", {}, {ir::getTensorType(
                                      ctx, {4}, ir::getF32Type(ctx))});
    csl::createReturn(fb);

    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    interp::CslProgramInstance instance(sim, module.get());
    instance.configure();
    instance.launch();
    EXPECT_THROW(sim.runWithReport(), PanicError);
}

TEST_F(InterpUnit, OffsetTaskOutsideCommsPanicsOnlyWhenActivated)
{
    // A 1-argument task that is no comms site's receive callback is
    // diagnosed lazily, in both interpreter modes: configure and a run
    // that never activates it succeed; activating it panics.
    csl::createVariable(*pb, "fire", ir::getI32Type(ctx),
                        ir::getIntAttr(ctx, 0));
    {
        ir::Operation *task = csl::createTask(*pb, "orphan_cb", "local", 3,
                                              {ir::getI16Type(ctx)});
        ir::OpBuilder tb(ctx);
        tb.setInsertionPointToEnd(csl::calleeBody(task));
        csl::createReturn(tb);
    }
    {
        ir::OpBuilder fb = makeFunc("f_main");
        ir::Value fire = csl::createLoadVar(fb, "fire", ir::getI32Type(ctx));
        ir::Value zero = ar::createConstantI32(fb, 0);
        ir::Value cond = ar::createCmpI(fb, "ne", fire, zero);
        ir::Operation *ifOp = scf::createIf(fb, cond);
        ir::OpBuilder thenB(ctx);
        thenB.setInsertionPointToEnd(scf::ifThenBlock(ifOp));
        csl::createActivate(thenB, "orphan_cb");
        scf::createYield(thenB);
        ir::OpBuilder elseB(ctx);
        elseB.setInsertionPointToEnd(scf::ifElseBlock(ifOp));
        scf::createYield(elseB);
        csl::createUnblockCmdStream(fb);
        csl::createReturn(fb);
    }
    ASSERT_TRUE(ir::succeeded(ir::verify(module.get())));

    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference" : "compiled");
        {
            wse::Simulator sim(wse::ArchParams::wse3(), 2, 1);
            interp::CslProgramInstance instance(sim, module.get());
            instance.setReferenceMode(reference);
            EXPECT_NO_THROW(instance.configure());
            instance.launch();
            EXPECT_NO_THROW(sim.runWithReport());
            EXPECT_EQ(instance.unblockCount(), 2u);
        }
        wse::Simulator sim(wse::ArchParams::wse3(), 2, 1);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        instance.configure();
        sim.pe(1, 0).scalar("fire") = 1.0;
        instance.launch();
        try {
            sim.runWithReport();
            ADD_FAILURE() << "activating orphan_cb did not panic";
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "task with a chunk-offset argument is not a "
                          "comms receive callback"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(InterpUnit, UndeclaredScalarReadsZero)
{
    // A name the code uses without declaring it is a zero-initialised
    // scalar in both modes.
    csl::createVariable(*pb, "out", ir::getI32Type(ctx),
                        ir::getIntAttr(ctx, 1));
    ir::OpBuilder fb = makeFunc("f_main");
    ir::Value ghost = csl::createLoadVar(fb, "ghost", ir::getI32Type(ctx));
    csl::createStoreVar(fb, "out",
                        ar::createAddI(fb, ghost,
                                       ar::createConstantI32(fb, 7)));
    csl::createReturn(fb);

    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference" : "compiled");
        wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        instance.configure();
        instance.launch();
        sim.runWithReport();
        EXPECT_EQ(sim.pe(0, 0).scalar("out"), 7.0);
        EXPECT_EQ(sim.pe(0, 0).scalar("ghost"), 0.0);
    }
}

/** Run `fn` and return the PanicError message it throws ("" if none). */
template <class Fn>
std::string
panicMessage(Fn fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST_F(InterpUnit, ActivateOfNonCallablePanics)
{
    // Compiled mode resolves every activate target at configure; the
    // reference evaluator resolves it by name when the activate runs.
    ir::OpBuilder fb = makeFunc("f_main");
    csl::createActivate(fb, "nowhere");
    csl::createReturn(fb);

    {
        wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
        interp::CslProgramInstance instance(sim, module.get());
        std::string msg = panicMessage([&] { instance.configure(); });
        EXPECT_NE(msg.find("`nowhere`"), std::string::npos) << msg;
    }
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    interp::CslProgramInstance instance(sim, module.get());
    instance.setReferenceMode(true);
    EXPECT_NO_THROW(instance.configure());
    instance.launch();
    std::string msg = panicMessage([&] { sim.runWithReport(); });
    EXPECT_NE(msg.find("`nowhere`"), std::string::npos) << msg;
}

TEST_F(InterpUnit, ScalarLoadOfBufferFailsConfigure)
{
    ir::Type buf = ir::getMemRefType(ctx, {4}, ir::getF32Type(ctx));
    csl::createVariable(*pb, "x", buf);
    ir::OpBuilder fb = makeFunc("f_main");
    csl::createLoadVar(fb, "x", ir::getI32Type(ctx));
    csl::createReturn(fb);

    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    interp::CslProgramInstance instance(sim, module.get());
    std::string msg = panicMessage([&] { instance.configure(); });
    EXPECT_NE(msg.find("scalar access to non-scalar variable `x`"),
              std::string::npos)
        << msg;
}

TEST_F(InterpUnit, CommsReceiveCallbackMustBeACallable)
{
    // Both modes resolve a comms site's callbacks at configure.
    ir::Type buf = ir::getMemRefType(ctx, {4}, ir::getF32Type(ctx));
    csl::createVariable(*pb, "u", buf);
    makeFunc("done_cb");
    ir::OpBuilder fb = makeFunc("f_main");
    csl::CommsExchangeSpec spec;
    spec.recvCallback = "missing_cb";
    spec.doneCallback = "done_cb";
    spec.accesses = {{1, 0}};
    spec.zSize = 4;
    csl::createCommsExchange(fb, csl::createGetMemDsd(fb, "u", 0, 4), spec);
    csl::createReturn(fb);

    for (bool reference : {false, true}) {
        SCOPED_TRACE(reference ? "reference" : "compiled");
        wse::Simulator sim(wse::ArchParams::wse3(), 2, 1);
        interp::CslProgramInstance instance(sim, module.get());
        instance.setReferenceMode(reference);
        std::string msg = panicMessage([&] { instance.configure(); });
        EXPECT_NE(msg.find("`missing_cb`"), std::string::npos) << msg;
    }
}

TEST_F(InterpUnit, UnblockCountsHostReturns)
{
    ir::OpBuilder fb = makeFunc("f_main");
    csl::createUnblockCmdStream(fb);
    csl::createReturn(fb);
    wse::Simulator sim(wse::ArchParams::wse3(), 1, 1);
    interp::CslProgramInstance instance(sim, module.get());
    instance.configure();
    instance.launch();
    sim.runWithReport();
    EXPECT_EQ(instance.unblockCount(), 1u);
}

} // namespace
} // namespace wsc::test
