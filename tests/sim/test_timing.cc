#include <gtest/gtest.h>

#include "src/exe/executable.hh"
#include "src/isa/builder.hh"
#include "src/sim/timing.hh"

namespace eel::sim {
namespace {

namespace b = isa::build;
using isa::Op;
namespace rn = isa::reg;

exe::Executable
loopProgram(int iters, bool dependent)
{
    exe::Executable x;
    auto push = [&](isa::Instruction in) {
        x.text.push_back(isa::encode(in));
    };
    push(b::movi(rn::l0, iters));
    // loop: 4 adds; subcc; bne loop; delay nop.
    for (int i = 0; i < 4; ++i)
        push(dependent ? b::rri(Op::Add, rn::o1, rn::o1, 1)
                       : b::rri(Op::Add, rn::o1 + i, rn::g1, 1));
    push(b::rri(Op::Subcc, rn::l0, rn::l0, 1));
    push(b::bicc(isa::cond::ne, -5));
    push(b::nop());
    push(b::movi(rn::o0, 0));
    push(b::ta(isa::trap::exit_prog));
    push(b::retl());
    push(b::nop());
    x.entry = exe::textBase;
    x.symbols.push_back(exe::Symbol{
        "main", exe::textBase,
        static_cast<uint32_t>(4 * x.text.size()), true});
    return x;
}

/** A counted loop that prints its counter every iteration, so the
 *  output spans any slice boundary. */
exe::Executable
printingLoop(int iters)
{
    exe::Executable x;
    auto push = [&](isa::Instruction in) {
        x.text.push_back(isa::encode(in));
    };
    push(b::movi(rn::l0, iters));
    // loop: print l0; add; subcc; bne loop; delay nop.
    push(b::rri(Op::Add, rn::o0, rn::l0, 0));
    push(b::ta(isa::trap::put_int));
    push(b::rri(Op::Add, rn::o1, rn::o1, 1));
    push(b::rri(Op::Subcc, rn::l0, rn::l0, 1));
    push(b::bicc(isa::cond::ne, -4));
    push(b::nop());
    push(b::movi(rn::o0, 3));
    push(b::ta(isa::trap::exit_prog));
    push(b::retl());
    push(b::nop());
    x.entry = exe::textBase;
    x.symbols.push_back(exe::Symbol{
        "main", exe::textBase,
        static_cast<uint32_t>(4 * x.text.size()), true});
    return x;
}

void
expectSameRun(const TimedRun &a, const TimedRun &b)
{
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.exitCode, b.result.exitCode);
    EXPECT_EQ(a.result.exited, b.result.exited);
    EXPECT_EQ(a.result.output, b.result.output);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.issueHistogram, b.issueHistogram);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.icacheAccesses, b.icacheAccesses);
    EXPECT_TRUE(a.stallBreakdown == b.stallBreakdown);
    EXPECT_EQ(a.stallCycles, b.stallCycles);
    EXPECT_EQ(a.cancelled, b.cancelled);
}

TEST(TimingSim, SliceBoundariesAreInvisible)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    exe::Executable x = printingLoop(400);
    // Many slices, polling a cancel() that never fires, against the
    // unbudgeted run (one slice), with and without the icache
    // counters.
    uint64_t polls = 0;
    RunBudget sliced;
    sliced.cancel = [&polls] {
        ++polls;
        return false;
    };
    sliced.sliceInstructions = 7;
    for (bool icache : {false, true}) {
        SCOPED_TRACE(icache ? "icache" : "perfect icache");
        TimingSim::Config cfg;
        cfg.collectStalls = true;
        cfg.useICache = icache;

        TimedRun one = timedRun(x, m, cfg);
        ASSERT_TRUE(one.result.exited);
        EXPECT_EQ(one.result.exitCode, 3);
        EXPECT_GT(one.result.instructions,
                  100 * sliced.sliceInstructions);
        EXPECT_FALSE(one.result.output.empty());
        polls = 0;
        expectSameRun(timedRun(x, m, sliced, cfg), one);
        EXPECT_GE(polls, 100u);

        // Stopped by the instruction cap mid-slice.
        Emulator::Config capped;
        capped.maxInstructions = 1000;
        TimedRun cut = timedRun(x, m, cfg, capped);
        ASSERT_FALSE(cut.result.exited);
        EXPECT_EQ(cut.result.instructions, 1000u);
        polls = 0;
        expectSameRun(timedRun(x, m, sliced, cfg, capped), cut);
        EXPECT_EQ(polls, 143u);  // 142 full slices, then 6 insts
    }
}

TEST(TimingSim, DependentCodeIsSlower)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    TimedRun dep = timedRun(loopProgram(500, true), m);
    TimedRun ind = timedRun(loopProgram(500, false), m);
    EXPECT_EQ(dep.result.instructions, ind.result.instructions);
    EXPECT_GT(dep.cycles, ind.cycles);
    EXPECT_GT(ind.ipc, 1.0);
}

TEST(TimingSim, WiderMachineNoSlower)
{
    exe::Executable x = loopProgram(500, false);
    TimedRun u = timedRun(x, machine::MachineModel::builtin(
                                 "ultrasparc"));
    TimedRun h = timedRun(x, machine::MachineModel::builtin(
                                 "hypersparc"));
    EXPECT_LE(u.cycles, h.cycles);
}

TEST(TimingSim, SecondsUseClockRate)
{
    const auto &m = machine::MachineModel::builtin("supersparc");
    TimedRun r = timedRun(loopProgram(100, false), m);
    EXPECT_NEAR(r.seconds, double(r.cycles) / (50.0 * 1e6), 1e-12);
}

TEST(TimingSim, TakenBranchPenaltyCosts)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    exe::Executable x = loopProgram(500, false);
    TimingSim::Config with;
    with.takenBranchPenalty = 3;
    TimingSim::Config without;
    without.takenBranchPenalty = 0;
    EXPECT_GT(timedRun(x, m, with).cycles,
              timedRun(x, m, without).cycles);
}

TEST(TimingSim, IssueHistogramAccountsEveryCycle)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    TimedRun r = timedRun(loopProgram(200, false), m);
    ASSERT_EQ(r.issueHistogram.size(), m.issueWidth() + 2);
    uint64_t insts = 0, cycles = 0;
    for (size_t k = 0; k < r.issueHistogram.size(); ++k) {
        cycles += r.issueHistogram[k];
        insts += k * r.issueHistogram[k];
    }
    // Every retired instruction appears in some issue bucket.
    EXPECT_EQ(insts, r.result.instructions);
    // Bucketed cycles can slightly undercount the drain but must be
    // close to the total.
    EXPECT_LE(cycles, r.cycles + 2);
    EXPECT_GT(cycles, r.cycles / 2);
}

TEST(TimingSim, IpcBoundedByIssueWidth)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    TimedRun r = timedRun(loopProgram(300, false), m);
    EXPECT_LE(r.ipc, double(m.issueWidth()));
    EXPECT_GT(r.ipc, 0.1);
}

} // namespace
} // namespace eel::sim
