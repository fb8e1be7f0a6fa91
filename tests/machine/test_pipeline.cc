#include <gtest/gtest.h>

#include "src/isa/builder.hh"
#include "src/machine/pipeline.hh"

namespace eel::machine {
namespace {

namespace b = isa::build;
using isa::Op;
namespace cond = isa::cond;

const MachineModel &ultra() { return MachineModel::builtin("ultrasparc"); }
const MachineModel &super() { return MachineModel::builtin("supersparc"); }
const MachineModel &hyper() { return MachineModel::builtin("hypersparc"); }

TEST(PipelineStalls, IndependentInstructionNoStall)
{
    PipelineState st(ultra());
    st.issue(b::rri(Op::Add, 8, 1, 1));
    EXPECT_EQ(st.stalls(b::rri(Op::Sub, 9, 2, 1)), 0u);
}

TEST(PipelineStalls, RawDependenceStalls)
{
    PipelineState st(ultra());
    st.issue(b::rri(Op::Add, 8, 1, 1));
    EXPECT_EQ(st.stalls(b::rri(Op::Sub, 9, 8, 1)), 1u);
}

TEST(PipelineStalls, SethiConsumerCanCoIssue)
{
    // "the sethi instruction produces a value which is available at
    // the end of cycle 0, and can be used by another instruction
    // issued in the same cycle" (§3.1).
    PipelineState st(ultra());
    st.issue(b::sethi(8, 0x40000));
    EXPECT_EQ(st.stalls(b::rri(Op::Or, 8, 8, 0x123)), 0u);
}

TEST(PipelineStalls, LoadUseLatencyUltra)
{
    // UltraSPARC: two dead cycles between a load and its use.
    PipelineState st(ultra());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    EXPECT_EQ(st.stalls(b::rri(Op::Add, 9, 8, 1)), 3u);
}

TEST(PipelineStalls, LoadUseLatencySuper)
{
    // SuperSPARC: one dead cycle.
    PipelineState st(super());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    EXPECT_EQ(st.stalls(b::rri(Op::Add, 9, 8, 1)), 2u);
}

TEST(PipelineStalls, CmpBranchCoIssue)
{
    PipelineState st(ultra());
    st.issue(b::cmpi(8, 0));
    EXPECT_EQ(st.stalls(b::bicc(cond::ne, 4)), 0u);
}

TEST(PipelineStalls, StructuralHazardSingleLsu)
{
    // One memory op per cycle on every modeled machine.
    PipelineState st(ultra());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    EXPECT_GE(st.stalls(b::memi(Op::Ld, 9, 2, 0)), 1u);
}

TEST(PipelineStalls, HyperSparcStoresHoldLsuTwoCycles)
{
    // §4.1: "stores on the hyperSPARC use the LSU for 2 cycles and
    // loads use it for 1 cycle".
    PipelineState hs(hyper());
    hs.issue(b::memi(Op::St, 8, 1, 0));
    unsigned after_store = hs.stalls(b::memi(Op::Ld, 9, 2, 0));

    PipelineState hl(hyper());
    hl.issue(b::memi(Op::Ld, 8, 1, 0));
    unsigned after_load = hl.stalls(b::memi(Op::Ld, 9, 2, 0));
    EXPECT_EQ(after_load + 1, after_store);
}

TEST(PipelineStalls, PureFunction)
{
    PipelineState st(ultra());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    isa::Instruction use = b::rri(Op::Add, 9, 8, 1);
    unsigned s1 = st.stalls(use);
    unsigned s2 = st.stalls(use);
    EXPECT_EQ(s1, s2);
}

TEST(PipelineStalls, WawOrdering)
{
    PipelineState st(ultra());
    st.issue(b::rri(Op::Add, 8, 1, 1));
    // A second write to %o0 must not retire its write first.
    isa::Instruction w2 = b::rri(Op::Or, 8, 2, 1);
    unsigned s = st.stalls(w2);
    auto r = st.issue(w2);
    EXPECT_EQ(r.stalls, s);
}

TEST(PipelineIssue, GroupLimitCapsCoIssue)
{
    // Only issueWidth() instructions may enter per cycle (checked on
    // the hyperSPARC, whose only co-issue limit for nops is Group).
    const MachineModel &m = hyper();
    PipelineState st(m);
    uint64_t first = st.issue(b::nop()).startCycle;
    unsigned same = 1;
    for (int i = 0; i < 10; ++i) {
        if (st.issue(b::nop()).startCycle == first)
            ++same;
    }
    EXPECT_EQ(same, m.issueWidth());
}

TEST(PipelineIssue, UltraMixedBundleFillsTheGroup)
{
    // The UltraSPARC sustains four per cycle only for mixed bundles:
    // two IEU-class ops plus a memory op plus a floating point op.
    PipelineState st(ultra());
    uint64_t c0 = st.issue(b::rri(Op::Add, 8, 1, 1)).startCycle;
    EXPECT_EQ(st.issue(b::rri(Op::Sub, 9, 2, 1)).startCycle, c0);
    EXPECT_EQ(st.issue(b::memi(Op::Lddf, 4, 16, 0)).startCycle, c0);
    EXPECT_EQ(st.issue(b::fp3(Op::Faddd, 8, 0, 2)).startCycle, c0);
    // A fifth instruction cannot join the group.
    EXPECT_GT(st.issue(b::fp3(Op::Fmuld, 10, 0, 2)).startCycle, c0);
}

TEST(PipelineIssue, UltraIntegerCodeCapsAtTwo)
{
    // "for purely integer codes, the UltraSPARC can launch at most
    // two instructions in parallel" (§4).
    PipelineState st(ultra());
    uint64_t c0 = st.issue(b::rri(Op::Add, 8, 1, 1)).startCycle;
    EXPECT_EQ(st.issue(b::rri(Op::Sub, 9, 2, 1)).startCycle, c0);
    EXPECT_GT(st.issue(b::rri(Op::Or, 10, 3, 1)).startCycle, c0);
}

TEST(PipelineIssue, FrontierMonotone)
{
    PipelineState st(ultra());
    uint64_t prev = 0;
    for (int i = 0; i < 50; ++i) {
        auto r = st.issue(b::rri(Op::Add, 8, 8, 1));
        EXPECT_GE(r.startCycle, prev);
        prev = r.startCycle;
    }
}

TEST(PipelineIssue, FetchBubbleDelaysNextIssue)
{
    PipelineState st(ultra());
    st.issue(b::nop());
    uint64_t before = st.frontier();
    st.fetchBubble(3);
    EXPECT_EQ(st.frontier(), before + 3);
    auto r = st.issue(b::nop());
    EXPECT_GE(r.startCycle, before + 3);
}

TEST(PipelineIssue, ResetClearsHistory)
{
    PipelineState st(ultra());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    st.reset();
    EXPECT_EQ(st.frontier(), 0u);
    EXPECT_EQ(st.stalls(b::rri(Op::Add, 9, 8, 1)), 0u);
}

TEST(SequenceCycles, DependentChainSerializes)
{
    std::vector<isa::Instruction> dep, indep;
    for (int i = 0; i < 16; ++i) {
        dep.push_back(b::rri(Op::Add, 8, 8, 1));
        indep.push_back(b::rri(Op::Add, 8 + (i % 6), 1, i));
    }
    EXPECT_GT(sequenceCycles(ultra(), dep),
              sequenceCycles(ultra(), indep) + 4);
}

TEST(SequenceCycles, WiderMachineIsFaster)
{
    std::vector<isa::Instruction> seq;
    for (int i = 0; i < 32; ++i)
        seq.push_back(b::rri(Op::Add, 8 + (i % 6), 1, i));
    EXPECT_LE(sequenceCycles(ultra(), seq),
              sequenceCycles(hyper(), seq));
}

TEST(SequenceCycles, FpDivideDominates)
{
    std::vector<isa::Instruction> seq = {
        b::fp3(Op::Fdivd, 4, 0, 2),
        b::fp3(Op::Faddd, 6, 4, 2),  // depends on the divide
    };
    EXPECT_GE(sequenceCycles(ultra(), seq), 22u);
}

TEST(SequenceCycles, EmptySequence)
{
    EXPECT_EQ(sequenceCycles(ultra(), {}), 0u);
}

machine::ResolvedVariant
rv(const MachineModel &m, const isa::Instruction &inst)
{
    return ResolvedVariant::resolve(m, inst);
}

TEST(StallAttribution, RawDependenceCharged)
{
    PipelineState st(ultra());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    obs::StallBreakdown bd;
    isa::Instruction use = b::rri(Op::Add, 9, 8, 1);
    unsigned s = st.stalls(rv(ultra(), use), &bd);
    EXPECT_EQ(s, 3u);
    EXPECT_EQ(bd.total(), s);
    EXPECT_EQ(bd.cycles[unsigned(obs::StallReason::RawDep)], s);
}

TEST(StallAttribution, StructuralHazardCharged)
{
    PipelineState st(ultra());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    obs::StallBreakdown bd;
    isa::Instruction ld2 = b::memi(Op::Ld, 9, 2, 0);
    unsigned s = st.stalls(rv(ultra(), ld2), &bd);
    EXPECT_GE(s, 1u);
    EXPECT_EQ(bd.total(), s);
    EXPECT_GE(bd.cycles[unsigned(obs::StallReason::Resource)], 1u);
}

TEST(StallAttribution, WawOrderingCharged)
{
    // A second write to f4 behind an in-flight divide must wait for
    // the divide's writeback: WAW, not a resource or RAW hazard (the
    // add runs on a different unit and reads only f0/f2).
    PipelineState st(ultra());
    st.issue(b::fp3(Op::Fdivd, 4, 0, 2));
    obs::StallBreakdown bd;
    isa::Instruction w2 = b::fp3(Op::Faddd, 4, 0, 2);
    unsigned s = st.stalls(rv(ultra(), w2), &bd);
    EXPECT_GE(s, 1u);
    EXPECT_EQ(bd.total(), s);
    EXPECT_GE(bd.cycles[unsigned(obs::StallReason::WarWawDep)], 1u);
}

TEST(StallAttribution, NullChannelSameCount)
{
    // Attribution is observational: the count with the out-channel
    // equals the count without it, and no-stall picks charge nothing.
    PipelineState st(ultra());
    st.issue(b::memi(Op::Ld, 8, 1, 0));
    isa::Instruction use = b::rri(Op::Add, 9, 8, 1);
    obs::StallBreakdown bd;
    EXPECT_EQ(st.stalls(rv(ultra(), use), &bd),
              st.stalls(rv(ultra(), use)));
    obs::StallBreakdown none;
    EXPECT_EQ(st.stalls(rv(ultra(), b::rri(Op::Sub, 9, 2, 1)),
                        &none), 0u);
    EXPECT_EQ(none.total(), 0u);
}

TEST(StallAttribution, IssueAccumulatesAcrossSequence)
{
    // Over a whole sequence the histogram sums exactly to the total
    // stall cycles issue() reports — the invariant the benches check
    // per run.
    PipelineState st(ultra());
    obs::StallBreakdown bd;
    uint64_t total = 0;
    std::vector<isa::Instruction> seq = {
        b::memi(Op::Ld, 8, 16, 0),
        b::rri(Op::Add, 9, 8, 1),
        b::memi(Op::Ld, 10, 9, 0),
        b::memi(Op::St, 10, 16, 4),
        b::fp3(Op::Fdivd, 4, 0, 2),
        b::fp3(Op::Faddd, 4, 0, 2),
    };
    for (const isa::Instruction &inst : seq)
        total += st.issue(rv(ultra(), inst), &bd).stalls;
    EXPECT_GT(total, 0u);
    EXPECT_EQ(bd.total(), total);
}

TEST(PipelineSnapshot, RestoreContinuesExactly)
{
    // A capture applied onto a fresh state at a different cycle
    // origin must be indistinguishable from the original: issue a
    // prefix, capture, issue a suffix twice — once live, once on the
    // fresh state — and demand identical stalls, stall attribution
    // and issue cycles relative to each state's frontier.
    std::vector<isa::Instruction> prefix = {
        b::memi(Op::Ld, 8, 1, 0),
        b::fp3(Op::Fdivd, 4, 0, 2),
        b::rri(Op::Add, 9, 8, 1),
    };
    std::vector<isa::Instruction> suffix = {
        b::fp3(Op::Faddd, 6, 4, 2),
        b::memi(Op::Ld, 10, 9, 4),
        b::rri(Op::Sub, 11, 10, 2),
    };
    PipelineState st(ultra());
    for (const auto &in : prefix)
        st.issue(in);
    PipelineState::RebasedPipe cap;
    st.captureRebased(cap);
    ASSERT_FALSE(cap.rowAt.empty());
    ASSERT_FALSE(cap.regs.empty());
    const uint64_t origin = st.frontier();

    std::vector<PipelineState::IssueResult> live;
    obs::StallBreakdown liveBd;
    for (const auto &in : suffix)
        live.push_back(st.issue(rv(ultra(), in), &liveBd));

    // 1000 cycles later: every live row lands in another ring slot.
    PipelineState st2(ultra());
    st2.fetchBubble(1000);
    st2.applyRebased(cap, 0);
    const uint64_t origin2 = st2.frontier();
    ASSERT_NE(origin2, origin);
    PipelineState::RebasedPipe cap2;
    st2.captureRebased(cap2);
    EXPECT_TRUE(cap2 == cap);

    obs::StallBreakdown appliedBd;
    for (size_t i = 0; i < suffix.size(); ++i) {
        auto r = st2.issue(rv(ultra(), suffix[i]), &appliedBd);
        EXPECT_EQ(r.startCycle - origin2, live[i].startCycle - origin)
            << i;
        EXPECT_EQ(r.doneCycle - origin2, live[i].doneCycle - origin)
            << i;
        EXPECT_EQ(r.stalls, live[i].stalls) << i;
    }
    EXPECT_GT(liveBd.total(), 0u);
    EXPECT_TRUE(appliedBd == liveBd);
}

TEST(PipelineSnapshot, NormalizedKeyIsTranslationInvariant)
{
    // The same instruction history issued from two different cycle
    // origins (one pipeline starts with a fetch bubble) must produce
    // equal captures — that equality is what the sharded stitch pass
    // uses to accept a warmup-reconstructed state.
    std::vector<isa::Instruction> seq = {
        b::memi(Op::Ld, 8, 1, 0),
        b::fp3(Op::Fdivd, 4, 0, 2),
        b::rri(Op::Add, 9, 8, 1),
        b::fp3(Op::Faddd, 6, 4, 2),
    };
    PipelineState a(ultra()), bst(ultra());
    bst.fetchBubble(13);
    for (const auto &in : seq) {
        a.issue(in);
        bst.issue(in);
    }
    ASSERT_NE(a.frontier(), bst.frontier());
    PipelineState::RebasedPipe ka, kb;
    a.captureRebased(ka);
    bst.captureRebased(kb);
    EXPECT_TRUE(ka == kb);

    // And a genuinely different history must not collide: the
    // divide's pending write keeps its capture distinct.
    PipelineState c(ultra());
    for (const auto &in : seq)
        c.issue(in);
    c.issue(b::fp3(Op::Fdivd, 12, 6, 2));
    PipelineState::RebasedPipe kc;
    c.captureRebased(kc);
    EXPECT_FALSE(ka == kc);
}

TEST(PipelineStalls, QptSnippetLatency)
{
    // The paper's 4-instruction profiling sequence "can execute in 4
    // cycles on both SuperSPARC and UltraSPARC" (§4.2). Measured as
    // the steady-state cost of back-to-back snippets, which excludes
    // the one-time pipeline drain.
    auto per_snippet = [](const MachineModel &m) {
        std::vector<isa::Instruction> seq;
        const int n = 50;
        for (int i = 0; i < n; ++i) {
            seq.push_back(b::sethi(6, 0x400000 + 1024 * i));
            seq.push_back(b::memi(Op::Ld, 7, 6, 0));
            seq.push_back(b::rri(Op::Add, 7, 7, 1));
            seq.push_back(b::memi(Op::St, 7, 6, 0));
        }
        return double(sequenceCycles(m, seq)) / n;
    };
    EXPECT_NEAR(per_snippet(super()), 4.0, 0.25);
    EXPECT_LE(per_snippet(ultra()), 4.0);
}

} // namespace
} // namespace eel::machine
