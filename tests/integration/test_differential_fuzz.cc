/**
 * @file
 * Randomized differential harness for the COW batch-rewriting path.
 *
 * COW aliasing bugs are silent data corruption: a page that two
 * variants believe they own privately, mutated by one, changes the
 * other's code or data without any crash. So every seed drives one
 * generated program through BOTH pipelines —
 *
 *   batch: one BatchRewriter analysis pass, all variant kinds
 *          (identity, slow-profile, edge-profile, locally scheduled,
 *          superblock — i.e. every SchedScope), sections COW-shared
 *          and interned in a SectionStore;
 *   eager: the same variants with sharing severed (private pages),
 *          the pre-COW editor's memory behaviour
 *
 * — and requires byte-identical images, bit-identical emulated
 * architectural traces (retired-pc hash + full final state), and
 * bit-identical qpt counters between the two, plus identical
 * program output against the original. Shared-chunk statistics are
 * asserted so the sharing the batch path exists for provably
 * happened.
 *
 * The same seeds also drive the simulator-engine differential: the
 * direct-threaded and token-switch interpreters must retire the
 * identical architectural trace, and every timing-engine combination
 * (either dispatch, trace memo on vs off) must reproduce the portable
 * reference stack's cycles, issue histogram and per-reason stall
 * attribution bit for bit. In a build without threaded dispatch the
 * threaded combos degrade to the reference and the oracle still runs
 * (the `portable` preset does exactly that, keeping the switch
 * fallback honest).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/eel/batch.hh"
#include "src/exe/section_store.hh"
#include "src/qpt/edge_profiler.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/emulator.hh"
#include "src/sim/timing.hh"
#include "src/workload/generator.hh"
#include "tests/fuzz_spec.hh"

namespace eel {
namespace {

using edit::VariantKind;

const std::vector<VariantKind> kAllKinds = {
    VariantKind::Identity,   VariantKind::SlowProfile,
    VariantKind::EdgeProfile, VariantKind::Sched,
    VariantKind::Superblock, VariantKind::Pipeline,
};

struct VariantRun
{
    std::unique_ptr<sim::Emulator> emu;
    sim::RunResult result;
    uint64_t traceHash = 0;
};

VariantRun
runImage(const exe::Executable &x, exe::SectionStore *store)
{
    VariantRun vr;
    if (store)
        vr.emu = std::make_unique<sim::Emulator>(
            x, sim::Emulator::Config{},
            sim::Emulator::decodeText(x, *store));
    else
        vr.emu = std::make_unique<sim::Emulator>(x);
    tests::TraceHashSink sink;
    vr.result = vr.emu->run(sink);
    vr.traceHash = sink.h;
    return vr;
}

sim::TimedRun
timeWithEngines(const exe::Executable &x,
                const machine::MachineModel &m,
                sim::Emulator::Config::Dispatch dispatch, bool memo)
{
    sim::TimingSim::Config tc;
    tc.collectStalls = true;
    tc.traceMemo = memo;
    sim::Emulator::Config ec;
    ec.dispatch = dispatch;
    return sim::timedRun(x, m, tc, ec);
}

void
engineDifferential(const exe::Executable &x,
                   const machine::MachineModel &m)
{
    using Dispatch = sim::Emulator::Config::Dispatch;

    // Functional dispatch differential: both interpreter engines
    // retire the identical architectural trace and land in the
    // identical machine state (scratch registers included — same
    // image, so even those must agree).
    sim::Emulator::Config swCfg, thCfg;
    swCfg.dispatch = Dispatch::Switch;
    thCfg.dispatch = Dispatch::Threaded;
    sim::Emulator swEmu(x, swCfg), thEmu(x, thCfg);
    tests::TraceHashSink swSink, thSink;
    sim::RunResult swRes = swEmu.run(swSink);
    sim::RunResult thRes = thEmu.run(thSink);
    ASSERT_TRUE(swRes.exited);
    ASSERT_TRUE(thRes.exited);
    EXPECT_EQ(swSink.h, thSink.h);
    EXPECT_EQ(swRes.instructions, thRes.instructions);
    EXPECT_EQ(swRes.exitCode, thRes.exitCode);
    EXPECT_EQ(swRes.output, thRes.output);
    EXPECT_TRUE(thEmu.snapshot().equalTo(swEmu.snapshot(),
                                         /*ignoreScratch=*/false));

    // Timing-engine differential: the reference is the portable
    // stack (token-switch dispatch, no memo); every accelerated
    // combination must reproduce it bit for bit — cycles, issue-width
    // histogram, stall total AND per-reason attribution.
    sim::TimedRun ref = timeWithEngines(x, m, Dispatch::Switch, false);
    EXPECT_EQ(ref.stallBreakdown.total(), ref.stallCycles);
    const struct
    {
        Dispatch d;
        bool memo;
        const char *name;
    } combos[] = {
        {Dispatch::Threaded, false, "threaded"},
        {Dispatch::Switch, true, "memo"},
        {Dispatch::Threaded, true, "threaded+memo"},
    };
    for (const auto &c : combos) {
        SCOPED_TRACE(c.name);
        sim::TimedRun got = timeWithEngines(x, m, c.d, c.memo);
        EXPECT_EQ(got.cycles, ref.cycles);
        EXPECT_EQ(got.issueHistogram, ref.issueHistogram);
        EXPECT_EQ(got.stallCycles, ref.stallCycles);
        EXPECT_TRUE(got.stallBreakdown == ref.stallBreakdown);
        EXPECT_EQ(got.result.instructions, ref.result.instructions);
        EXPECT_EQ(got.result.exitCode, ref.result.exitCode);
        EXPECT_EQ(got.result.output, ref.result.output);
    }
}

void
fuzzSeed(uint64_t seed)
{
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const machine::MachineModel &m =
        machine::MachineModel::builtin("ultrasparc");
    workload::GenOptions gopts;
    gopts.machine = &m;
    exe::Executable orig =
        workload::generate(tests::randomSpec(seed), gopts);

    exe::SectionStore store;
    edit::BatchOptions bopts;
    bopts.model = &m;
    bopts.store = &store;

    edit::BatchRewriter rw(orig, bopts);
    edit::BatchResult batch = rw.rewriteAll(kAllKinds);
    edit::BatchResult eager =
        edit::eagerRewriteAll(orig, kAllKinds, bopts);

    // --- Byte identity: the COW path must be invisible in output.
    ASSERT_EQ(batch.variants.size(), kAllKinds.size());
    ASSERT_EQ(eager.variants.size(), kAllKinds.size());
    EXPECT_TRUE(batch.work.text == eager.work.text);
    EXPECT_TRUE(batch.work.data == eager.work.data);
    for (size_t k = 0; k < kAllKinds.size(); ++k) {
        SCOPED_TRACE("variant " + std::to_string(k));
        const exe::Executable &b = batch.variants[k].image;
        const exe::Executable &e = eager.variants[k].image;
        ASSERT_TRUE(b.text == e.text);
        ASSERT_TRUE(b.data == e.data);
        EXPECT_EQ(b.entry, e.entry);
        EXPECT_EQ(b.bssBytes, e.bssBytes);
    }

    // The identity variant reproduces the input bit for bit, and the
    // work image is the input plus counter bss.
    EXPECT_TRUE(batch.variants[0].image.text == orig.text);
    EXPECT_TRUE(batch.work.text == orig.text);

    // --- Behaviour: every variant runs to the original's answer;
    // batch and eager builds of a variant retire identical traces
    // and identical full final state (same layout, so even scratch
    // registers must agree).
    VariantRun r0 = runImage(orig, nullptr);
    ASSERT_TRUE(r0.result.exited);

    std::vector<VariantRun> bruns, eruns;
    for (size_t k = 0; k < kAllKinds.size(); ++k) {
        SCOPED_TRACE("variant " + std::to_string(k));
        bruns.push_back(runImage(batch.variants[k].image, &store));
        eruns.push_back(runImage(eager.variants[k].image, nullptr));
        const VariantRun &b = bruns.back();
        const VariantRun &e = eruns.back();
        ASSERT_TRUE(b.result.exited);
        ASSERT_TRUE(e.result.exited);
        EXPECT_EQ(b.traceHash, e.traceHash);
        EXPECT_EQ(b.result.instructions, e.result.instructions);
        EXPECT_TRUE(b.emu->snapshot().equalTo(e.emu->snapshot(),
                                              /*ignoreScratch=*/false));
        EXPECT_EQ(b.result.exitCode, r0.result.exitCode);
        EXPECT_EQ(b.result.output, r0.result.output);
    }

    // --- qpt counters: the three counter-carrying variants agree on
    // every block count, batch equals eager, and the edge profile
    // reconstructs the same block counts.
    auto counts = [&](const VariantRun &vr,
                      const qpt::ProfilePlan &plan) {
        return qpt::readCounts(*vr.emu, plan);
    };
    auto slow = counts(bruns[1], batch.profilePlan);
    EXPECT_EQ(slow, counts(bruns[3], batch.profilePlan));
    EXPECT_EQ(slow, counts(bruns[4], batch.profilePlan));
    EXPECT_EQ(slow, counts(bruns[5], batch.profilePlan));
    EXPECT_EQ(slow, counts(eruns[1], eager.profilePlan));
    auto edge_counts = qpt::readEdgeCounts(*bruns[2].emu,
                                           batch.edgePlan,
                                           batch.routines);
    EXPECT_EQ(qpt::blockCountsFromEdges(edge_counts, batch.edgePlan,
                                        batch.routines),
              slow);

    // --- Sharing proof: across the work image and all six
    // variants, at least 80% of page references resolve to shared
    // pages, and every variant's data pages are the work image's
    // pages by pointer identity.
    std::vector<const exe::Executable *> images = {&batch.work};
    for (const edit::BatchVariant &v : batch.variants)
        images.push_back(&v.image);
    exe::ShareStats ss = exe::shareStats(images);
    EXPECT_GE(ss.sharedFrac(), 0.8)
        << "shared " << ss.sharedRefs << "/" << ss.totalRefs
        << " refs over " << ss.uniqueChunks << " pages";
    for (const edit::BatchVariant &v : batch.variants)
        EXPECT_EQ(v.image.data.chunkRefs(),
                  batch.work.data.chunkRefs());
    // Identity text interned onto the work image's text pages...
    EXPECT_EQ(batch.variants[0].image.text.chunkRefs(),
              batch.work.text.chunkRefs());
    // ...so the two share one memoized decode in the store.
    EXPECT_EQ(
        sim::Emulator::decodeText(batch.variants[0].image, store).get(),
        sim::Emulator::decodeText(batch.work, store).get());

    // --- Simulator engines: every dispatch/hold/memo combination is
    // bit-equal on the original program and on the locally scheduled
    // variant (different code layout, same seeds).
    engineDifferential(orig, m);
    engineDifferential(batch.variants[3].image, m);
}

// 64 seeds, split so a failure narrows to a quarter of the space
// before the SCOPED_TRACE seed pins it exactly.
TEST(DifferentialFuzz, Seeds00To15)
{
    for (uint64_t s = 0; s < 16; ++s)
        fuzzSeed(s);
}
TEST(DifferentialFuzz, Seeds16To31)
{
    for (uint64_t s = 16; s < 32; ++s)
        fuzzSeed(s);
}
TEST(DifferentialFuzz, Seeds32To47)
{
    for (uint64_t s = 32; s < 48; ++s)
        fuzzSeed(s);
}
TEST(DifferentialFuzz, Seeds48To63)
{
    for (uint64_t s = 48; s < 64; ++s)
        fuzzSeed(s);
}

} // namespace
} // namespace eel
