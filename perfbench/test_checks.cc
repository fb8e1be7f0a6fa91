/**
 * @file
 * Shows that every output check of the benchmark holds on real
 * outputs and fails on a corrupted one. Builds with the benchmark
 * (perfbench/build.cmake); `python3 perfbench/run.py --selftest`
 * runs it. Exit status 0 = every case behaved.
 */

#include <cstdio>
#include <map>

#include "checks.hh"
#include "src/eel/batch.hh"
#include "src/machine/model.hh"
#include "src/obs/histogram.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/shard.hh"
#include "src/sim/timing.hh"
#include "src/support/thread_pool.hh"
#include "src/svc/client.hh"
#include "src/svc/server.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

using namespace eel;
using namespace perfbench;

namespace {

int failures = 0;

/** The check must hold on the real value and fail on the corrupt one. */
void
expect(const char *name, const std::string &onReal,
       const std::string &onCorrupt)
{
    bool ok = onReal.empty() && !onCorrupt.empty();
    std::printf("%-24s %s", name, ok ? "ok" : "FAILED");
    if (!onReal.empty())
        std::printf("  (real input rejected: %s)", onReal.c_str());
    if (onCorrupt.empty())
        std::printf("  (corrupted input accepted)");
    std::printf("\n");
    failures += !ok;
}

} // namespace

int
main()
{
    const machine::MachineModel &m =
        machine::MachineModel::builtin("ultrasparc");
    workload::BenchmarkSpec spec = workload::spec95("ultrasparc")[0];
    workload::GenOptions g;
    g.scale = 0.02;
    g.machine = &m;
    exe::Executable x = workload::generate(spec, g);

    // Rewriting and timing checks on one program.
    support::ThreadPool pool(1);
    edit::BatchOptions bo;
    bo.model = &m;
    bo.pool = &pool;
    edit::BatchRewriter rw(x, bo);
    edit::BatchResult batch = rw.rewriteAll(
        {edit::VariantKind::SlowProfile, edit::VariantKind::Sched});
    const exe::Executable &inst = batch.variants[0].image;
    BlockProfile ref = profileBlocks(x, batch.routines);

    sim::TimedRun base = sim::timedRun(x, m);
    sim::Emulator emu(inst);
    sim::TimingSim timing(m);
    sim::RunResult instResult = emu.run(timing);
    Counts counters = qpt::readCounts(emu, batch.profilePlan);

    sim::RunResult badOutput = instResult;
    badOutput.output += "!";
    expect("sameBehaviour", check::sameBehaviour("inst", ref.result, instResult),
           check::sameBehaviour("inst", ref.result, badOutput));
    sim::RunResult badExit = instResult;
    badExit.exitCode ^= 1;
    expect("sameBehaviour/exit", "",
           check::sameBehaviour("inst", ref.result, badExit));

    Counts badCounts = counters;
    badCounts.back().back() += 1;
    expect("countersMatch", check::countersMatch("inst", counters, ref.perBlock),
           check::countersMatch("inst", badCounts, ref.perBlock));

    expect("issueBound",
           check::issueBound("base", base.cycles, base.result.instructions,
                             m.issueWidth()),
           check::issueBound("base", base.result.instructions / m.issueWidth() - 1,
                             base.result.instructions, m.issueWidth()));

    expect("instrumentationCosts",
           check::instrumentationCosts("x", timing.cycles(), base.cycles),
           check::instrumentationCosts("x", base.cycles, timing.cycles()));

    sim::ShardOptions so;
    so.interval = 4096;
    sim::ShardedRun sharded = sim::runSharded(x, m, so);
    expect("shardedEqualsSerial",
           check::shardedEqualsSerial("x", sharded.cycles, base.cycles),
           check::shardedEqualsSerial("x", sharded.cycles + 1, base.cycles));

    // Service checks against a live server.
    svc::ServerConfig scfg;
    scfg.threads = 1;
    svc::Server server(scfg);
    server.start();
    std::map<std::string, uint64_t> sent;
    std::string bytes = x.saveBytes();
    {
        svc::Client c = svc::Client::dialTcp(server.port());
        svc::SubmitReply first = c.submit(bytes).value;
        svc::SubmitReply again = c.submit(bytes).value;
        sent["svc.op.submit_xef"] = 2;
        uint64_t id = check::fnv1a64(bytes);
        uint32_t pages = check::pagesOf(x);
        expect("fnv1a64", id == svc::contentId(bytes) ? "" : "differs",
               check::fnv1a64(bytes + "x") == id ? "" : "differs");
        svc::SubmitReply badId = first;
        badId.imageId ^= 1;
        expect("submitReply/id", check::submitReply(first, id, pages, false),
               check::submitReply(badId, id, pages, false));
        svc::SubmitReply badPages = first;
        badPages.pages += 1;
        expect("submitReply/pages", "",
               check::submitReply(badPages, id, pages, false));
        svc::SubmitReply missed = again;
        missed.pageHits -= 1;
        expect("submitReply/resubmit", check::submitReply(again, id, pages, true),
               check::submitReply(missed, id, pages, true));

        svc::RewriteRequest rq;
        rq.imageId = id;
        rq.kind = uint8_t(edit::VariantKind::Sched);
        std::string reply = c.rewrite(rq).value.xef;
        sent["svc.op.rewrite"] = 1;
        exe::SectionStore store;
        exe::Executable in = exe::Executable::loadBytes(bytes);
        store.internCounted(in);
        edit::BatchOptions dbo;
        dbo.model = &m;
        dbo.pool = &pool;
        dbo.store = &store;
        std::string direct = edit::BatchRewriter(in, dbo)
                                 .rewriteAll({edit::VariantKind::Sched})
                                 .variants.at(0)
                                 .image.saveBytes();
        std::string badReply = reply;
        badReply[badReply.size() / 2] ^= 1;
        expect("rewriteReply", check::rewriteReply("sched", reply, direct),
               check::rewriteReply("sched", badReply, direct));

        svc::SimulateRequest sq;
        sq.imageId = id;
        svc::SimulateReply sim = c.simulate(sq).value;
        sent["svc.op.simulate"] = 1;
        auto simCheck = [&](const svc::SimulateReply &r) {
            return check::simulateReply("x", r, base.result.instructions,
                                        base.cycles, base.result.exitCode,
                                        base.result.exited);
        };
        svc::SimulateReply badSim = sim;
        badSim.cycles += 1;
        expect("simulateReply", simCheck(sim), simCheck(badSim));
    }
    server.stop();

    std::map<std::string, uint64_t> counted;
    for (const obs::HistogramSnapshot &h : obs::histogramsSnapshot())
        if (h.name.rfind("svc.op.", 0) == 0 && h.count)
            counted[h.name] = h.count;
    std::map<std::string, uint64_t> badSent = sent;
    badSent["svc.op.rewrite"] += 1;
    expect("opCounts", check::opCounts(counted, sent),
           check::opCounts(counted, badSent));
    expect("serverP50", check::serverP50(1.0, 1.1, 0.032),
           check::serverP50(1.2, 1.1, 0.032));

    std::printf("%s\n", failures ? "FAILED" : "all checks behave");
    return failures ? 1 : 0;
}
