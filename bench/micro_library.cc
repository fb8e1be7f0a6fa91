/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths:
 * instruction decode, pipeline_stalls, list scheduling, SADL
 * analysis, and full emulation+timing throughput. These guard the
 * tooling costs — an executable editor that takes minutes to
 * instrument a program would not have shipped in 1996 either.
 */

#include <benchmark/benchmark.h>

#include "src/eel/editor.hh"
#include "src/isa/builder.hh"
#include "src/machine/pipeline.hh"
#include "src/qpt/profiler.hh"
#include "src/sadl/timing.hh"
#include "src/sched/scheduler.hh"
#include "src/sim/timing.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

namespace {

using namespace eel;
namespace b = isa::build;

exe::Executable &
benchProgram()
{
    static exe::Executable x = [] {
        workload::BenchmarkSpec spec = workload::spec95("ultrasparc")[5];
        workload::GenOptions g;
        g.scale = 0.05;
        g.machine = &machine::MachineModel::builtin("ultrasparc");
        return workload::generate(spec, g);
    }();
    return x;
}

void
BM_Decode(benchmark::State &state)
{
    const exe::Executable &x = benchProgram();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(isa::decode(x.text[i]));
        i = (i + 1) % x.text.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decode);

void
BM_Encode(benchmark::State &state)
{
    isa::Instruction in = b::rri(isa::Op::Add, 8, 9, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(isa::encode(in));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Encode);

void
BM_PipelineStalls(benchmark::State &state)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    machine::PipelineState st(m);
    isa::Instruction seq[4] = {
        b::memi(isa::Op::Ld, 8, 16, 0),
        b::rri(isa::Op::Add, 9, 8, 1),
        b::fp3(isa::Op::Fmuld, 4, 0, 2),
        b::memi(isa::Op::St, 9, 16, 4),
    };
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(st.stalls(seq[i & 3]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipelineStalls);

void
BM_PipelineIssue(benchmark::State &state)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    machine::PipelineState st(m);
    isa::Instruction seq[4] = {
        b::memi(isa::Op::Ld, 8, 16, 0),
        b::rri(isa::Op::Add, 9, 8, 1),
        b::fp3(isa::Op::Fmuld, 4, 0, 2),
        b::memi(isa::Op::St, 9, 16, 4),
    };
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(st.issue(seq[i & 3]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PipelineIssue);

void
BM_ScheduleBlock(benchmark::State &state)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    sched::ListScheduler sch(m);
    sched::InstSeq block;
    auto push = [&](isa::Instruction in, bool instr = false) {
        sched::InstRef r;
        r.inst = in;
        r.isInstrumentation = instr;
        block.push_back(r);
    };
    push(b::sethi(6, 0x500000), true);
    push(b::memi(isa::Op::Ld, 7, 6, 0), true);
    push(b::rri(isa::Op::Add, 7, 7, 1), true);
    push(b::memi(isa::Op::St, 7, 6, 0), true);
    for (int i = 0; i < int(state.range(0)); ++i)
        push(b::rri(isa::Op::Add, 8 + (i % 6), 8 + ((i + 1) % 6), 1));
    push(b::cmpi(9, 0));
    push(b::bicc(isa::cond::ne, 8));
    push(b::nop());
    for (auto _ : state)
        benchmark::DoNotOptimize(sch.scheduleBlock(block));
    state.SetItemsProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_ScheduleBlock)->Arg(4)->Arg(16)->Arg(48);

void
BM_SadlAnalyze(benchmark::State &state)
{
    std::string src(machine::builtinSadlSource("ultrasparc"));
    for (auto _ : state)
        benchmark::DoNotOptimize(sadl::analyze(src));
}
BENCHMARK(BM_SadlAnalyze);

void
BM_EmulatorRun(benchmark::State &state)
{
    const exe::Executable &x = benchProgram();
    for (auto _ : state) {
        sim::Emulator emu(x);
        sim::RunResult r = emu.run();
        benchmark::DoNotOptimize(r.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(r.instructions));
    }
}
BENCHMARK(BM_EmulatorRun);

void
BM_TimedRun(benchmark::State &state)
{
    const exe::Executable &x = benchProgram();
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    for (auto _ : state) {
        sim::TimedRun r = sim::timedRun(x, m);
        benchmark::DoNotOptimize(r.cycles);
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(r.result.instructions));
    }
}
BENCHMARK(BM_TimedRun);

/** BM_TimedRun with the trace memo pinned off: the difference is
 *  the memo's net win on a loop-dominated stream (key build + apply
 *  per trace vs one issue walk per instruction). */
void
BM_TimedRunNoMemo(benchmark::State &state)
{
    const exe::Executable &x = benchProgram();
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    sim::TimingSim::Config cfg;
    cfg.traceMemo = false;
    for (auto _ : state) {
        sim::TimedRun r = sim::timedRun(x, m, cfg);
        benchmark::DoNotOptimize(r.cycles);
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(r.result.instructions));
    }
}
BENCHMARK(BM_TimedRunNoMemo);

// --- Per-engine microbenches. The Minst/s aggregates above mix
// dispatch, hazard checks and bookkeeping; these isolate one engine
// each so a future regression can be attributed below the aggregate.

/** Hold-check-only loop: pipeline_stalls on an unstalled add stream
 *  (the no-stall segment check is the whole cost — no commit, no
 *  walk). */
void
BM_HoldCheck(benchmark::State &state)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    machine::PipelineState st(m);
    machine::ResolvedVariant rv = machine::ResolvedVariant::resolve(
        m, b::rri(isa::Op::Add, 8, 9, 42));
    for (auto _ : state)
        benchmark::DoNotOptimize(st.stalls(rv));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HoldCheck);

/** Full issue loop (check + commit) on the mixed stalling stream
 *  BM_PipelineIssue uses, pre-resolved. */
void
BM_IssueResolved(benchmark::State &state)
{
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    machine::PipelineState st(m);
    isa::Instruction seq[4] = {
        b::memi(isa::Op::Ld, 8, 16, 0),
        b::rri(isa::Op::Add, 9, 8, 1),
        b::fp3(isa::Op::Fmuld, 4, 0, 2),
        b::memi(isa::Op::St, 9, 16, 4),
    };
    machine::ResolvedVariant rvs[4];
    for (int i = 0; i < 4; ++i)
        rvs[i] = machine::ResolvedVariant::resolve(m, seq[i]);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(st.issue(rvs[i & 3]));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IssueResolved);

/** Dispatch-only loop: functional emulation into a null sink, per
 *  dispatch engine. The two differ only in how the interpreter
 *  reaches the next handler. */
void
dispatchBench(benchmark::State &state,
              sim::Emulator::Config::Dispatch d)
{
    const exe::Executable &x = benchProgram();
    sim::Emulator::Config cfg;
    cfg.dispatch = d;
    auto text = sim::Emulator::decodeText(x);
    for (auto _ : state) {
        sim::Emulator emu(x, cfg, text);
        sim::RunResult r = emu.run();
        benchmark::DoNotOptimize(r.instructions);
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(r.instructions));
    }
}
void
BM_DispatchThreaded(benchmark::State &state)
{
    dispatchBench(state, sim::Emulator::Config::Dispatch::Threaded);
}
BENCHMARK(BM_DispatchThreaded);
void
BM_DispatchSwitch(benchmark::State &state)
{
    dispatchBench(state, sim::Emulator::Config::Dispatch::Switch);
}
BENCHMARK(BM_DispatchSwitch);

void
BM_InstrumentAndSchedule(benchmark::State &state)
{
    const exe::Executable &x = benchProgram();
    const auto &m = machine::MachineModel::builtin("ultrasparc");
    for (auto _ : state) {
        auto routines = edit::buildRoutines(x);
        exe::Executable work = x;
        qpt::ProfilePlan plan = qpt::makePlan(work, routines);
        edit::EditOptions so;
        so.schedule = true;
        so.model = &m;
        exe::Executable out =
            edit::rewrite(work, routines, plan.plan, so);
        benchmark::DoNotOptimize(out.text.size());
        state.SetItemsProcessed(state.items_processed() +
                                int64_t(x.text.size()));
    }
}
BENCHMARK(BM_InstrumentAndSchedule);

} // namespace

BENCHMARK_MAIN();
