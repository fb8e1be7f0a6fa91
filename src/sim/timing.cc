#include "src/sim/timing.hh"

#include <algorithm>

#include "src/obs/metrics.hh"
#include "src/obs/trace.hh"
#include "src/support/logging.hh"

namespace eel::sim {

ICache::ICache(Config cfg) : cfg(cfg)
{
    if (cfg.lineBytes == 0 || cfg.assoc == 0 ||
        cfg.bytes % (cfg.lineBytes * cfg.assoc) != 0)
        fatal("icache: inconsistent geometry");
    numSets = cfg.bytes / (cfg.lineBytes * cfg.assoc);
    tags.assign(static_cast<size_t>(numSets) * cfg.assoc, 0);
    valid.assign(static_cast<size_t>(numSets) * cfg.assoc, 0);
    lastUse.assign(static_cast<size_t>(numSets) * cfg.assoc, 0);
}

bool
ICache::access(uint32_t addr)
{
    ++_accesses;
    uint32_t line = addr / cfg.lineBytes;
    uint32_t set = line % numSets;
    uint32_t tag = line / numSets;
    size_t base = static_cast<size_t>(set) * cfg.assoc;

    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        if (valid[base + w] && tags[base + w] == tag) {
            lastUse[base + w] = _accesses;
            return false;
        }
    }
    ++_misses;
    // Fill the LRU (or first invalid) way.
    uint32_t victim = 0;
    uint64_t oldest = ~uint64_t(0);
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        if (!valid[base + w]) {
            victim = w;
            break;
        }
        if (lastUse[base + w] < oldest) {
            oldest = lastUse[base + w];
            victim = w;
        }
    }
    valid[base + victim] = 1;
    tags[base + victim] = tag;
    lastUse[base + victim] = _accesses;
    return true;
}

TimingSim::TimingSim(const machine::MachineModel &model)
    : TimingSim(model, Config{})
{}

TimingSim::TimingSim(const machine::MachineModel &model, Config cfg)
    : model(model), cfg(cfg), state(model),
      hist(model.issueWidth() + 2, 0)
{
    if (this->cfg.takenBranchPenalty == Config::fromModel)
        this->cfg.takenBranchPenalty = model.branchPenalty();
    if (cfg.useICache)
        _icache = std::make_unique<ICache>(cfg.icache);
    // The icache is deliberately outside State (its state is
    // address-history dependent, not translation-invariant),
    // so the memo is forced off under it rather than being wrong.
    memoOn = this->cfg.traceMemo && !cfg.useICache;
    if (memoOn) {
        bufPcs.reserve(kTraceMax);
        bufInsts.reserve(kTraceMax);
        bufJumps.reserve(64);
    }
}

void
TimingSim::captureInto(State &out) const
{
    const uint64_t f = state.frontier();
    state.captureRebased(out.pipe);
    out.cyclesLead = _cycles > f ? _cycles - f : 0;
    out.prevPc = prevPc;
    out.havePrev = havePrev;
    out.curStartLead = haveCur ? f - curStart : 0;
    out.curCount = haveCur ? curCount : 0;
    out.haveCur = haveCur;
}

void
TimingSim::jumpTo(const State &s, uint64_t frontierDelta)
{
    state.applyRebased(s.pipe, frontierDelta);
    const uint64_t f = state.frontier();
    _cycles = f + s.cyclesLead;
    prevPc = s.prevPc;
    havePrev = s.havePrev;
    curStart = f - s.curStartLead;
    curCount = s.curCount;
    haveCur = s.haveCur;
}

TimingSim::State
TimingSim::captureState() const
{
    sync();
    State s;
    captureInto(s);
    return s;
}

void
TimingSim::applyState(const State &s)
{
    sync();
    state.reset();
    jumpTo(s, 0);
}

void
TimingSim::flushTrace()
{
    const size_t n = bufPcs.size();
    if (!n)
        return;

    // Entry key: everything that determines what replaying the buffer
    // does. The pc stream (start + discontinuities) fixes the
    // instruction sequence and intra-trace bubble pattern; the entry
    // State fixes every stall and the cycle, fetch-redirect and
    // histogram bookkeeping. All its cycle values are frontier-
    // relative, so recurrences at different absolute cycles match.
    const uint64_t f0 = state.frontier();
    keyScratch.clear();
    keyScratch.push_back(bufPcs[0]);
    keyScratch.push_back(n);
    keyScratch.insert(keyScratch.end(), bufJumps.begin(),
                      bufJumps.end());
    captureInto(stateScratch);

    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (uint64_t v : keyScratch)
        mix(v);
    const State &st = stateScratch;
    for (uint64_t v : {st.cyclesLead, uint64_t(st.prevPc),
                       uint64_t(st.havePrev), st.curStartLead,
                       uint64_t(st.curCount), uint64_t(st.haveCur)})
        mix(v);
    for (uint64_t v : st.pipe.rowAt)
        mix(v);
    for (int16_t v : st.pipe.rowFree)
        mix(static_cast<uint16_t>(v));
    for (uint32_t v : st.pipe.regs)
        mix(v);
    for (uint64_t v : st.pipe.regVals)
        mix(v);

    std::vector<MemoEntry> &bucket = memoTable[h];
    for (const MemoEntry &e : bucket) {
        if (e.keyHead == keyScratch && e.entry == stateScratch) {
            applyTrace(e);
            ++memoHits;
            bufPcs.clear();
            bufInsts.clear();
            bufJumps.clear();
            return;
        }
    }

    // Miss: issue the buffer directly and record the deltas it
    // produced, so the next recurrence of this entry state can skip
    // straight to the end state.
    ++memoMisses;
    const uint64_t stalls0 = _stallCycles;
    const obs::StallBreakdown bd0 = _breakdown;
    histScratch = hist;
    for (size_t i = 0; i < n; ++i)
        issueOne(bufPcs[i], bufInsts[i]);

    if (memoEntries < kMemoMaxEntries) {
        MemoEntry e;
        e.keyHead = keyScratch;
        e.entry = stateScratch;
        captureInto(e.end);
        e.frontierDelta = state.frontier() - f0;
        e.dInsts = n;
        e.dStalls = _stallCycles - stalls0;
        e.dBreakdown = _breakdown;
        e.dBreakdown -= bd0;
        e.histDelta.resize(hist.size());
        for (size_t k = 0; k < hist.size(); ++k)
            e.histDelta[k] = hist[k] - histScratch[k];
        bucket.push_back(std::move(e));
        ++memoEntries;
    }
    bufPcs.clear();
    bufInsts.clear();
    bufJumps.clear();
}

void
TimingSim::applyTrace(const MemoEntry &e)
{
    jumpTo(e.end, e.frontierDelta);
    _insts += e.dInsts;
    _stallCycles += e.dStalls;
    _breakdown += e.dBreakdown;
    for (size_t k = 0; k < hist.size(); ++k)
        hist[k] += e.histDelta[k];
}

void
TimingSim::flushPipelineMetrics() const
{
    sync();
    static obs::Metric mHits("memo.trace_hits",
                             obs::MetricKind::Counter);
    static obs::Metric mMisses("memo.trace_misses",
                               obs::MetricKind::Counter);
    if (memoHits)
        mHits.add(memoHits);
    if (memoMisses)
        mMisses.add(memoMisses);
    memoHits = 0;
    memoMisses = 0;
}

std::vector<uint64_t>
TimingSim::issueHistogram() const
{
    sync();
    std::vector<uint64_t> out = hist;
    if (haveCur) {
        unsigned bucket = std::min<unsigned>(curCount,
                                             model.issueWidth() + 1);
        out[bucket] += 1;
    }
    return out;
}

TimedRun
timedRun(const exe::Executable &x, const machine::MachineModel &model,
         TimingSim::Config cfg, Emulator::Config emu_cfg)
{
    return timedRun(x, model, RunBudget{}, cfg, emu_cfg);
}

TimedRun
timedRun(const exe::Executable &x, const machine::MachineModel &model,
         const RunBudget &budget, TimingSim::Config cfg,
         Emulator::Config emu_cfg)
{
    obs::Span span("sim.timedRun");
    const uint64_t cap = emu_cfg.maxInstructions;
    const uint64_t slice = budget.cancel && budget.sliceInstructions
                               ? budget.sliceInstructions
                               : cap;
    Emulator emu = budget.decodeStore
                       ? Emulator(x, emu_cfg,
                                  Emulator::decodeText(
                                      x, *budget.decodeStore))
                       : Emulator(x, emu_cfg);
    TimingSim timing(model, cfg);
    TimedRun out;
    while (!emu.finished() && emu.retired() < cap) {
        // Templated run: TimingSim is final, so retire() dispatches
        // directly and inlines into the interpreter loop.
        RunResult r =
            emu.run(timing, std::min(slice, cap - emu.retired()));
        out.result.instructions += r.instructions;
        out.result.output += r.output;
        if (emu.finished()) {
            out.result.exited = true;
            out.result.exitCode = r.exitCode;
            break;
        }
        if (budget.cancel && budget.cancel()) {
            out.cancelled = true;
            break;
        }
    }
    out.cycles = timing.cycles();
    out.seconds = timing.seconds();
    out.ipc = timing.ipc();
    out.issueHistogram = timing.issueHistogram();
    if (timing.icache()) {
        out.icacheMisses = timing.icache()->misses();
        out.icacheAccesses = timing.icache()->accesses();
    }
    out.stallBreakdown = timing.stallBreakdown();
    out.stallCycles = timing.stallCycles();
    timing.flushPipelineMetrics();
    return out;
}

} // namespace eel::sim
