/**
 * @file
 * Timing simulation of the retired instruction stream through a
 * SADL-derived pipeline model. This is the "hardware" our benchmarks
 * run on: the execution pipelines are exactly the model of §3.2 that
 * the scheduler optimizes against, plus two effects the paper notes
 * the Spawn models deliberately omit — taken-branch fetch redirects
 * and (optionally) instruction cache misses. Those asymmetries are
 * the simulator's analogue of the gap between the scheduler's model
 * and the real SuperSPARC/UltraSPARC.
 */

#ifndef EEL_SIM_TIMING_HH
#define EEL_SIM_TIMING_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/machine/pipeline.hh"
#include "src/sim/emulator.hh"

namespace eel::sim {

/** Direct-mapped / set-associative instruction cache model. */
class ICache
{
  public:
    struct Config
    {
        uint32_t bytes = 16 * 1024;
        uint32_t lineBytes = 32;
        uint32_t assoc = 1;
    };

    explicit ICache(Config cfg);

    /** Access the line containing addr; true on miss. */
    bool access(uint32_t addr);

    uint64_t accesses() const { return _accesses; }
    uint64_t misses() const { return _misses; }
    double
    missRate() const
    {
        return _accesses ? double(_misses) / double(_accesses) : 0.0;
    }

  private:
    Config cfg;
    uint32_t numSets;
    std::vector<uint32_t> tags;     ///< numSets * assoc
    std::vector<uint8_t> valid;
    std::vector<uint64_t> lastUse;  ///< LRU stamps
    uint64_t _accesses = 0;
    uint64_t _misses = 0;
};

/**
 * TraceSink that issues every retired instruction into a
 * PipelineState and accumulates machine cycles.
 *
 * `final` so Emulator::run<TimingSim> statically binds retire(). A
 * TimingSim instance caches the machine-model timing variant per
 * text address, so it must observe a single executable image for
 * its whole lifetime (timedRun constructs one per run).
 */
class TimingSim final : public TraceSink
{
  public:
    struct Config
    {
        /** Fetch bubble after any control-flow discontinuity;
         *  defaults to the model's branchPenalty() when left at
         *  the fromModel sentinel. */
        static constexpr unsigned fromModel = ~0u;
        unsigned takenBranchPenalty = fromModel;
        /** Model an instruction cache (nullopt = perfect cache). */
        bool useICache = false;
        ICache::Config icache;
        unsigned icacheMissPenalty = 6;
        /** Attribute every stall/bubble cycle to a StallReason
         *  (stallBreakdown()). Off by default: the attribution
         *  branch stays out of the per-retire hot path. */
        bool collectStalls = false;
        /**
         * Memoize the timing of repeated instruction traces. Retires
         * are buffered into short straight-line-biased traces; when a
         * trace recurs with an identical entry State (see State), its
         * recorded cycle/stall/histogram deltas are applied instead
         * of re-issuing every instruction. Exact — the replay path IS
         * the direct path, and equal States time any future stream
         * identically — so cycles, stall attribution and histograms
         * are bit-identical with the memo on or off (the differential
         * fuzz oracle pins this). Ignored (forced off) under
         * useICache: cache state is deliberately outside State.
         */
        bool traceMemo = true;
    };

    explicit TimingSim(const machine::MachineModel &model);
    TimingSim(const machine::MachineModel &model, Config cfg);

    /** Defined inline: this is the hot per-retire path and inlines
     *  into the emulator's templated run loop. With the trace memo
     *  on, a retire is just an append to the pending trace buffer;
     *  flushTrace() settles the buffer against the memo table. */
    void
    retire(uint32_t pc, const isa::Instruction &inst) override
    {
        if (memoOn) {
            bufferRetire(pc, inst);
            return;
        }
        issueOne(pc, inst);
    }

    /** Total cycles consumed so far. */
    uint64_t
    cycles() const
    {
        sync();
        return _cycles;
    }
    uint64_t
    instructions() const
    {
        sync();
        return _insts;
    }
    double
    ipc() const
    {
        sync();
        return _cycles ? double(_insts) / double(_cycles) : 0.0;
    }
    /** Seconds at the model's clock rate. */
    double
    seconds() const
    {
        sync();
        return double(_cycles) / (model.clockMhz() * 1e6);
    }

  private:
    /**
     * The direct per-retire path: fetch bubbles, icache, resolved
     * plan lookup, in-order issue, histogram grouping. With the
     * trace memo on this is also the miss/replay path, which is what
     * makes the memo exact: a recorded delta is just this function's
     * effect, re-applied.
     */
    void
    issueOne(uint32_t pc, const isa::Instruction &inst)
    {
        // A control-flow discontinuity redirects fetch.
        if (havePrev && pc != prevPc + 4 && cfg.takenBranchPenalty) {
            state.fetchBubble(cfg.takenBranchPenalty);
            if (cfg.collectStalls) {
                _breakdown.add(obs::StallReason::BranchRedirect,
                               cfg.takenBranchPenalty);
                _stallCycles += cfg.takenBranchPenalty;
            }
        }
        prevPc = pc;
        havePrev = true;

        if (_icache && _icache->access(pc) && cfg.icacheMissPenalty) {
            state.fetchBubble(cfg.icacheMissPenalty);
            if (cfg.collectStalls) {
                _breakdown.add(obs::StallReason::ICacheMiss,
                               cfg.icacheMissPenalty);
                _stallCycles += cfg.icacheMissPenalty;
            }
        }

        uint32_t word = (pc - exe::textBase) / 4;
        if (word >= planByWord.size())
            planByWord.resize(word + 1);
        machine::ResolvedVariant &rv = planByWord[word];
        if (!rv.variant)
            rv = machine::ResolvedVariant::resolve(model, inst);
        machine::PipelineState::IssueResult r = state.issue(
            rv, cfg.collectStalls ? &_breakdown : nullptr);
        if (cfg.collectStalls)
            _stallCycles += r.stalls;
        ++_insts;
        _cycles = std::max(_cycles, r.doneCycle);

        // Issue-width histogram over entry cycles (monotone).
        if (!haveCur) {
            haveCur = true;
            curStart = r.startCycle;
            curCount = 1;
        } else if (r.startCycle == curStart) {
            ++curCount;
        } else {
            unsigned bucket = std::min<unsigned>(
                curCount, model.issueWidth() + 1);
            hist[bucket] += 1;
            hist[0] += r.startCycle - curStart - 1;
            curStart = r.startCycle;
            curCount = 1;
        }
    }

    /**
     * Append one retire to the pending trace buffer. Traces are cut
     * at control-flow discontinuities once they reach kTraceTarget
     * instructions (loop-shaped workloads then produce a small set of
     * recurring multi-block traces), with a hard cap for straight
     * runs. The only work per retire is a compare and three appends;
     * everything else happens once per trace in flushTrace().
     */
    void
    bufferRetire(uint32_t pc, const isa::Instruction &inst)
    {
        if (!bufPcs.empty() && pc != bufPcs.back() + 4) {
            if (bufPcs.size() >= kTraceTarget)
                flushTrace();
            else
                bufJumps.push_back(uint64_t(bufPcs.size()) << 32 | pc);
        }
        bufPcs.push_back(pc);
        bufInsts.push_back(inst);
        if (bufPcs.size() >= kTraceMax)
            flushTrace();
    }

    /**
     * Settle any pending trace buffer so the observable state is
     * exact. Every public reader calls this, which is what keeps the
     * memo invisible: any flush pattern (including the forced cuts
     * sync itself causes) produces bit-identical outputs, because a
     * memo hit applies exactly what replaying the buffer would.
     */
    void
    sync() const
    {
        if (!bufPcs.empty())
            const_cast<TimingSim *>(this)->flushTrace();
    }

  public:
    /**
     * Issue-width histogram: hist[k] = cycles in which k
     * instructions entered the pipeline (k = 0 .. issueWidth).
     * Regenerates the paper's §1 motivation numbers.
     */
    std::vector<uint64_t> issueHistogram() const;

    const ICache *icache() const { return _icache.get(); }

    /**
     * Per-reason stall attribution (only populated when
     * cfg.collectStalls). Invariant: stallBreakdown().total()
     * == stallCycles() — every attributed cycle is a stall cycle
     * and vice versa.
     */
    const obs::StallBreakdown &
    stallBreakdown() const
    {
        sync();
        return _breakdown;
    }
    uint64_t
    stallCycles() const
    {
        sync();
        return _stallCycles;
    }

    /**
     * Everything that determines how this stream's timing continues,
     * rebased to the pipeline frontier: the pipeline capture
     * (PipelineState::captureRebased), the cycle accumulator's and
     * the current issue group's leads over the frontier, and the
     * fetch-redirect state. Two sims with equal timing parts
     * (sameTiming) produce identical cycle/stall/breakdown deltas for
     * any subsequent stream, even from different absolute cycle
     * origins; the issue-group fields add the issue-width histogram's
     * grouping. Counters (instructions, stalls, histogram totals) are
     * deliberately excluded — callers measure deltas. Does not
     * capture icache contents; the trace memo, the sharded stitch and
     * the result cache only use it for the perfect-cache config.
     */
    struct State
    {
        machine::PipelineState::RebasedPipe pipe;
        uint64_t cyclesLead = 0;    ///< cycles - frontier
        uint32_t prevPc = 0;
        bool havePrev = false;
        uint64_t curStartLead = 0;  ///< frontier - issue group start
        unsigned curCount = 0;      ///< instructions in that group
        bool haveCur = false;

        bool operator==(const State &) const = default;

        /** Equal in everything but the issue-group fields: what the
         *  sharded stitch compares (the histogram is documented as
         *  boundary-approximate under sharding). */
        bool
        sameTiming(const State &o) const
        {
            return pipe == o.pipe && cyclesLead == o.cyclesLead &&
                   prevPc == o.prevPc && havePrev == o.havePrev;
        }
    };
    State captureState() const;
    /**
     * Continue from s (same machine model and executable image) on a
     * reset pipeline: the frontier restarts at cycle 0, which no
     * caller observes because every figure a continuation reports is
     * a delta. This sim's counters keep their current values.
     */
    void applyState(const State &s);

    /** Fold the trace memo's hit/miss counts into the obs metrics
     *  registry ("memo.trace_hits", "memo.trace_misses"); run
     *  drivers call this once per finished run, keeping the hot path
     *  free of shared-counter traffic. */
    void flushPipelineMetrics() const;

  private:
    const machine::MachineModel &model;
    Config cfg;
    machine::PipelineState state;
    std::unique_ptr<ICache> _icache;

    /**
     * Resolved timing plan per text word ((pc - textBase) / 4),
     * built lazily on first retire of each static instruction.
     * Retiring ~1.5M dynamic instructions per benchmark, the
     * per-retire variant match and register-field decoding were the
     * hottest lookups in the pipeline; see ResolvedVariant.
     */
    std::vector<machine::ResolvedVariant> planByWord;

    uint64_t _cycles = 0;
    uint64_t _insts = 0;
    uint32_t prevPc = 0;
    bool havePrev = false;

    obs::StallBreakdown _breakdown;
    uint64_t _stallCycles = 0;

    // Histogram bookkeeping over issue start cycles.
    std::vector<uint64_t> hist;
    uint64_t curStart = 0;
    unsigned curCount = 0;
    bool haveCur = false;

    // ------------------------------------------------------------
    // Trace memo (Config::traceMemo). The benchmark workloads are
    // loop-dominated: a handful of static straight-line segments
    // account for nearly all dynamic instructions. Buffering retires
    // into multi-block traces and memoizing each trace's timing
    // deltas against its normalized entry state replaces the per-
    // instruction issue walk with one table hit per ~kTraceTarget
    // instructions on the steady state.

    /**
     * One recorded trace: the entry key (pc stream + entry State) and
     * the deltas replaying it produced. The end State is rebased to
     * the end frontier, so a hit at any absolute cycle origin can
     * re-apply it.
     */
    struct MemoEntry
    {
        std::vector<uint64_t> keyHead;   ///< pc stream, see flushTrace()
        State entry;
        State end;
        uint64_t frontierDelta = 0;      ///< end - entry frontier
        std::vector<uint64_t> histDelta; ///< per hist bucket
        obs::StallBreakdown dBreakdown;
        uint64_t dInsts = 0;
        uint64_t dStalls = 0;
    };

    /** State without a sync (flushTrace() captures mid-flush). */
    void captureInto(State &out) const;
    /** Jump the pipeline frontier by frontierDelta and adopt s,
     *  rebased to the new frontier (PipelineState::applyRebased). */
    void jumpTo(const State &s, uint64_t frontierDelta);

    /** Settle the pending buffer: memo hit applies recorded deltas,
     *  miss replays through issueOne() and records them. */
    void flushTrace();
    /** Jump this sim's state by a recorded trace's deltas. */
    void applyTrace(const MemoEntry &e);

    /** Trace cut policy: prefer ending at a discontinuity once this
     *  long...  */
    static constexpr size_t kTraceTarget = 48;
    /** ...but never buffer a straight run past this. */
    static constexpr size_t kTraceMax = 512;
    /** Recording stops (hits keep working) past this many entries —
     *  a workload diverse enough to blow the cap would mostly miss
     *  anyway, and entries pin captures of pipeline state. */
    static constexpr size_t kMemoMaxEntries = size_t(1) << 14;

    bool memoOn = false;  ///< cfg.traceMemo && !cfg.useICache
    std::vector<uint32_t> bufPcs;
    std::vector<isa::Instruction> bufInsts;
    /** Discontinuities in the buffered pc stream: index << 32 |
     *  target pc. With bufPcs[0], reproduces the whole stream. */
    std::vector<uint64_t> bufJumps;
    std::unordered_map<uint64_t, std::vector<MemoEntry>> memoTable;
    size_t memoEntries = 0;
    mutable uint64_t memoHits = 0;
    mutable uint64_t memoMisses = 0;
    // flushTrace() scratch, reused to keep the per-trace cost flat.
    std::vector<uint64_t> keyScratch;
    State stateScratch;
    std::vector<uint64_t> histScratch;
};

/**
 * Convenience: run the executable on the emulator, feeding the
 * timing model. Returns (functional result, cycles).
 */
struct TimedRun
{
    RunResult result;
    uint64_t cycles = 0;
    double seconds = 0;
    double ipc = 0;
    std::vector<uint64_t> issueHistogram;
    uint64_t icacheMisses = 0;
    uint64_t icacheAccesses = 0;
    /** Populated only under TimingSim::Config::collectStalls. */
    obs::StallBreakdown stallBreakdown;
    uint64_t stallCycles = 0;
    /** True when a RunBudget cancelled the run early; the counters
     *  above then describe the partial run. */
    bool cancelled = false;
};

TimedRun timedRun(const exe::Executable &x,
                  const machine::MachineModel &model,
                  TimingSim::Config cfg = {},
                  Emulator::Config emu_cfg = {});

/**
 * Cooperative cancellation for a timed run. The emulator's cursor
 * makes the interpreter resumable, so the run proceeds in slices of
 * `sliceInstructions` and polls cancel() at each slice boundary —
 * the timing analogue of a shard boundary. A service enforcing a
 * per-request deadline closes over its clock in cancel(); the poll
 * costs one memo sync per slice, so slices stay coarse. Slicing
 * exists only to poll: a budget without cancel() (or with
 * sliceInstructions 0) runs in one slice.
 */
struct RunBudget
{
    /** Polled between slices; return true to stop the run. Null
     *  never cancels and never slices. */
    std::function<bool()> cancel;
    uint64_t sliceInstructions = 64 * 1024;
    /** When set, the emulator's text decode is memoized here
     *  (Emulator::decodeText(x, store)), so repeated requests
     *  against one image share the decode across runs. */
    exe::SectionStore *decodeStore = nullptr;
};

/**
 * timedRun under a budget (the overload above passes an empty one):
 * identical counters for a run that completes (the slice boundaries
 * are invisible — TimingSim's sync keeps the memo exact at any flush
 * pattern), partial counters with .cancelled set for one that is
 * stopped. emu_cfg.maxInstructions still bounds the whole run.
 */
TimedRun timedRun(const exe::Executable &x,
                  const machine::MachineModel &model,
                  const RunBudget &budget,
                  TimingSim::Config cfg = {},
                  Emulator::Config emu_cfg = {});

} // namespace eel::sim

#endif // EEL_SIM_TIMING_HH
