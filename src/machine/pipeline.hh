/**
 * @file
 * Pipeline state tracking and the pipeline_stalls computation of the
 * paper's Appendix A.
 *
 * PipelineState models an in-order superscalar execution pipeline as
 * seen by a straight-line instruction sequence: per-cycle free unit
 * counts (structural hazards), and per-register last-read, last-write
 * and value-available cycles (RAW/WAR/WAW hazards). The key operation
 * is stalls(): "the number of cycles that the next instruction must
 * wait before entering the execution pipeline" (§3.2).
 */

#ifndef EEL_MACHINE_PIPELINE_HH
#define EEL_MACHINE_PIPELINE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/isa/instruction.hh"
#include "src/machine/model.hh"
#include "src/obs/stall.hh"

namespace eel::machine {

/**
 * A timing variant with its register accesses resolved against one
 * concrete instruction: flat register ids (pair accesses expanded),
 * fixed-capacity arrays, no per-use field decoding. Resolving once
 * per *static* instruction and issuing by plan is the timing
 * simulator's fast path — the per-retire variant match plus three
 * RegAccess::reg resolutions were the hottest lookups in the
 * pipeline (one pipeline_stalls evaluation per dynamic instruction).
 */
struct ResolvedVariant
{
    struct Read
    {
        uint16_t reg;    ///< RegId::flat()
        uint8_t cycle;
    };
    struct Write
    {
        uint16_t reg;
        uint8_t cycle;   ///< writeback pipeline cycle
        uint8_t ready;   ///< cycle the value was computed in
    };
    static constexpr unsigned maxAccesses = 12;

    const Variant *variant = nullptr;  ///< null = unresolved slot
    uint8_t nReads = 0;
    uint8_t nWrites = 0;
    Read reads[maxAccesses];
    Write writes[maxAccesses];

    /** Resolve v's register accesses against inst. */
    static ResolvedVariant resolve(const Variant &v,
                                   const isa::Instruction &inst);
    /** Resolve model.variant(inst) against inst. */
    static ResolvedVariant resolve(const MachineModel &model,
                                   const isa::Instruction &inst);
};

/**
 * Not thread-safe: stalls() is logically const but reuses explicit
 * mutable scratch buffers (scratchTrace/scratchAbsFor below); use
 * one PipelineState per thread. Debug builds assert on reentrant or
 * cross-thread overlap of the scratch (see simulate()), so a future
 * caller sharing a state across threads fails loudly instead of
 * silently corrupting the per-reason stall accounting.
 */
class PipelineState
{
  public:
    explicit PipelineState(const MachineModel &model);

    /** Forget all history; the pipeline is empty at cycle 0. */
    void reset();

    /**
     * pipeline_stalls (Appendix A): how many stall cycles inst incurs
     * if it enters the pipeline at the in-order issue frontier.
     * Counts both entry stalls and mid-pipeline stalls, exactly as
     * the appendix loop does. Does not modify register/unit history.
     */
    unsigned stalls(const isa::Instruction &inst) const;

    /** As stalls(), but entering at an explicit cycle >= frontier. */
    unsigned stallsAt(uint64_t cycle,
                      const isa::Instruction &inst) const;

    /**
     * As stalls()/stallsAt(), with the instruction pre-resolved by
     * the caller. Hot paths (the timing simulator, the scheduler's
     * candidate scan) resolve each static instruction once and issue
     * by plan, skipping the per-call variant match and register
     * field decoding.
     *
     * A non-null `why` receives one count per stall cycle, tagged
     * with the hazard that blocked that cycle (the Appendix A walk
     * fails exactly one check per non-advancing cycle). Null keeps
     * the fast path untouched — attribution costs nothing when off.
     */
    unsigned stalls(const ResolvedVariant &rv,
                    obs::StallBreakdown *why = nullptr) const;
    unsigned stallsAt(uint64_t cycle, const ResolvedVariant &rv,
                      obs::StallBreakdown *why = nullptr) const;

    struct IssueResult
    {
        uint64_t startCycle;  ///< cycle the instruction entered
        uint64_t doneCycle;   ///< cycle it left the pipeline
        unsigned stalls;      ///< total stall cycles (appendix metric)
    };

    /** Issue inst in order: compute stalls, commit its effects. */
    IssueResult issue(const isa::Instruction &inst);

    /** As issue(), with the instruction pre-resolved by the caller.
     *  A non-null `why` accumulates per-reason stall attribution,
     *  as in stalls(). */
    IssueResult issue(const ResolvedVariant &rv,
                      obs::StallBreakdown *why = nullptr);

    /**
     * Model a fetch bubble (e.g. a taken-branch redirect): the next
     * instruction cannot enter before frontier() + n. Spawn models
     * only the execution pipelines (§3.2), so the scheduler never
     * calls this; the timing simulator does.
     */
    void fetchBubble(unsigned n) { frontierCycle += n; }

    /**
     * The state that can affect any *future* issue, rebased to the
     * frontier: the live (non-full-capacity) unit rows, and the
     * registers whose hazard values can still bind, as canonicalized
     * rebased triples. All hazard checks compare cycles >= the
     * frontier, so history before it is dropped and register values
     * that can no longer bind are canonicalized to 0. Two states with
     * equal captures therefore produce identical stall counts,
     * reasons and relative issue cycles for every subsequent
     * instruction sequence, even if their absolute cycle origins
     * differ. This is the only encoding of timing state: the trace
     * memo in sim::TimingSim matches and transports it, and the
     * sharded stitch compares and hands it off.
     */
    struct RebasedPipe
    {
        std::vector<uint64_t> rowAt;    ///< live cycle - frontier
        std::vector<int16_t> rowFree;   ///< numUnits free counts per row
        std::vector<uint32_t> regs;     ///< flat ids, ascending
        std::vector<uint64_t> regVals;  ///< 3 per reg: lr/lw/wa

        /** The canonicalization makes this semantic: equal captures
         *  <=> same future timing. */
        bool operator==(const RebasedPipe &) const = default;

        /**
         * Whether applyRebased() can index every part inside a state
         * of a model with num_units units: register ids below
         * isa::numRegIds, three values per register, num_units free
         * counts per row and row offsets inside the unit ring. A
         * capture decoded from outside the process (a cache file) is
         * checked with this before it is applied.
         */
        bool fits(unsigned num_units) const;

        void
        clear()
        {
            rowAt.clear();
            rowFree.clear();
            regs.clear();
            regVals.clear();
        }
    };
    void captureRebased(RebasedPipe &out) const;

    /**
     * Jump the state to a previously captured end state: the frontier
     * advances by frontierDelta and the capture's rows/registers are
     * written rebased to the new frontier. Valid when the current
     * state's captureRebased() equals the one taken where the capture
     * was recorded (the trace memo in sim::TimingSim), or when nothing
     * is live (a fresh or reset() state at any frontier: a handoff,
     * after which the state captures equal to p). Rows the frontier
     * moved past and registers that went inert are left untouched;
     * both are canonicalized away by every hazard check and by
     * captureRebased() itself.
     */
    void applyRebased(const RebasedPipe &p, uint64_t frontierDelta);

    /** Cycle at which the next instruction would enter unstalled. */
    uint64_t frontier() const { return frontierCycle; }

    const MachineModel &model() const { return _model; }

  private:
    /**
     * Core of Appendix A: walk the resolved instruction through its
     * pipeline cycles from entry_cycle, counting stalls. abs_for[k]
     * receives the absolute cycle at which pipeline cycle k executed
     * (size latency + 1). A non-null `why` gets one count per stall
     * cycle under the failing hazard's StallReason.
     */
    unsigned simulate(uint64_t entry_cycle, const ResolvedVariant &rv,
                      std::vector<uint64_t> &abs_for,
                      obs::StallBreakdown *why) const;

    void commit(const ResolvedVariant &rv,
                const std::vector<uint64_t> &abs_for);

    /** Free-count row for absolute cycle c (lazy slot reinit). */
    int16_t *rowFor(uint64_t c) const;
    void initSlot(uint64_t c, unsigned slot) const;

    const MachineModel &_model;
    unsigned numUnits;
    std::vector<int16_t> capInit;  ///< unit capacities, slot reinit

    // Ring buffer of per-cycle free unit counts. Slots are stamped
    // with the absolute cycle they represent and re-initialized to
    // full capacity on first touch of a new cycle.
    static constexpr unsigned windowSize = 256;
    mutable std::vector<uint64_t> slotStamp;   // windowSize
    mutable std::vector<int16_t> slotFree;     // windowSize * numUnits

    /** Highest cycle any slot is stamped with (monotone over-
     *  approximation); bounds captureRebased()'s live-row scan to
     *  [frontier, maxStamped] instead of the whole ring. */
    mutable uint64_t maxStamped = 0;

    // Register history, indexed by RegId::flat(). Values are
    // "absolute cycle + 1" so 0 means "never".
    std::vector<uint64_t> lastRead;
    std::vector<uint64_t> lastWrite;
    std::vector<uint64_t> writeAvail;  // first cycle a read may occur

    // Scratch buffers reused across simulate() calls (performance:
    // one pipeline_stalls evaluation per dynamic instruction).
    // scratchTrace is zeroed once in the constructor; simulate()
    // restores the entries it touched before returning. scratchAbsFor
    // is sized once to maxLatency + 1.
    mutable std::vector<int> scratchTrace;
    mutable std::vector<uint64_t> scratchAbsFor;

    /** Debug-build reentrancy canary for the scratch buffers:
     *  simulate() sets it for its duration and asserts it was clear
     *  on entry. Catches both reentrant use and (best-effort) two
     *  threads sharing one PipelineState. */
    mutable bool scratchBusy = false;

    uint64_t frontierCycle = 0;
};

// The pre-resolved entry points run once per dynamic instruction in
// the timing simulator and once per candidate scan step in the
// scheduler; they are defined inline so those loops call simulate()
// (whose no-stall segment check settles most instructions before the
// exact Appendix A walk) and commit() directly.

inline unsigned
PipelineState::stalls(const ResolvedVariant &rv,
                      obs::StallBreakdown *why) const
{
    return simulate(frontierCycle, rv, scratchAbsFor, why);
}

inline unsigned
PipelineState::stallsAt(uint64_t cycle, const ResolvedVariant &rv,
                        obs::StallBreakdown *why) const
{
    return simulate(cycle, rv, scratchAbsFor, why);
}

inline PipelineState::IssueResult
PipelineState::issue(const ResolvedVariant &rv, obs::StallBreakdown *why)
{
    const unsigned s = simulate(frontierCycle, rv, scratchAbsFor, why);
    commit(rv, scratchAbsFor);
    return IssueResult{scratchAbsFor[0],
                       scratchAbsFor[rv.variant->latency], s};
}

/**
 * Schedule-length evaluation: total cycles a straight-line sequence
 * occupies from an empty pipeline (issue cycle of the last
 * instruction + 1). Used to compare schedules.
 */
uint64_t sequenceCycles(const MachineModel &model,
                        std::span<const isa::Instruction> insts);

/**
 * Issue span of a straight-line sequence: the cycle after the last
 * instruction enters the pipeline, from an empty pipeline. This is
 * the "executes in N cycles" number the paper quotes for the
 * profiling snippet (§4.2) — it excludes the writeback drain.
 */
uint64_t sequenceIssueSpan(const MachineModel &model,
                           std::span<const isa::Instruction> insts);

} // namespace eel::machine

#endif // EEL_MACHINE_PIPELINE_HH
