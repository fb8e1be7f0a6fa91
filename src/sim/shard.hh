/**
 * @file
 * Sharded timing simulation: replay checkpoint segments in parallel.
 *
 * runSharded() is the library entry the benches (and any future
 * batch-ingest server) build on: one functional capture pass
 * (src/sim/checkpoint) cuts the run into shards of `interval`
 * dynamic instructions, then every shard replays the full timing
 * model concurrently on a support::ThreadPool, each from its
 * checkpoint's machine state. Results merge by shard index — never
 * by completion order — so the output is bit-identical for every
 * jobs value.
 *
 * Boundary-stall correction: a shard's pipeline does not start
 * cold. The replay first issues the checkpoint's recorded warmup
 * trace (the last `warmup` retired pcs before the cut) through the
 * timing model and discards the cycles, instructions, icache and
 * histogram counts accrued up to the cut; the shard contributes only
 * the counter deltas of its own instructions. PipelineState keeps
 * bounded history (a 256-cycle unit ring plus register cycles no
 * more than maxLatency past the issue frontier), so a 1024-inst
 * warmup usually reproduces the serial pipeline at the cut — but
 * not always: a stream with two independently saturated chains
 * (fpppp's FP pipe plus the profiling counters' memory traffic, for
 * instance) phase-locks the chains differently from a cold start
 * and never re-synchronizes, at any warmup length. Exactness
 * therefore comes from a validation stitch instead of a warmup
 * bound: every shard records its post-warmup and end timing states
 * (TimingSim::State, rebased to the pipeline frontier, so equal
 * states time any future stream identically whatever their cycle
 * origin), and a serial walk over the finished shards re-replays any
 * shard whose start state differs from its predecessor's end state,
 * continuing from that end state applied onto a reset pipeline. By
 * induction the merged cycles, stall counts, per-reason stall
 * breakdown and per-block counts equal the serial simulator's bit
 * for bit at every interval/warmup/jobs setting
 * (tests/sim/test_shard.cc asserts it, including on the
 * non-converging instrumented-fpppp stream); mis-warmed shards cost
 * one extra serial region replay each (the `shard.stitch_resims`
 * metric counts them), while converged shards — the common case —
 * stay fully parallel.
 *
 * The one knowingly approximate configuration is Config::useICache:
 * cache history is unbounded, so each shard's cache only carries
 * warmup-deep history and compulsory misses repeat per shard. The
 * error is bounded by shards x (cache lines + warmup redirects) x
 * missPenalty cycles — measured ~0.13% of total cycles at the
 * default geometry and interval, always positive (repeated misses
 * only add cycles), shrinking with larger intervals or warmup
 * (EXPERIMENTS.md, "Sharded simulation").
 * The issue-width histogram is likewise exact only up to one issue
 * group per boundary.
 */

#ifndef EEL_SIM_SHARD_HH
#define EEL_SIM_SHARD_HH

#include <cstdint>
#include <vector>

#include "src/sim/checkpoint.hh"
#include "src/sim/timing.hh"
#include "src/support/thread_pool.hh"

namespace eel::sim {

class ResultCache;

struct ShardOptions
{
    /** Dynamic instructions per shard. */
    uint64_t interval = 64 * 1024;
    /** Timing warmup instructions replayed before each cut. */
    unsigned warmup = 1024;
    /** Pool for the replay fan-out (null = run shards serially). */
    support::ThreadPool *pool = nullptr;
    TimingSim::Config timing{};
    Emulator::Config emu{};
    /**
     * Optional per-text-word block-leader bitmap (1 = block start).
     * When set, the replay counts retires of each leader word and
     * the merged per-block dynamic counts come back in
     * ShardedRun::leaderRetires.
     */
    const std::vector<uint8_t> *blockLeader = nullptr;
    /**
     * Optional content-addressed result cache (src/sim/resultcache).
     * Consulted only for the perfect-icache configuration — the same
     * gate as the validation stitch, because a shard's timing state
     * is only self-contained without cache contents. A warm run
     * reuses every shard whose entry state and executed text pages
     * are unchanged; a whole-run entry can skip even the capture
     * pass. Cached results are byte-identical to a cold run.
     */
    ResultCache *cache = nullptr;
};

struct ShardStats
{
    size_t shards = 0;
    uint64_t checkpointBytes = 0;  ///< retained checkpoint payload
    double captureSec = 0;         ///< functional capture pass
    double replaySec = 0;          ///< parallel replay + stitch wall time
    /** Shards whose warmup failed validation and were replayed
     *  serially from the predecessor's end state. */
    size_t resims = 0;
    /** Shards satisfied from the result cache (warm or handoff
     *  entries), and whether the whole run was a whole-run hit. */
    size_t cachedShards = 0;
    bool cachedRun = false;
};

struct ShardedRun
{
    RunResult result;  ///< functional result (exit code, output)
    uint64_t cycles = 0;
    double seconds = 0;
    double ipc = 0;
    std::vector<uint64_t> issueHistogram;
    uint64_t icacheMisses = 0;
    uint64_t icacheAccesses = 0;
    /**
     * Per-reason stall attribution (populated only when
     * timing.collectStalls). Warmup-attributed stalls are
     * subtracted per shard, exactly like the cycle counters, and
     * shards merge in index order — so for the perfect-cache
     * config the merged breakdown is bit-equal to the serial
     * simulator's at every interval setting.
     */
    obs::StallBreakdown stallBreakdown;
    uint64_t stallCycles = 0;
    /** Leader-word retire counts (empty unless blockLeader given). */
    std::vector<uint64_t> leaderRetires;
    uint64_t blocksRetired = 0;
    /** Architectural state from the last shard's replay emulator. */
    Emulator::ArchSnapshot finalState;
    ShardStats stats;

    /** View as a TimedRun, so shard-aware callers can slot into
     *  timedRun() call sites unchanged. */
    TimedRun toTimedRun() const;
};

/**
 * Simulate x on model with the run fanned out across opts.pool.
 * Equivalent to timedRun() (exactly, for the default perfect-cache
 * config; see the boundary bound above) but with wall-clock close
 * to capture + serial-time / jobs.
 */
ShardedRun runSharded(const exe::Executable &x,
                      const machine::MachineModel &model,
                      const ShardOptions &opts = {});

} // namespace eel::sim

#endif // EEL_SIM_SHARD_HH
