/**
 * @file
 * The benchmark's output checks. Each returns "" when the property
 * holds and a description of the violation otherwise, so the
 * workloads can record every failure and test_checks.cc can show
 * that each check rejects a corrupted input.
 *
 * Every check either compares against a value the benchmark computes
 * apart from the code under test (its own retire sink, its own
 * FNV-1a, its own page arithmetic, a direct library call in a private
 * store) or rests on a property the method must have (an image never
 * issues more than the machine's width per cycle; unscheduled
 * instrumentation never makes a program faster).
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/eel/cfg.hh"
#include "src/exe/executable.hh"
#include "src/sim/emulator.hh"
#include "src/svc/wire.hh"

namespace perfbench {

using Counts = std::vector<std::vector<uint64_t>>;

/** The benchmark's own block counts over one functional run. */
struct BlockProfile
{
    eel::sim::RunResult result;
    Counts perBlock;          ///< [routine][block] entries
    uint64_t blocks = 0;      ///< dynamic block entries
    uint64_t instructions = 0;

    double
    avgBlockSize() const
    {
        return blocks ? double(instructions) / double(blocks) : 0.0;
    }
};

/**
 * Run x functionally with a retire sink that counts how often each
 * block's first instruction retires. The routines must describe x's
 * text (edit::buildRoutines or a BatchResult's routines).
 */
BlockProfile profileBlocks(const eel::exe::Executable &x,
                           const std::vector<eel::edit::Routine> &routines);

namespace check {

/** A rewritten image must exit like the original and print the
 *  same output. */
std::string sameBehaviour(const std::string &what,
                          const eel::sim::RunResult &original,
                          const eel::sim::RunResult &variant);

/** qpt counters read after a run equal the reference block counts. */
std::string countersMatch(const std::string &what, const Counts &qpt,
                          const Counts &reference);

/** No run beats the issue width: cycles >= instructions / width. */
std::string issueBound(const std::string &what, uint64_t cycles,
                       uint64_t instructions, unsigned issueWidth);

/** Unscheduled instrumentation adds cycles. */
std::string instrumentationCosts(const std::string &what,
                                 uint64_t instCycles,
                                 uint64_t baseCycles);

/** Sharded simulation is exact for the perfect-cache config. */
std::string shardedEqualsSerial(const std::string &what,
                                uint64_t shardedCycles,
                                uint64_t serialCycles);

/** FNV-1a-64 over the bytes, 0 mapped to 1 (the service's id rule:
 *  0 means "no image"). Written here, apart from svc::contentId. */
uint64_t fnv1a64(const std::string &bytes);

/** 1 KiB pages an image occupies: text words and data bytes, each
 *  section rounded up to whole pages. */
uint32_t pagesOf(const eel::exe::Executable &x);

/** A SUBMIT reply names the bytes' content id and page count; a
 *  resubmit of bytes already sent hits on every page. */
std::string submitReply(const eel::svc::SubmitReply &reply,
                        uint64_t expectId, uint32_t expectPages,
                        bool resubmit);

/** A REWRITE reply equals the direct rewrite's XEF bytes. */
std::string rewriteReply(const std::string &what,
                         const std::string &replyXef,
                         const std::string &directXef);

/** A SIMULATE reply equals a direct sim::timedRun. */
std::string simulateReply(const std::string &what,
                          const eel::svc::SimulateReply &reply,
                          uint64_t instructions, uint64_t cycles,
                          int exitCode, bool exited);

/** The server's per-op histograms count exactly what was sent. */
std::string opCounts(const std::map<std::string, uint64_t> &server,
                     const std::map<std::string, uint64_t> &sent);

/** Server time is part of client time, so the server's p50 is no
 *  higher than the client's, up to the histogram's bucket error. */
std::string serverP50(double serverMs, double clientMs,
                      double bucketError);

} // namespace check
} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
