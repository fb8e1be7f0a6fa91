#include "checks.hh"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

using namespace eel;

namespace {

std::string
format(const char *fmt, auto... args)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

} // namespace

BlockProfile
profileBlocks(const exe::Executable &x,
              const std::vector<edit::Routine> &routines)
{
    // Dense per-word counters; the concrete final sink lets the
    // emulator's templated run loop inline retire().
    struct Sink final
    {
        std::vector<uint64_t> retires;  ///< per text word
        std::vector<uint8_t> leader;
        uint64_t blocks = 0, insts = 0;
        void
        retire(uint32_t pc, const isa::Instruction &)
        {
            uint32_t w = (pc - exe::textBase) / 4;
            ++insts;
            blocks += leader[w];
            retires[w] += leader[w];
        }
    } sink;
    sink.retires.assign(x.text.size(), 0);
    sink.leader.assign(x.text.size(), 0);
    for (const auto &r : routines)
        for (const auto &b : r.blocks)
            if (b.startAddr)
                sink.leader[(b.startAddr - exe::textBase) / 4] = 1;

    sim::Emulator emu(x);
    BlockProfile p;
    p.result = emu.run(sink);
    p.blocks = sink.blocks;
    p.instructions = sink.insts;
    for (const auto &r : routines) {
        std::vector<uint64_t> row;
        for (const auto &b : r.blocks)
            row.push_back(b.startAddr
                              ? sink.retires[(b.startAddr -
                                              exe::textBase) /
                                             4]
                              : 0);
        p.perBlock.push_back(std::move(row));
    }
    return p;
}

namespace check {

std::string
sameBehaviour(const std::string &what, const sim::RunResult &original,
              const sim::RunResult &variant)
{
    if (!variant.exited || variant.exitCode != original.exitCode)
        return format("%s: exit %d (exited %d), original exit %d",
                      what.c_str(), variant.exitCode,
                      int(variant.exited), original.exitCode);
    if (variant.output != original.output)
        return format("%s: output differs from the original's "
                      "(%zu vs %zu bytes)",
                      what.c_str(), variant.output.size(),
                      original.output.size());
    return "";
}

std::string
countersMatch(const std::string &what, const Counts &qpt,
              const Counts &reference)
{
    if (qpt.size() != reference.size())
        return format("%s: %zu routines counted, %zu expected",
                      what.c_str(), qpt.size(), reference.size());
    for (size_t r = 0; r < qpt.size(); ++r) {
        if (qpt[r].size() != reference[r].size())
            return format("%s: routine %zu has %zu counters, %zu "
                          "blocks",
                          what.c_str(), r, qpt[r].size(),
                          reference[r].size());
        for (size_t b = 0; b < qpt[r].size(); ++b)
            if (qpt[r][b] != reference[r][b])
                return format("%s: routine %zu block %zu counted "
                              "%" PRIu64 ", executed %" PRIu64,
                              what.c_str(), r, b, qpt[r][b],
                              reference[r][b]);
    }
    return "";
}

std::string
issueBound(const std::string &what, uint64_t cycles,
           uint64_t instructions, unsigned issueWidth)
{
    if (cycles * issueWidth < instructions)
        return format("%s: %" PRIu64 " instructions in %" PRIu64
                      " cycles exceeds issue width %u",
                      what.c_str(), instructions, cycles, issueWidth);
    return "";
}

std::string
instrumentationCosts(const std::string &what, uint64_t instCycles,
                     uint64_t baseCycles)
{
    if (instCycles <= baseCycles)
        return format("%s: instrumented %" PRIu64
                      " cycles, not above the original's %" PRIu64,
                      what.c_str(), instCycles, baseCycles);
    return "";
}

std::string
shardedEqualsSerial(const std::string &what, uint64_t shardedCycles,
                    uint64_t serialCycles)
{
    if (shardedCycles != serialCycles)
        return format("%s: sharded %" PRIu64 " cycles, serial %" PRIu64,
                      what.c_str(), shardedCycles, serialCycles);
    return "";
}

uint64_t
fnv1a64(const std::string &bytes)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h ? h : 1;
}

uint32_t
pagesOf(const exe::Executable &x)
{
    const uint64_t page = exe::Chunk::bytes;
    uint64_t text = uint64_t(x.text.size()) * 4;
    uint64_t data = x.data.size();
    return static_cast<uint32_t>((text + page - 1) / page +
                                 (data + page - 1) / page);
}

std::string
submitReply(const svc::SubmitReply &reply, uint64_t expectId,
            uint32_t expectPages, bool resubmit)
{
    if (reply.imageId != expectId)
        return format("submit: image id %016" PRIx64
                      ", FNV-1a-64 of the bytes is %016" PRIx64,
                      reply.imageId, expectId);
    if (reply.pages != expectPages)
        return format("submit %016" PRIx64 ": %u pages, the sections "
                      "span %u",
                      expectId, reply.pages, expectPages);
    if (resubmit && reply.pageHits != reply.pages)
        return format("resubmit %016" PRIx64 ": %u of %u pages hit",
                      expectId, reply.pageHits, reply.pages);
    return "";
}

std::string
rewriteReply(const std::string &what, const std::string &replyXef,
             const std::string &directXef)
{
    if (replyXef != directXef)
        return format("%s: REWRITE reply (%zu bytes) differs from the "
                      "direct rewrite (%zu bytes)",
                      what.c_str(), replyXef.size(), directXef.size());
    return "";
}

std::string
simulateReply(const std::string &what, const svc::SimulateReply &reply,
              uint64_t instructions, uint64_t cycles, int exitCode,
              bool exited)
{
    if (reply.instructions != instructions || reply.cycles != cycles ||
        int(reply.exitCode) != exitCode || bool(reply.exited) != exited)
        return format("%s: SIMULATE %" PRIu64 " insts %" PRIu64
                      " cycles exit %u, direct %" PRIu64 " %" PRIu64
                      " exit %d",
                      what.c_str(), reply.instructions, reply.cycles,
                      reply.exitCode, instructions, cycles, exitCode);
    return "";
}

std::string
opCounts(const std::map<std::string, uint64_t> &server,
         const std::map<std::string, uint64_t> &sent)
{
    for (const auto &[op, n] : sent) {
        auto it = server.find(op);
        uint64_t got = it == server.end() ? 0 : it->second;
        if (got != n)
            return format("histogram %s counted %" PRIu64
                          " requests, the client sent %" PRIu64,
                          op.c_str(), got, n);
    }
    for (const auto &[op, n] : server)
        if (!sent.count(op) && n)
            return format("histogram %s counted %" PRIu64
                          " requests the client never sent",
                          op.c_str(), n);
    return "";
}

std::string
serverP50(double serverMs, double clientMs, double bucketError)
{
    if (serverMs > clientMs * (1 + bucketError))
        return format("server p50 %.4f ms above the client's %.4f ms",
                      serverMs, clientMs);
    return "";
}

} // namespace check
} // namespace perfbench
