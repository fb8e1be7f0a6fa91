/**
 * @file
 * Service-tier tests: protocol fuzzing (a hostile byte stream must
 * get a clean error reply or a clean hangup, never a crash),
 * deadline enforcement (an over-budget SIMULATE is cancelled at a
 * slice boundary and answered within tolerance), admission control,
 * graceful drain, the daemon binary's SIGTERM path, and a
 * multi-threaded mixed-op suite that doubles as the tsan_service
 * race check over the shared SectionStore.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/eel/batch.hh"
#include "src/exe/executable.hh"
#include "src/isa/builder.hh"
#include "src/machine/model.hh"
#include "src/support/logging.hh"
#include "src/svc/client.hh"
#include "src/svc/server.hh"

namespace eel::svc {
namespace {

namespace b = isa::build;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

/** A well-formed program that exits immediately. */
std::string
tinyXef()
{
    exe::Executable x;
    x.text.push_back(isa::encode(b::movi(8, 0)));
    x.text.push_back(isa::encode(b::ta(isa::trap::exit_prog)));
    x.text.push_back(isa::encode(b::retl()));
    x.text.push_back(isa::encode(b::nop()));
    x.entry = exe::textBase;
    x.symbols.push_back(exe::Symbol{"main", exe::textBase, 16, true});
    x.data = {1, 2, 3, 4};
    return x.saveBytes();
}

/** A well-formed program that never exits (tight ba loop). */
std::string
loopXef()
{
    exe::Executable x;
    x.text.push_back(isa::encode(b::ba(0)));
    x.text.push_back(isa::encode(b::nop()));
    x.entry = exe::textBase;
    x.symbols.push_back(exe::Symbol{"main", exe::textBase, 8, true});
    return x.saveBytes();
}

/** Raw frame bytes: len | seq | op | body. */
std::string
rawFrame(uint32_t seq, uint8_t op, const std::string &body)
{
    std::string out;
    putU32(out, static_cast<uint32_t>(5 + body.size()));
    putU32(out, seq);
    putU8(out, op);
    out += body;
    return out;
}

ServerConfig
testConfig()
{
    ServerConfig cfg;
    cfg.tcpPort = 0;
    cfg.threads = 2;
    cfg.maxFrameBytes = 1 << 20;  // fuzz oversized prefixes cheaply
    return cfg;
}

TEST(ServiceProtocol, SubmitRewriteSimulateStats)
{
    Server server(testConfig());
    server.start();
    Client c = Client::dialTcp(server.port());

    std::string bytes = tinyXef();
    auto sub = c.submit(bytes);
    ASSERT_TRUE(sub.ok()) << sub.message;
    EXPECT_EQ(sub.value.imageId, contentId(bytes));
    EXPECT_GT(sub.value.pages, 0u);

    // Resubmit: every page already canonical.
    auto sub2 = c.submit(bytes);
    ASSERT_TRUE(sub2.ok());
    EXPECT_EQ(sub2.value.pageHits, sub2.value.pages);

    RewriteRequest rr;
    rr.imageId = sub.value.imageId;
    rr.kind = 0;  // Identity
    auto rw = c.rewrite(rr);
    ASSERT_TRUE(rw.ok()) << rw.message;
    EXPECT_FALSE(rw.value.cached);
    // Identity output is a loadable image with the same text.
    exe::Executable out = exe::Executable::loadBytes(rw.value.xef);
    exe::Executable in = exe::Executable::loadBytes(bytes);
    ASSERT_EQ(out.text.size(), in.text.size());
    for (size_t i = 0; i < in.text.size(); ++i)
        EXPECT_EQ(out.text[i], in.text[i]);

    // Same ask again: served from the rewrite cache, same bytes.
    auto rw2 = c.rewrite(rr);
    ASSERT_TRUE(rw2.ok());
    EXPECT_TRUE(rw2.value.cached);
    EXPECT_EQ(rw2.value.xef, rw.value.xef);

    SimulateRequest sr;
    sr.imageId = sub.value.imageId;
    sr.timing = 1;
    auto sim = c.simulate(sr);
    ASSERT_TRUE(sim.ok()) << sim.message;
    EXPECT_TRUE(sim.value.exited);
    EXPECT_EQ(sim.value.exitCode, 0u);
    EXPECT_GT(sim.value.instructions, 0u);
    EXPECT_GT(sim.value.cycles, 0u);

    auto st = c.stats();
    ASSERT_TRUE(st.ok());
    EXPECT_NE(st.value.find("\"submits\":"), std::string::npos);
    EXPECT_NE(st.value.find("\"gc_reclaimed_pages\":"),
              std::string::npos);

    server.stop();
}

TEST(ServiceProtocol, UnknownImageAndBadArguments)
{
    Server server(testConfig());
    server.start();
    Client c = Client::dialTcp(server.port());

    RewriteRequest rr;
    rr.imageId = 0xdeadbeef;
    EXPECT_EQ(c.rewrite(rr).status, Status::BadImage);

    SimulateRequest sr;
    sr.imageId = 0xdeadbeef;
    EXPECT_EQ(c.simulate(sr).status, Status::BadImage);

    // Unknown machine on a known image: BadRequest, not a crash.
    std::string bytes = tinyXef();
    auto sub = c.submit(bytes);
    ASSERT_TRUE(sub.ok());
    rr.imageId = sub.value.imageId;
    rr.machine = "pdp11";
    EXPECT_EQ(c.rewrite(rr).status, Status::BadRequest);

    // Every VariantKind is a rewrite kind, Pipeline (5) the last:
    // its reply is the direct BatchRewriter variant's bytes.
    rr.machine.clear();
    rr.kind = uint8_t(edit::VariantKind::Pipeline);
    auto pipe = c.rewrite(rr);
    ASSERT_EQ(pipe.status, Status::Ok) << pipe.message;
    edit::BatchOptions bopts;
    bopts.model = &machine::MachineModel::builtin("ultrasparc");
    const exe::Executable in = exe::Executable::loadBytes(bytes);
    edit::BatchRewriter direct(in, bopts);
    EXPECT_EQ(pipe.value.xef,
              direct.rewriteAll({edit::VariantKind::Pipeline})
                  .variants.at(0)
                  .image.saveBytes());

    // Unknown rewrite kinds.
    for (uint8_t kind : {uint8_t(6), uint8_t(99)}) {
        rr.kind = kind;
        EXPECT_EQ(c.rewrite(rr).status, Status::BadRequest)
            << "kind " << unsigned(kind);
    }

    server.stop();
}

TEST(ServiceProtocol, MalformedXefGetsCleanErrorReply)
{
    Server server(testConfig());
    server.start();
    Client c = Client::dialTcp(server.port());

    // Garbage payload.
    Frame rep;
    ASSERT_TRUE(c.sendRawExpectReply(
        rawFrame(1, uint8_t(Op::SubmitXef), "this is not an xef"),
        rep));
    EXPECT_NE(rep.code, uint8_t(Status::Ok));

    // Truncations of a valid container at every kind of boundary.
    std::string good = tinyXef();
    for (size_t cut :
         {size_t(0), size_t(3), size_t(9), good.size() / 2,
          good.size() - 1}) {
        Client c2 = Client::dialTcp(server.port());
        Frame r2;
        ASSERT_TRUE(c2.sendRawExpectReply(
            rawFrame(1, uint8_t(Op::SubmitXef), good.substr(0, cut)),
            r2));
        EXPECT_NE(r2.code, uint8_t(Status::Ok)) << "cut=" << cut;
    }

    // The server survived all of it.
    EXPECT_TRUE(c.submit(good).ok());
    server.stop();
}

TEST(ServiceProtocol, FuzzFramingNeverCrashes)
{
    Server server(testConfig());
    server.start();

    auto expectAlive = [&] {
        Client probe = Client::dialTcp(server.port());
        EXPECT_TRUE(probe.stats().ok());
    };

    {
        // Oversized length prefix: rejected before allocation.
        Client c = Client::dialTcp(server.port());
        std::string raw;
        putU32(raw, 0xffffffffu);
        Frame rep;
        if (c.sendRawExpectReply(raw, rep))
            EXPECT_EQ(rep.code, uint8_t(Status::BadFrame));
    }
    {
        // Length below the frame header.
        Client c = Client::dialTcp(server.port());
        std::string raw;
        putU32(raw, 2);
        putU32(raw, 1);
        Frame rep;
        if (c.sendRawExpectReply(raw, rep))
            EXPECT_EQ(rep.code, uint8_t(Status::BadFrame));
    }
    {
        // Truncated frame: length promises more than is sent.
        Client c = Client::dialTcp(server.port());
        std::string raw;
        putU32(raw, 100);
        raw += "short";
        c.connection().writeRaw(raw);
        c.connection().close();  // server sees mid-frame EOF
    }
    {
        // Garbage opcode with a plausible frame.
        Client c = Client::dialTcp(server.port());
        Frame rep;
        ASSERT_TRUE(c.sendRawExpectReply(rawFrame(7, 0xee, "x"),
                                         rep));
        EXPECT_EQ(rep.code, uint8_t(Status::BadRequest));
        EXPECT_EQ(rep.seq, 7u);
    }
    {
        // Truncated request body (Rewrite needs 17+ bytes).
        Client c = Client::dialTcp(server.port());
        Frame rep;
        ASSERT_TRUE(c.sendRawExpectReply(
            rawFrame(9, uint8_t(Op::Rewrite), "abc"), rep));
        EXPECT_EQ(rep.code, uint8_t(Status::BadFrame));
    }
    expectAlive();

    // Seeded random garbage bursts on fresh connections. Half-close
    // after writing: if the garbage read as a partial frame, the
    // server sees mid-frame EOF (clean BadFrame) rather than waiting
    // for bytes that never come.
    std::mt19937_64 rng(12345);
    for (int round = 0; round < 50; ++round) {
        Conn c = connectTcp(server.port());
        std::string raw;
        size_t n = 1 + rng() % 64;
        for (size_t i = 0; i < n; ++i)
            raw.push_back(static_cast<char>(rng()));
        try {
            c.writeRaw(raw);
            c.shutdownWrite();
            Frame rep;
            while (c.readFrame(rep)) {
            }  // drain whatever replies came back
        } catch (const FatalError &) {
            // Server hung up on us mid-stream: also a clean outcome.
        }
    }
    expectAlive();

    server.stop();
}

TEST(ServiceDeadline, OverBudgetSimulateIsCancelled)
{
    ServerConfig cfg = testConfig();
    cfg.sliceInstructions = 16 * 1024;
    Server server(cfg);
    server.start();
    Client c = Client::dialTcp(server.port());

    auto sub = c.submit(loopXef());
    ASSERT_TRUE(sub.ok());

    const uint32_t deadlineMs = 150;
    SimulateRequest sr;
    sr.imageId = sub.value.imageId;
    sr.timing = 1;
    sr.deadlineMs = deadlineMs;
    // No instruction limit: only the deadline can stop this run.

    Clock::time_point t0 = Clock::now();
    auto rep = c.simulate(sr);
    double tookMs = msSince(t0);

    EXPECT_EQ(rep.status, Status::DeadlineExceeded);
    // Partial progress is reported, and the run clearly didn't exit.
    EXPECT_GT(rep.value.instructions, 0u);
    EXPECT_FALSE(rep.value.exited);
    // Answered within tolerance: cancellation happens at the next
    // slice boundary, so the overshoot is bounded by slice cost plus
    // scheduling noise, not by the (infinite) program.
    EXPECT_LT(tookMs, deadlineMs + 2000.0);

    // The worker is free again, and the cancelled run left nothing
    // in the result cache to replay to a later client.
    EXPECT_TRUE(c.submit(tinyXef()).ok());
    EXPECT_EQ(server.rescache().stats().stores, 0u);
    server.stop();
}

TEST(ServiceCache, TimedSimulateSurvivesRestart)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("eel_svc_rescache_" + std::to_string(getpid()));
    fs::remove_all(dir);
    ServerConfig cfg = testConfig();
    cfg.resultCacheDir = dir.string();

    SimulateRequest sr;
    sr.timing = 1;
    auto simulate = [&](bool expectHit) {
        Server server(cfg);
        server.start();
        Client c = Client::dialTcp(server.port());
        auto sub = c.submit(tinyXef());
        EXPECT_TRUE(sub.ok());
        sr.imageId = sub.value.imageId;
        auto rep = c.simulate(sr);
        EXPECT_TRUE(rep.ok()) << rep.message;
        auto st = c.stats();
        EXPECT_TRUE(st.ok());
        EXPECT_NE(st.value.find(expectHit ? "\"sim_cache_hits\":1,"
                                          : "\"sim_cache_hits\":0,"),
                  std::string::npos)
            << st.value;
        EXPECT_EQ(server.rescache().stats().diskHits, expectHit ? 1u : 0u);
        server.stop();
        return rep.value;
    };

    // The first daemon runs the simulation and writes it through;
    // the second, on the same directory, answers from disk.
    SimulateReply cold = simulate(false);
    EXPECT_TRUE(cold.exited);
    EXPECT_GT(cold.cycles, 0u);
    SimulateReply warm = simulate(true);
    EXPECT_EQ(warm.instructions, cold.instructions);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.exitCode, cold.exitCode);
    EXPECT_EQ(warm.exited, cold.exited);
    EXPECT_EQ(warm.encode(), cold.encode());
    fs::remove_all(dir);
}

TEST(ServiceDeadline, QueuedPastDeadlineIsRejected)
{
    // One worker, queue of one: a job stuck behind a slow sim whose
    // own deadline expires while it queues is answered
    // DeadlineExceeded at dequeue, without running.
    ServerConfig cfg = testConfig();
    cfg.threads = 1;
    cfg.queueCapacity = 4;
    Server server(cfg);
    server.start();

    Client a = Client::dialTcp(server.port());
    auto sub = a.submit(loopXef());
    ASSERT_TRUE(sub.ok());

    SimulateRequest slow;
    slow.imageId = sub.value.imageId;
    slow.deadlineMs = 600;
    std::thread holder([&] {
        Client h = Client::dialTcp(server.port());
        h.simulate(slow);  // occupies the only worker ~600ms
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    SimulateRequest starved = slow;
    starved.deadlineMs = 50;  // expires while queued
    auto rep = a.simulate(starved);
    EXPECT_EQ(rep.status, Status::DeadlineExceeded);
    holder.join();
    server.stop();
}

TEST(ServiceAdmission, QueueFullGetsBusy)
{
    ServerConfig cfg = testConfig();
    cfg.threads = 1;
    cfg.queueCapacity = 1;
    Server server(cfg);
    server.start();

    Client a = Client::dialTcp(server.port());
    auto sub = a.submit(loopXef());
    ASSERT_TRUE(sub.ok());

    SimulateRequest slow;
    slow.imageId = sub.value.imageId;
    slow.deadlineMs = 800;
    std::thread holder([&] {
        Client h = Client::dialTcp(server.port());
        h.simulate(slow);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Pipeline two requests on one connection: the first fills the
    // queue, the second must be rejected Busy immediately.
    Client b2 = Client::dialTcp(server.port());
    SimulateRequest queued = slow;
    queued.deadlineMs = 1000;
    b2.connection().writeFrame(
        Frame{1, uint8_t(Op::Simulate), queued.encode()});
    b2.connection().writeFrame(
        Frame{2, uint8_t(Op::Simulate), queued.encode()});

    // The Busy reply for seq 2 overtakes the queued seq 1.
    Frame first;
    ASSERT_TRUE(b2.connection().readFrame(first));
    EXPECT_EQ(first.seq, 2u);
    EXPECT_EQ(first.code, uint8_t(Status::Busy));

    Frame second;
    ASSERT_TRUE(b2.connection().readFrame(second));
    EXPECT_EQ(second.seq, 1u);

    holder.join();
    server.stop();
    Server::Counters ctr = server.counters();
    EXPECT_GE(ctr.busyRejected, 1u);
}

TEST(ServiceDrain, InFlightCompletesNewRequestsRejected)
{
    ServerConfig cfg = testConfig();
    cfg.threads = 1;
    Server server(cfg);
    server.start();

    Client a = Client::dialTcp(server.port());
    auto sub = a.submit(loopXef());
    ASSERT_TRUE(sub.ok());

    // ~300ms of work in flight when the drain starts.
    SimulateRequest sr;
    sr.imageId = sub.value.imageId;
    sr.limit = 20u * 1000 * 1000;
    sr.deadlineMs = 30000;
    Client worker = Client::dialTcp(server.port());
    std::thread inflight([&] {
        auto rep = worker.simulate(sr);
        // Admitted before the drain: must be fully answered.
        EXPECT_EQ(rep.status, Status::Ok);
        EXPECT_EQ(rep.value.instructions, sr.limit);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    server.beginDrain();
    // New request on a live connection: Draining, not silence.
    auto rejected = a.submit(tinyXef());
    EXPECT_EQ(rejected.status, Status::Draining);

    inflight.join();
    server.stop();
    EXPECT_GE(server.counters().drainRejected, 1u);
}

TEST(ServiceDaemon, SigtermDrainsAndExitsZero)
{
    const char *path = EEL_SVCD_PATH;
    int outPipe[2];
    ASSERT_EQ(::pipe(outPipe), 0);
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::dup2(outPipe[1], 1);
        ::close(outPipe[0]);
        ::close(outPipe[1]);
        ::execl(path, path, "--port", "0", "--threads", "2",
                static_cast<char *>(nullptr));
        _exit(127);  // exec failed
    }
    ::close(outPipe[1]);

    // Parse "listening port=N" off the daemon's stdout.
    FILE *out = ::fdopen(outPipe[0], "r");
    ASSERT_NE(out, nullptr);
    unsigned port = 0;
    char line[256];
    while (std::fgets(line, sizeof line, out))
        if (std::sscanf(line, "listening port=%u", &port) == 1)
            break;
    ASSERT_GT(port, 0u) << "daemon never reported its port";

    // A real request round-trips against the daemon process.
    {
        Client c = Client::dialTcp(static_cast<uint16_t>(port));
        auto sub = c.submit(tinyXef());
        ASSERT_TRUE(sub.ok()) << sub.message;
        RewriteRequest rr;
        rr.imageId = sub.value.imageId;
        rr.kind = 0;
        EXPECT_TRUE(c.rewrite(rr).ok());
    }

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    std::fclose(out);
}

TEST(ServiceConcurrency, MixedOpsFourClientThreads)
{
    // Four client threads hammer one server with a mixed op stream
    // over shared images: the race check for the process-wide
    // SectionStore, registries, and reply paths (run under tsan by
    // the tsan_service ctest entry).
    Server server(testConfig());
    server.start();

    std::string tiny = tinyXef();
    uint64_t tinyId = contentId(tiny);
    {
        Client seed = Client::dialTcp(server.port());
        ASSERT_TRUE(seed.submit(tiny).ok());
    }

    std::vector<std::thread> clients;
    std::vector<int> failures(4, 0);
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            Client c = Client::dialTcp(server.port());
            std::mt19937_64 rng(1000 + t);
            for (int i = 0; i < 30; ++i) {
                Status st = Status::Ok;
                switch (rng() % 4) {
                  case 0:
                    st = c.submit(tiny).status;
                    break;
                  case 1: {
                    RewriteRequest rr;
                    rr.imageId = tinyId;
                    rr.kind = (rng() % 2) ? 3 : 0;  // Sched/Identity
                    st = c.rewrite(rr).status;
                    break;
                  }
                  case 2: {
                    SimulateRequest sr;
                    sr.imageId = tinyId;
                    sr.timing = rng() % 2;
                    st = c.simulate(sr).status;
                    break;
                  }
                  case 3:
                    st = c.stats().status;
                    break;
                }
                if (st != Status::Ok)
                    ++failures[t];
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(failures[t], 0) << "client " << t;

    Server::Counters ctr = server.counters();
    EXPECT_EQ(ctr.requests, 4u * 30u + 1u);
    EXPECT_EQ(ctr.errors, 0u);
    server.stop();
}

TEST(ServiceConcurrency, ConcurrentSimulateCacheHits)
{
    // Many client threads issue timed SIMULATEs of the same two
    // images concurrently: the race check for the result cache's
    // shared tiers (run under tsan by the tsan_service ctest
    // entry), plus the semantic gate — every cached reply must
    // equal the cold one, and an edited image must never be served
    // the base image's timing.
    Server server(testConfig());
    server.start();

    std::string tiny = tinyXef();
    exe::Executable ed = exe::Executable::loadBytes(tiny);
    // One text-word edit (swap the delay nop for an architecturally
    // different encoding is overkill here — a data edit already
    // changes the content-addressed key).
    ed.data.set(0, static_cast<uint8_t>(ed.data[0] ^ 0xff));
    std::string edited = ed.saveBytes();
    uint64_t ids[2] = {contentId(tiny), contentId(edited)};

    SimulateRequest sr;
    sr.timing = 1;
    SimulateReply ref[2];
    {
        Client seed = Client::dialTcp(server.port());
        ASSERT_TRUE(seed.submit(tiny).ok());
        ASSERT_TRUE(seed.submit(edited).ok());
        for (int k = 0; k < 2; ++k) {
            sr.imageId = ids[k];
            auto r = seed.simulate(sr);
            ASSERT_TRUE(r.ok());
            ref[k] = r.value;
        }
    }

    constexpr unsigned kThreads = 4, kIters = 25;
    std::vector<std::thread> clients;
    std::vector<int> failures(kThreads, 0);
    for (unsigned t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            Client c = Client::dialTcp(server.port());
            SimulateRequest req;
            req.timing = 1;
            for (unsigned i = 0; i < kIters; ++i) {
                int k = (i + t) % 2;
                req.imageId = ids[k];
                auto r = c.simulate(req);
                if (!r.ok() ||
                    r.value.cycles != ref[k].cycles ||
                    r.value.instructions != ref[k].instructions ||
                    r.value.exitCode != ref[k].exitCode ||
                    r.value.exited != ref[k].exited)
                    ++failures[t];
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "client " << t;

    // The seed pass populated both keys, so every threaded request
    // was answerable from the cache.
    Server::Counters ctr = server.counters();
    EXPECT_GE(ctr.simCacheHits, uint64_t(kThreads) * kIters);
    EXPECT_EQ(ctr.errors, 0u);
    server.stop();
}

} // namespace
} // namespace eel::svc
