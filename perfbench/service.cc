/**
 * @file
 * Workload `service`: an in-process svc::Server driven over loopback
 * by the benchmark's own svc::Client, with a build-farm edit loop.
 *
 * Hot set: one image per SPEC95 shape (18), 3 to 40 kernels each, a
 * fixed corpus warmed during set-up (submitted, rewritten into every
 * kind the server accepts, simulated).
 *
 * The request mix is svc::LoadConfig's build-farm mix (loadgen.hh:
 * resubmit 0.45, edit 0.15, rewrite 0.25, simulate 0.15), laid out as
 * twenty slots per hot image. Where LoadConfig resubmits one of three
 * recycled edited variants, an edit slot here is a fresh edit session:
 * SUBMIT a freshly edited copy of the hot image, then REWRITE and
 * SIMULATE it — the misses. Every other slot goes to the hot image
 * itself — the hits. A round is every hot image's twenty slots, 468
 * requests, 162 of them misses, in an order the seed shuffles once
 * per run, so every round sends the same requests (fresh edits aside)
 * in the same order. Misses write fresh pages and cache entries while
 * hits read them, so the store and both caches are used both ways.
 *
 * Two passes over one connection, in whole rounds:
 *   closed loop — no think time: throughput, the edit-session
 *     turnaround and the median request latency, each request's
 *     figure being its fastest over the rounds (OpTimes); peak RSS is
 *     read after a fixed number of rounds;
 *   open loop — Poisson arrivals at the fixed rate kOpenRate for the
 *     whole rounds that fill about a third of the run, each request
 *     timed from its scheduled send: per layer, p50, p99 and how late
 *     the generator sent.
 * One server worker and one connection, so that the threads that do
 * work never outnumber the CPUs even on a small host; all of them run
 * on one CPU.
 *
 * REWRITE kind 5 (edit::VariantKind::Pipeline) is not sent: the
 * server answers it BadRequest (see CHANGES.md).
 */

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <thread>

#include <sched.h>

#include "bench.hh"
#include "checks.hh"
#include "src/eel/batch.hh"
#include "src/exe/section_store.hh"
#include "src/machine/model.hh"
#include "src/obs/histogram.hh"
#include "src/sim/timing.hh"
#include "src/support/thread_pool.hh"
#include "src/svc/client.hh"
#include "src/svc/server.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

namespace perfbench {

using namespace eel;

namespace {

constexpr const char *kMachine = "ultrasparc";
constexpr unsigned kServerThreads = 1;
/** Dynamic scale of the hot images: LoadConfig's imageScale. */
constexpr double kImageScale = 0.02;

/** One slot of a hot image's share of a round. */
enum Slot : uint8_t { Resubmit, Edit, RewriteHot, SimulateHot };
/** LoadConfig's weights over twenty slots: 9 resubmits, 3 edit
 *  sessions, 5 rewrites (one per kind), 3 simulates. */
constexpr Slot kSlots[] = {
    Resubmit,   Resubmit,   Resubmit,   Resubmit,    Resubmit,
    Resubmit,   Resubmit,   Resubmit,   Resubmit,    Edit,
    Edit,       Edit,       RewriteHot, RewriteHot,  RewriteHot,
    RewriteHot, RewriteHot, SimulateHot, SimulateHot, SimulateHot,
};
static_assert(std::size(kSlots) == 20);

/** Open-loop offered rate, requests/s, on the one connection
 *  (LoadConfig offers 200 over four connections, 50 on each). A fixed
 *  constant, never calibrated from the run, about a tenth of the
 *  one-connection closed-loop capacity (README.md). */
constexpr double kOpenRate = 100;
/** REWRITE kinds the server accepts: Identity .. Superblock. */
constexpr uint8_t kKinds = 5;
/** Kinds an edit session asks for: the counter-carrying tiers. */
constexpr uint8_t kSessionKinds[] = {1, 2, 3, 4};
/** Closed-loop rounds before peak RSS is read. The server's caches
 *  grow with every fresh session, so the figure is taken after a fixed
 *  amount of work, not a fixed time; the closed pass runs at least
 *  this many rounds. */
constexpr unsigned kMemoryRounds = 8;
/** Every kSampleEvery-th edit session is checked against direct
 *  library calls after the passes (traced runs repeat every one). */
constexpr unsigned kSampleEvery = 16;
constexpr uint32_t kDeadlineMs = 30000;
/** The open-loop generator spins this long before each send. */
constexpr int64_t kSpinNs = 200000;

enum ReqOp : uint8_t { Submit, Rewrite, Simulate };
const char *const kOpHist[] = {"svc.op.submit_xef", "svc.op.rewrite",
                               "svc.op.simulate"};

struct HotImage
{
    std::string bytes;
    exe::Executable image;
    uint64_t id = 0;
    uint32_t pages = 0;
};

/** One step of a round: a slot of one hot image, with the REWRITE
 *  kind of a rewrite slot or an edit session. */
struct Step
{
    Slot slot = Resubmit;
    uint32_t hot = 0;
    uint8_t kind = 0;
};

/** Every hot image's twenty slots, in an order the seed picks. Each
 *  image's rewrite slots ask for kinds 0..4 once each; its three edit
 *  sessions ask for three of the four counter-carrying kinds, rotating
 *  with the image, so a round's make-up does not depend on the seed. */
std::vector<Step>
makePlan(size_t hotCount, uint64_t seed)
{
    std::vector<Step> plan;
    for (uint32_t h = 0; h < hotCount; ++h) {
        uint8_t rewrites = 0, sessions = 0;
        for (Slot slot : kSlots) {
            Step st{slot, h, 0};
            if (slot == RewriteHot)
                st.kind = rewrites++;
            else if (slot == Edit)
                st.kind = kSessionKinds[(h + sessions++) %
                                        std::size(kSessionKinds)];
            plan.push_back(st);
        }
    }
    std::mt19937_64 rng(seed * 7919);
    std::shuffle(plan.begin(), plan.end(), rng);
    return plan;
}

/** One fresh edit: hot image h with its data words xored by `edit`.
 *  The xor touches the low mantissa half of a big-endian double (or
 *  any integer word), so the program's control flow and termination
 *  are unchanged; distinct edits give distinct bytes. */
struct EditRef
{
    uint32_t hot = 0;
    uint32_t edit = 0;
    uint8_t kind = 0;
};

std::string
editedBytes(const HotImage &hot, uint32_t edit)
{
    exe::Executable x = hot.image;
    for (unsigned k = 0; k < 4; ++k)
        x.data.set(4 + k, static_cast<uint8_t>(x.data[4 + k] ^
                                               (edit >> (8 * k))));
    return x.saveBytes();
}

struct Sample
{
    uint8_t op = 0;
    bool miss = false;
    double latencyMs = 0;  ///< from the scheduled send (open loop)
    double actualMs = 0;   ///< from the actual send
};

struct Session
{
    EditRef ref;
    double ms[3] = {};  ///< submit, rewrite, simulate latency
    std::optional<std::string> rewriteXef;  ///< sampled sessions
    svc::SimulateReply sim;
};

struct PassResult
{
    std::vector<Sample> samples;
    /** Each request's latency (s) by its place in the round. */
    OpTimes times;
    /** Places in the round of each edit session's three requests. */
    std::vector<size_t> sessionOps;
    std::vector<Session> sessions;
    std::vector<double> lagMs;
    /** The last hit reply per (hot image, kind) and per hot image,
     *  checked against direct calls after the passes. */
    std::vector<std::string> hitRewrite;
    std::vector<std::optional<svc::SimulateReply>> hitSim;
    uint64_t sent[3] = {};
    uint64_t failed = 0;
    uint32_t thread = 0;  ///< trace thread index
    int64_t startNs = 0, endNs = 0;
    std::vector<std::string> errors;
    /** Closed loop: peak RSS after kMemoryRounds rounds, and the fresh
     *  sessions finished by then. */
    double markRssMb = 0;
    uint64_t markSessions = 0;
};

/** Requests in one round of the plan. */
size_t
requestsPerRound(const std::vector<Step> &plan)
{
    size_t n = 0;
    for (const Step &step : plan)
        n += step.slot == Edit ? 3 : 1;
    return n;
}

/**
 * One pass over one connection. The closed loop runs whole rounds for
 * `seconds`, and at least kMemoryRounds; the open loop sends `rounds`
 * whole rounds on a Poisson schedule at kOpenRate.
 */
PassResult
pass(const Options &opts, const std::vector<HotImage> &hot,
     const std::vector<Step> &plan, uint16_t port, unsigned passIndex,
     bool open, double seconds, unsigned rounds)
{
    PassResult out;
    out.hitRewrite.resize(hot.size() * kKinds);
    out.hitSim.resize(hot.size());
    auto note = [&](std::string err) {
        if (!err.empty() && out.errors.size() < 20)
            out.errors.push_back(std::move(err));
    };

    // The client thread runs as SCHED_BATCH, so the wakeup a reply
    // gives it never preempts the server thread that wrote the reply.
    // Otherwise the server's own end-of-request stamp, taken once its
    // write returns, could wait for the client's next request, and the
    // server's latency would read above the client's.
    struct BatchPolicy
    {
        BatchPolicy()
        {
            sched_param none{};
            sched_setscheduler(0, SCHED_BATCH, &none);
        }
        ~BatchPolicy()
        {
            sched_param none{};
            sched_setscheduler(0, SCHED_OTHER, &none);
        }
    } batchPolicy;
    svc::Client client = svc::Client::dialTcp(port);
    std::mt19937_64 rng(opts.seed * 7919 + passIndex * 131);
    std::exponential_distribution<double> gap(kOpenRate / 1000.0);
    const uint32_t editBase = (passIndex << 24) + 1;
    uint32_t sessions = 0;
    const int64_t t0 = nowNs();
    double dueMs = 0;  // open loop: next scheduled send, from t0
    const int64_t endNs = t0 + int64_t(seconds * 1e9);
    out.thread = trace::threadIndex();
    out.startNs = t0;
    Span passSpan("bench.connection");

    auto send = [&](ReqOp op, bool miss, auto &&call) {
        int64_t due = nowNs();
        if (open) {
            dueMs += gap(rng);
            due = t0 + int64_t(dueMs * 1e6);
            int64_t now = nowNs();
            if (now < due) {
                // Sleep to just short of the due time, then spin, so
                // timer slack does not count as latency.
                Span w("bench.wait");
                if (due - now > kSpinNs)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due - now - kSpinNs));
                while (nowNs() < due) {
                }
                out.lagMs.push_back(double(nowNs() - due) * 1e-6);
            }
        }
        int64_t sentNs = nowNs();
        svc::Status st = call();
        int64_t doneNs = nowNs();
        ++out.sent[op];
        if (st != svc::Status::Ok)
            ++out.failed;
        Sample smp;
        smp.op = op;
        smp.miss = miss;
        smp.latencyMs = double(doneNs - due) * 1e-6;
        smp.actualMs = double(doneNs - sentNs) * 1e-6;
        out.samples.push_back(smp);
        out.times.add(smp.latencyMs * 1e-3);
        return smp.actualMs;
    };

    // A round's fresh edits, built before the round so that the client
    // does no work of its own between one reply and the next request.
    std::vector<std::string> fresh;
    size_t nextFresh = 0;
    auto buildEdits = [&] {
        Span e("bench.edit");
        fresh.clear();
        nextFresh = 0;
        uint32_t edit = editBase + sessions;
        for (const Step &step : plan)
            if (step.slot == Edit)
                fresh.push_back(editedBytes(hot[step.hot], edit++));
    };

    // SUBMIT a fresh edit of hot image h, REWRITE it, SIMULATE it.
    auto session = [&](const Step &step) {
        Session s;
        s.ref.hot = step.hot;
        s.ref.edit = editBase + sessions;
        s.ref.kind = step.kind;
        const bool sampled = sessions++ % kSampleEvery == 0;
        const std::string &bytes = fresh.at(nextFresh++);
        const uint64_t freshId = check::fnv1a64(bytes);
        s.ms[0] = send(Submit, true, [&] {
            Span sp("svc.submit");
            auto r = client.submit(bytes);
            if (r.ok())
                note(check::submitReply(r.value, freshId,
                                        hot[step.hot].pages, false));
            return r.status;
        });
        s.ms[1] = send(Rewrite, true, [&] {
            Span sp("svc.rewrite");
            svc::RewriteRequest rq;
            rq.imageId = freshId;
            rq.kind = s.ref.kind;
            rq.deadlineMs = kDeadlineMs;
            auto r = client.rewrite(rq);
            if (r.ok() && sampled)
                s.rewriteXef = std::move(r.value.xef);
            return r.status;
        });
        s.ms[2] = send(Simulate, true, [&] {
            Span sp("svc.simulate");
            svc::SimulateRequest rq;
            rq.imageId = freshId;
            rq.deadlineMs = kDeadlineMs;
            auto r = client.simulate(rq);
            s.sim = r.value;
            return r.status;
        });
        if (!open || sampled)
            out.sessions.push_back(std::move(s));
    };

    for (uint32_t round = 0;; ++round) {
        if (!open && round == kMemoryRounds) {
            out.markRssMb = peakRssMb();
            out.markSessions = sessions;
        }
        if (open ? round == rounds
                 : nowNs() >= endNs && round >= kMemoryRounds)
            break;
        buildEdits();
        for (const Step &step : plan) {
            const HotImage &h = hot[step.hot];
            if (round == 0 && step.slot == Edit)
                for (size_t k = 0; k < 3; ++k)
                    out.sessionOps.push_back(out.times.ops() + k);
            switch (step.slot) {
              case Edit:
                session(step);
                break;
              case Resubmit:
                send(Submit, false, [&] {
                    Span sp("svc.submit");
                    auto r = client.submit(h.bytes);
                    if (r.ok())
                        note(check::submitReply(r.value, h.id, h.pages,
                                                true));
                    return r.status;
                });
                break;
              case RewriteHot: {
                svc::RewriteRequest rq;
                rq.imageId = h.id;
                rq.kind = step.kind;
                rq.deadlineMs = kDeadlineMs;
                send(Rewrite, false, [&] {
                    Span sp("svc.rewrite");
                    auto r = client.rewrite(rq);
                    if (r.ok())
                        out.hitRewrite[step.hot * kKinds + rq.kind] =
                            std::move(r.value.xef);
                    return r.status;
                });
                break;
              }
              case SimulateHot: {
                svc::SimulateRequest rq;
                rq.imageId = h.id;
                rq.deadlineMs = kDeadlineMs;
                send(Simulate, false, [&] {
                    Span sp("svc.simulate");
                    auto r = client.simulate(rq);
                    if (r.ok())
                        out.hitSim[step.hot] = r.value;
                    return r.status;
                });
                break;
              }
            }
        }
        out.times.endRound();
    }
    out.endNs = nowNs();
    return out;
}

/** The reference for REWRITE: BatchRewriter in a private store. */
std::string
directRewrite(const std::string &bytes, uint8_t kind,
              const machine::MachineModel &m, support::ThreadPool &pool,
              exe::SectionStore &store, double *internS = nullptr,
              double *rewriteS = nullptr)
{
    Stopwatch sw;
    exe::Executable in;
    {
        Span s("exe.intern");
        in = exe::Executable::loadBytes(bytes);
        store.internCounted(in);
    }
    if (internS)
        *internS = sw.seconds();
    Stopwatch rw;
    Span s("eel.batch_rewrite");
    edit::BatchOptions bo;
    bo.model = &m;
    bo.pool = &pool;
    bo.store = &store;
    edit::BatchRewriter rewriter(in, bo);
    std::string out =
        rewriter.rewriteAll({static_cast<edit::VariantKind>(kind)})
            .variants.at(0)
            .image.saveBytes();
    if (rewriteS)
        *rewriteS = rw.seconds();
    return out;
}

sim::TimedRun
directSimulate(const std::string &bytes, const machine::MachineModel &m,
               double *seconds = nullptr)
{
    exe::Executable x = exe::Executable::loadBytes(bytes);
    Stopwatch sw;
    Span s("sim.direct_timing");
    sim::TimedRun r = sim::timedRun(x, m);
    if (seconds)
        *seconds = sw.seconds();
    return r;
}

std::string
simulateCheck(const std::string &what, const svc::SimulateReply &reply,
              const sim::TimedRun &r)
{
    return check::simulateReply(what, reply, r.result.instructions,
                                r.cycles, r.result.exitCode,
                                r.result.exited);
}

} // namespace

void
runService(const Options &opts, Report &rep)
{
    // --- set-up: model, hot images, server start and warm-up ---------
    const machine::MachineModel &m = machine::MachineModel::builtin(kMachine);
    std::vector<workload::BenchmarkSpec> shapes = workload::spec95(kMachine);
    std::vector<HotImage> hot;
    for (size_t i = 0; i < shapes.size(); ++i) {
        workload::BenchmarkSpec spec = shapes[i];
        // From the stand-ins' 3 kernels to 40, spread evenly over the
        // shapes, so that request costs vary with image size.
        spec.kernels = unsigned(3 + (37 * i + 8) / 17);
        // A fixed corpus: the seed picks the traffic, not the images,
        // so that the median request is the same one from seed to seed.
        spec.seed = 1000 + i;
        workload::GenOptions g;
        g.scale = kImageScale;
        g.machine = &m;
        HotImage h;
        {
            Span s("workload.generate");
            h.image = workload::generate(spec, g);
        }
        h.bytes = h.image.saveBytes();
        h.id = check::fnv1a64(h.bytes);
        h.pages = check::pagesOf(h.image);
        hot.push_back(std::move(h));
    }

    // Every thread of the run shares the CPU the run started on; the
    // server's threads, created below, inherit this. Requests go one at
    // a time, so one CPU serves them, and a wake-up on another CPU of a
    // virtual machine costs what the host makes it cost: an interleaved
    // comparison's slowest run read 19% above the pinned one (README.md).
    if (int cpu = sched_getcpu(); cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
    }
    svc::ServerConfig scfg;
    scfg.threads = kServerThreads;
    scfg.defaultMachine = kMachine;
    svc::Server server(scfg);
    server.start();

    std::map<std::string, uint64_t> sent;  // by op histogram name
    std::vector<double> clientMs;          // every request, actual send
    std::vector<std::string> warmRewrites(hot.size() * kKinds);
    std::vector<svc::SimulateReply> warmSim(hot.size() * 3);
    // The profiled (kind 1) and locally scheduled (kind 3) variants go
    // back in for % Hidden.
    auto variantXef = [&](size_t i, unsigned v) -> const std::string & {
        return warmRewrites[i * kKinds + 1 + 2 * v];
    };
    {
        svc::Client c = svc::Client::dialTcp(server.port());
        auto timedCall = [&](ReqOp op, auto &&call) {
            Stopwatch sw;
            auto r = call();
            clientMs.push_back(sw.ms());
            ++sent[kOpHist[op]];
            if (!r.ok())
                rep.check("warm-up " + std::string(kOpHist[op]) + ": " +
                          svc::statusName(r.status) + " " + r.message);
            return r;
        };
        auto simulate = [&](uint64_t id) {
            svc::SimulateRequest rq;
            rq.imageId = id;
            rq.deadlineMs = kDeadlineMs;
            return timedCall(Simulate, [&] { return c.simulate(rq); }).value;
        };
        for (size_t i = 0; i < hot.size(); ++i) {
            auto r = timedCall(Submit, [&] { return c.submit(hot[i].bytes); });
            rep.check(check::submitReply(r.value, hot[i].id, hot[i].pages,
                                         false));
            for (uint8_t k = 0; k < kKinds; ++k) {
                svc::RewriteRequest rq;
                rq.imageId = hot[i].id;
                rq.kind = k;
                rq.deadlineMs = kDeadlineMs;
                warmRewrites[i * kKinds + k] =
                    timedCall(Rewrite, [&] { return c.rewrite(rq); }).value.xef;
            }
            warmSim[i * 3] = simulate(hot[i].id);
            for (unsigned v = 0; v < 2; ++v) {
                timedCall(Submit, [&] { return c.submit(variantXef(i, v)); });
                warmSim[i * 3 + 1 + v] = simulate(check::fnv1a64(variantXef(i, v)));
            }
        }
    }
    const svc::Server::Counters ctr0 = server.counters();
    const exe::SectionStore::Stats store0 = server.store().stats();
    const sim::ResultCache::Stats cache0 = server.rescache().stats();
    const double setupS = nowS();
    const double setupRssMb = peakRssMb();

    // --- timed part ---------------------------------------------------
    const std::vector<Step> plan = makePlan(hot.size(), opts.seed);
    // The open pass: the whole rounds that fill about a third of the
    // run at the fixed rate. The closed pass gets the rest.
    const double roundAtRateS = double(requestsPerRound(plan)) / kOpenRate;
    const unsigned openRounds =
        std::max(1u, unsigned(std::lround(opts.seconds / 3 / roundAtRateS)));
    const double closedS =
        std::max(0.0, opts.seconds - openRounds * roundAtRateS);
    const PassResult closed =
        pass(opts, hot, plan, server.port(), 0, false, closedS, 0);
    const PassResult open =
        pass(opts, hot, plan, server.port(), 1, true, 0, openRounds);

    const svc::Server::Counters ctr1 = server.counters();
    const exe::SectionStore::Stats store1 = server.store().stats();
    const sim::ResultCache::Stats cache1 = server.rescache().stats();
    server.stop();  // drains; every histogram record has landed

    // --- figures ------------------------------------------------------
    std::vector<double> openMs;
    std::map<std::pair<int, bool>, std::vector<double>> byOp;
    for (const Sample &s : closed.samples)
        byOp[{s.op, s.miss}].push_back(s.actualMs);
    for (const Sample &s : open.samples)
        openMs.push_back(s.latencyMs);
    for (const PassResult *p : {&closed, &open}) {
        rep.attempted += p->samples.size();
        rep.failed += p->failed;
        for (const std::string &e : p->errors)
            rep.check(e);
        for (int op = 0; op < 3; ++op)
            sent[kOpHist[op]] += p->sent[op];
        for (const Sample &s : p->samples)
            clientMs.push_back(s.actualMs);
    }
    // A closed round's time, and an edit session's turnaround, from
    // each request's fastest latency over the rounds (OpTimes).
    const double closedRoundS = closed.times.round();
    double sessionsS = 0;
    for (size_t i : closed.sessionOps)
        sessionsS += closed.times.op(i);
    const double sessionsPerRound = double(closed.sessionOps.size() / 3);
    // The median request latency: the median over a closed round's
    // requests of each one's fastest latency.
    std::vector<double> closedOpMs;
    for (size_t i = 0; i < closed.times.ops(); ++i)
        closedOpMs.push_back(closed.times.op(i) * 1e3);
    std::fprintf(stderr,
                 "perfbench: service closed loop %zu rounds (%.3f s a "
                 "round), open loop %zu rounds\n",
                 closed.times.rounds(), closedRoundS, open.times.rounds());

    // --- checks outside the timed part --------------------------------
    // Hot images: the warm-up replies, which the server computed, and
    // the last hit reply of each kind in each pass, which it answered
    // from its caches.
    support::ThreadPool pool(1);
    double textBytes = 0;
    for (size_t i = 0; i < hot.size(); ++i) {
        const std::string what = "hot " + std::to_string(i);
        exe::SectionStore store;
        for (uint8_t k = 0; k < kKinds; ++k) {
            const std::string kind = " kind " + std::to_string(k);
            const std::string &reply = warmRewrites[i * kKinds + k];
            const std::string direct =
                directRewrite(hot[i].bytes, k, m, pool, store);
            rep.check(check::rewriteReply(what + kind, reply, direct));
            for (const PassResult *p : {&closed, &open})
                if (!p->hitRewrite[i * kKinds + k].empty())
                    rep.check(check::rewriteReply(what + kind + " (hit)",
                                                  p->hitRewrite[i * kKinds + k],
                                                  direct));
            textBytes += 4.0 * exe::Executable::loadBytes(reply).text.size();
        }
        const sim::TimedRun direct = directSimulate(hot[i].bytes, m);
        rep.check(simulateCheck(what, warmSim[i * 3], direct));
        for (const PassResult *p : {&closed, &open})
            if (p->hitSim[i])
                rep.check(simulateCheck(what + " (hit)", *p->hitSim[i],
                                        direct));
        for (unsigned v = 0; v < 2; ++v)
            rep.check(simulateCheck("hot variant " + std::to_string(i),
                                    warmSim[i * 3 + 1 + v],
                                    directSimulate(variantXef(i, v), m)));
    }
    int64_t hiddenNum = 0, hiddenDen = 0;
    for (size_t i = 0; i < hot.size(); ++i) {
        int64_t base = int64_t(warmSim[i * 3].cycles);
        int64_t inst = int64_t(warmSim[i * 3 + 1].cycles);
        int64_t sched = int64_t(warmSim[i * 3 + 2].cycles);
        hiddenNum += inst - sched;
        hiddenDen += inst - base;
    }

    // Fresh sessions: every sampled one (all of them when traced, which
    // also times the direct library calls for the overhead figures).
    std::vector<double> internS, rewriteS, simS, overheadMs;
    exe::SectionStore directStore;
    for (const HotImage &h : hot) {
        exe::Executable x = h.image;
        directStore.intern(x);
    }
    for (const PassResult *p : {&closed, &open})
        for (const Session &s : p->sessions) {
            if (!s.rewriteXef && !(opts.trace && p == &closed))
                continue;
            std::string bytes = editedBytes(hot[s.ref.hot], s.ref.edit);
            double iS = 0, rS = 0, sS = 0;
            std::string xef = directRewrite(bytes, s.ref.kind, m, pool,
                                            directStore, &iS, &rS);
            sim::TimedRun run = directSimulate(bytes, m, &sS);
            std::string what = "fresh edit " + std::to_string(s.ref.edit);
            if (s.rewriteXef)
                rep.check(check::rewriteReply(what, *s.rewriteXef, xef));
            rep.check(simulateCheck(what, s.sim, run));
            if (p == &closed) {
                internS.push_back(iS);
                rewriteS.push_back(rS);
                simS.push_back(sS);
                overheadMs.push_back(s.ms[0] - iS * 1e3);
                overheadMs.push_back(s.ms[1] - rS * 1e3);
                overheadMs.push_back(s.ms[2] - sS * 1e3);
            }
        }

    std::vector<obs::HistogramSnapshot> hists = obs::histogramsSnapshot();
    std::map<std::string, uint64_t> counted;
    obs::HistogramSnapshot ops;  // every op merged
    for (const obs::HistogramSnapshot &h : hists) {
        if (std::find(std::begin(kOpHist), std::end(kOpHist), h.name) ==
            std::end(kOpHist))
            continue;
        counted[h.name] = h.count;
        if (ops.counts.empty())
            ops = h;
        else
            ops.merge(h);
    }
    rep.check(check::opCounts(counted, sent));
    rep.check(check::serverP50(double(ops.percentile(0.5)) * 1e-3,
                               median(clientMs), 0.032));

    if (!opts.trace) {
        rep.add("setup_s", setupS, "s");
        rep.add("regen_s", sessionsS / sessionsPerRound, "s");
        rep.add("variants_per_s", sessionsPerRound / closedRoundS, "1/s");
        rep.add("requests_per_s",
                double(requestsPerRound(plan)) / closedRoundS, "1/s");
        rep.add("p50_ms", median(closedOpMs), "ms");
        rep.add("hidden_pct", 100.0 * double(hiddenNum) / double(hiddenDen), "%");
        rep.add("variant_text_kb",
                textBytes / double(hot.size() * kKinds) / 1024.0, "KiB");
        rep.add("peak_rss_mb", closed.markRssMb, "MB");
        return;
    }

    auto rate = [](uint64_t hits, uint64_t calls) {
        return calls ? double(hits) / double(calls) : 0.0;
    };
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / double(v.size());
    };
    double queueP99 = 0;
    for (const obs::HistogramSnapshot &h : hists)
        if (h.name == "svc.phase.queue")
            queueP99 = double(h.percentile(0.99)) * 1e-3;
    const std::vector<SpanRecord> spans = trace::spans();
    rep.add("workload.generate_s",
            trace::total(spans, "workload.generate",
                         {{trace::threadIndex(), 0, int64_t(setupS * 1e9)}}),
            "s");
    rep.add("svc.submit_ms",
            median([&] {
                std::vector<double> v = byOp[{Submit, true}];
                v.insert(v.end(), byOp[{Submit, false}].begin(),
                         byOp[{Submit, false}].end());
                return v;
            }()),
            "ms");
    rep.add("svc.rewrite_miss_ms", median(byOp[{Rewrite, true}]), "ms");
    rep.add("svc.simulate_miss_ms", median(byOp[{Simulate, true}]), "ms");
    rep.add("svc.rewrite_hit_ms", median(byOp[{Rewrite, false}]), "ms");
    rep.add("svc.simulate_hit_ms", median(byOp[{Simulate, false}]), "ms");
    rep.add("exe.intern_s", mean(internS), "s");
    rep.add("eel.batch_rewrite_s", mean(rewriteS), "s");
    rep.add("sim.direct_timing_s", mean(simS), "s");
    rep.add("svc.overhead_ms", median(overheadMs), "ms");
    rep.add("svc.queue_p99_ms", queueP99, "ms");
    rep.add("exe.intern_hit_rate",
            rate(store1.internHits - store0.internHits,
                 store1.internCalls - store0.internCalls),
            "ratio");
    rep.add("svc.rewrite_cache_hit_rate",
            rate(ctr1.rewriteCacheHits - ctr0.rewriteCacheHits,
                 ctr1.rewrites - ctr0.rewrites),
            "ratio");
    rep.add("sim.rescache_hit_rate",
            rate(cache1.hits - cache0.hits, cache1.lookups - cache0.lookups),
            "ratio");
    rep.add("exe.store_live_mb", double(store1.liveBytes) / 1e6, "MB");
    rep.add("svc.rss_kb_per_session",
            (closed.markRssMb - setupRssMb) * 1024.0 /
                double(closed.markSessions),
            "KiB");
    rep.add("svc.open_p50_ms", percentile(openMs, 0.50), "ms");
    rep.add("svc.open_p99_ms", percentile(openMs, 0.99), "ms");
    rep.add("svc.open_lag_ms", percentile(open.lagMs, 0.99), "ms");
    rep.add("trace.coverage_pct",
            trace::coverage(spans, {{closed.thread, closed.startNs,
                                     closed.endNs}}),
            "%");
    rep.add("trace.regen_s", sessionsS / sessionsPerRound, "s");
}

} // namespace perfbench
