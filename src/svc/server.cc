#include "src/svc/server.hh"

#include <algorithm>
#include <sys/socket.h>

#include "src/eel/batch.hh"
#include "src/machine/model.hh"
#include "src/obs/histogram.hh"
#include "src/obs/http.hh"
#include "src/obs/log.hh"
#include "src/obs/metrics.hh"
#include "src/obs/trace.hh"
#include "src/sim/timing.hh"
#include "src/support/logging.hh"

namespace eel::svc {

using Clock = std::chrono::steady_clock;
using TL = obs::RequestTimeline;

namespace {

obs::Metric &
mRequests()
{
    static obs::Metric m("svc.requests", obs::MetricKind::Counter);
    return m;
}

obs::Metric &
mRewriteCacheHits()
{
    static obs::Metric m("svc.rewrite_cache_hits",
                         obs::MetricKind::Counter);
    return m;
}

obs::Metric &
mQueueDepth()
{
    static obs::Metric m("svc.queue_depth",
                         obs::MetricKind::MaxGauge);
    return m;
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::SubmitXef: return "submit_xef";
      case Op::Rewrite: return "rewrite";
      case Op::Simulate: return "simulate";
      case Op::Stats: return "stats";
    }
    return "?";
}

/** Whole-request latency, one histogram per op (ticks = us). */
obs::Histogram &
opHistogram(uint8_t code)
{
    static obs::Histogram submit("svc.op.submit_xef");
    static obs::Histogram rewrite("svc.op.rewrite");
    static obs::Histogram simulate("svc.op.simulate");
    static obs::Histogram stats("svc.op.stats");
    switch (static_cast<Op>(code)) {
      case Op::SubmitXef: return submit;
      case Op::Rewrite: return rewrite;
      case Op::Simulate: return simulate;
      case Op::Stats: break;
    }
    return stats;
}

/** Per-phase duration across all ops (ticks = us). */
obs::Histogram &
phaseHistogram(TL::Phase p)
{
    static obs::Histogram queue("svc.phase.queue");
    static obs::Histogram decode("svc.phase.decode");
    static obs::Histogram rewrite("svc.phase.rewrite");
    static obs::Histogram sim("svc.phase.sim");
    static obs::Histogram rescache("svc.phase.rescache");
    static obs::Histogram replyWrite("svc.phase.reply");
    switch (p) {
      case TL::Queue: return queue;
      case TL::Decode: return decode;
      case TL::Rewrite: return rewrite;
      case TL::Sim: return sim;
      case TL::CacheLookup: return rescache;
      case TL::Reply: break;
      case TL::kPhases: break;
    }
    return replyWrite;
}

} // namespace

struct Server::ConnState
{
    Conn conn;
    explicit ConnState(Conn c) : conn(std::move(c)) {}
};

struct Server::Job
{
    std::shared_ptr<ConnState> cs;
    Frame frame;
    Clock::time_point deadline;
    obs::RequestTimeline tl;
};

Server::Server(ServerConfig cfg)
    : cfg(cfg),
      _rescache(sim::ResultCache::Config{cfg.resultCacheDir,
                                         &_store}),
      _pool(cfg.threads)
{
    _store.setGcWatermark(cfg.storeGcWatermark);
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (cfg.unixPath.empty())
        listener.listenTcp(cfg.tcpPort);
    else
        listener.listenUnix(cfg.unixPath);
    started = true;
    acceptor = std::thread([this] {
        obs::setThreadName("svc-accept");
        acceptLoop();
    });
    dispatcher = std::thread([this] {
        obs::setThreadName("svc-dispatch");
        // One loop per pool thread of execution: every compute
        // thread drains the queue until drain/stop empties it.
        _pool.parallelFor(_pool.size(), [this](size_t) {
            workerLoop();
        });
    });
    if (cfg.httpEnabled) {
        httpListener.listenTcp(cfg.httpPort);
        httpAcceptor = std::thread([this] {
            obs::setThreadName("svc-http");
            httpLoop();
        });
        obs::logf(obs::LogLevel::Info, "svc: http port=%u",
                  unsigned(httpListener.port()));
    }
    if (cfg.unixPath.empty())
        obs::logf(obs::LogLevel::Info,
                  "svc: listening port=%u threads=%u queue=%zu",
                  unsigned(port()), _pool.size(),
                  cfg.queueCapacity);
    else
        obs::logf(obs::LogLevel::Info,
                  "svc: listening unix=%s threads=%u queue=%zu",
                  cfg.unixPath.c_str(), _pool.size(),
                  cfg.queueCapacity);
}

void
Server::beginDrain()
{
    if (!draining.exchange(true)) {
        obs::logf(obs::LogLevel::Info, "svc: draining");
        listener.wake();
        qcv.notify_all();
    }
}

void
Server::stop()
{
    if (!started || stopped)
        return;
    beginDrain();
    // The dispatcher returns once every worker loop has seen
    // "draining and queue empty" — i.e. all admitted work is done
    // and answered.
    if (dispatcher.joinable())
        dispatcher.join();
    stopping.store(true);
    httpListener.wake();
    if (httpAcceptor.joinable())
        httpAcceptor.join();
    {
        // Shut the sockets down (not close — readers own the fds)
        // so readers blocked in recv() wake with EOF.
        std::lock_guard<std::mutex> lock(connMu);
        for (auto &w : conns)
            if (auto cs = w.lock())
                if (cs->conn.ok())
                    ::shutdown(cs->conn.fd(), SHUT_RDWR);
    }
    for (std::thread &t : readers)
        if (t.joinable())
            t.join();
    if (acceptor.joinable())
        acceptor.join();
    stopped = true;
    obs::logf(obs::LogLevel::Info, "svc: stopped");
}

void
Server::acceptLoop()
{
    for (;;) {
        Conn c = listener.accept();
        if (!c.ok() || draining.load())
            return;
        auto cs = std::make_shared<ConnState>(std::move(c));
        std::lock_guard<std::mutex> lock(connMu);
        {
            std::lock_guard<std::mutex> clock(ctrMu);
            ++ctr.accepted;
        }
        // Prune registry slots of connections that fully wound down.
        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const std::weak_ptr<ConnState>
                                          &w) {
                                       return w.expired();
                                   }),
                    conns.end());
        conns.push_back(cs);
        readers.emplace_back([this, cs] {
            obs::setThreadName("svc-conn");
            readerLoop(cs);
        });
    }
}

void
Server::reply(ConnState &cs, uint32_t seq, Status st,
              std::string body)
{
    Frame f;
    f.seq = seq;
    f.code = static_cast<uint8_t>(st);
    f.body = std::move(body);
    try {
        cs.conn.writeFrame(f);
    } catch (const FatalError &e) {
        // Peer went away; the reader will notice on its next read.
        obs::logf(obs::LogLevel::Debug, "svc: reply dropped: %s",
                  e.what());
    }
}

void
Server::readerLoop(std::shared_ptr<ConnState> cs)
{
    for (;;) {
        Frame f;
        try {
            if (!cs->conn.readFrame(f, cfg.maxFrameBytes))
                break;  // clean EOF
        } catch (const FatalError &e) {
            // Malformed framing: we may not even know the seq, so
            // answer seq 0 and hang up — the stream is unsynchronized.
            {
                std::lock_guard<std::mutex> lock(ctrMu);
                ++ctr.badFrames;
            }
            obs::logf(obs::LogLevel::Warn, "svc: bad frame: %s",
                      e.what());
            reply(*cs, 0, Status::BadFrame, e.what());
            break;
        }

        obs::RequestTimeline tl;
        tl.tsAccept = obs::nowNs();
        if (f.code & kTraceContextFlag) {
            // Trace-context extension: strip the 9-byte prefix only
            // when the masked code is a real op; any other flagged
            // code falls through to the unknown-op reply unchanged,
            // so pre-extension garbage keeps its old answer.
            uint8_t op = f.code & uint8_t(~kTraceContextFlag);
            if (op >= uint8_t(Op::SubmitXef) &&
                op <= uint8_t(Op::Stats)) {
                try {
                    TraceContext tc =
                        TraceContext::stripPrefix(f.body);
                    tl.traceId = tc.traceId;
                    tl.sampled = tc.sampled();
                    f.code = op;
                } catch (const FatalError &e) {
                    // Framing was fine, the prefix wasn't: answer on
                    // this seq and keep the connection.
                    {
                        std::lock_guard<std::mutex> lock(ctrMu);
                        ++ctr.badFrames;
                    }
                    reply(*cs, f.seq, Status::BadFrame, e.what());
                    continue;
                }
            }
        }

        if (f.code < uint8_t(Op::SubmitXef) ||
            f.code > uint8_t(Op::Stats)) {
            std::lock_guard<std::mutex> lock(ctrMu);
            ++ctr.badFrames;
            reply(*cs, f.seq, Status::BadRequest,
                  strfmt("unknown op %u", unsigned(f.code)));
            continue;
        }
        tl.seq = f.seq;
        tl.op = opName(static_cast<Op>(f.code));
        if (draining.load()) {
            std::lock_guard<std::mutex> lock(ctrMu);
            ++ctr.drainRejected;
            reply(*cs, f.seq, Status::Draining,
                  "server is draining");
            continue;
        }

        // Pull the deadline out of the body without a full decode:
        // it binds from arrival, so queueing delay counts against it.
        uint32_t wantMs = 0;
        try {
            if (f.code == uint8_t(Op::Rewrite))
                wantMs = RewriteRequest::decode(f.body).deadlineMs;
            else if (f.code == uint8_t(Op::Simulate))
                wantMs = SimulateRequest::decode(f.body).deadlineMs;
        } catch (const FatalError &) {
            // Let the worker produce the BadFrame reply.
        }
        if (wantMs == 0)
            wantMs = cfg.defaultDeadlineMs;
        wantMs = std::min(wantMs, cfg.maxDeadlineMs);

        Job job;
        job.cs = cs;
        job.frame = std::move(f);
        job.deadline =
            Clock::now() + std::chrono::milliseconds(wantMs);
        job.tl = std::move(tl);
        job.tl.begin(TL::Queue);
        {
            std::lock_guard<std::mutex> lock(qmu);
            if (queue.size() >= cfg.queueCapacity) {
                std::lock_guard<std::mutex> clock(ctrMu);
                ++ctr.busyRejected;
                reply(*cs, job.frame.seq, Status::Busy,
                      "admission queue full");
                continue;
            }
            queue.push_back(std::move(job));
            mQueueDepth().observe(queue.size());
        }
        {
            std::lock_guard<std::mutex> lock(ctrMu);
            ++ctr.requests;
        }
        mRequests().add(1);
        qcv.notify_one();
    }
    // Do not close here: queued jobs from this connection may still
    // hold the ConnState and write their replies. The fd closes with
    // the last strong reference.
}

void
Server::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(qmu);
            qcv.wait(lock, [this] {
                return !queue.empty() || draining.load();
            });
            if (queue.empty()) {
                if (draining.load())
                    return;
                continue;
            }
            job = std::move(queue.front());
            queue.pop_front();
        }
        try {
            process(job);
        } catch (const std::exception &e) {
            // Never let a request abort the pool batch.
            {
                std::lock_guard<std::mutex> lock(ctrMu);
                ++ctr.errors;
            }
            obs::logf(obs::LogLevel::Error,
                      "svc: request failed: %s", e.what());
            replyTimed(job, Status::ServerError, e.what());
        }
    }
}

void
Server::process(Job &job)
{
    job.tl.end(TL::Queue);
    const Frame &f = job.frame;

    if (Clock::now() >= job.deadline &&
        f.code != uint8_t(Op::Stats)) {
        {
            std::lock_guard<std::mutex> lock(ctrMu);
            ++ctr.deadlineExpired;
        }
        // SIMULATE's DeadlineExceeded body is always a SimulateReply
        // (here: zero progress), so clients decode it uniformly.
        replyTimed(
            job, Status::DeadlineExceeded,
            f.code == uint8_t(Op::Simulate)
                ? SimulateReply{}.encode()
                : std::string("deadline expired before execution"));
        return;
    }

    Status st = Status::Ok;
    std::string body;
    try {
        switch (static_cast<Op>(f.code)) {
          case Op::SubmitXef:
            body = handleSubmit(f, job.tl);
            {
                std::lock_guard<std::mutex> lock(ctrMu);
                ++ctr.submits;
            }
            break;
          case Op::Rewrite:
            body = handleRewrite(f, st, job.tl);
            {
                std::lock_guard<std::mutex> lock(ctrMu);
                ++ctr.rewrites;
            }
            break;
          case Op::Simulate:
            body = handleSimulate(f, job.deadline, st, job.tl);
            {
                std::lock_guard<std::mutex> lock(ctrMu);
                ++ctr.simulates;
            }
            break;
          case Op::Stats:
            body = statsJson();
            {
                std::lock_guard<std::mutex> lock(ctrMu);
                ++ctr.statsCalls;
            }
            break;
        }
    } catch (const FatalError &e) {
        // Body decode failures and bad arguments land here; the
        // message tells the client what was wrong.
        std::string what = e.what();
        bool frameShaped = what.find("wire:") != std::string::npos;
        bool imageShaped = what.find("xef") != std::string::npos ||
                           what.find("payload") != std::string::npos;
        st = frameShaped ? Status::BadFrame
             : imageShaped ? Status::BadImage
                           : Status::BadRequest;
        body = std::move(what);
        std::lock_guard<std::mutex> lock(ctrMu);
        ++ctr.badFrames;
    }
    if (st == Status::DeadlineExceeded) {
        std::lock_guard<std::mutex> lock(ctrMu);
        ++ctr.deadlineExpired;
    }
    replyTimed(job, st, std::move(body));
}

void
Server::replyTimed(Job &job, Status st, std::string body)
{
    job.tl.status = statusName(st);
    job.tl.begin(TL::Reply);
    reply(*job.cs, job.frame.seq, st, std::move(body));
    job.tl.end(TL::Reply);
    job.tl.tsDone = obs::nowNs();
    finishTimeline(job.tl, job.frame.code);
}

void
Server::finishTimeline(obs::RequestTimeline &tl, uint8_t opCode)
{
    opHistogram(opCode).record(tl.totalNs() / 1000);
    for (unsigned p = 0; p < TL::kPhases; ++p)
        if (tl.phase[p].set())
            phaseHistogram(static_cast<TL::Phase>(p))
                .record(tl.phase[p].ns() / 1000);
    tl.emitTrace();
    if (tl.totalNs() / 1000000 >=
        static_cast<uint64_t>(cfg.slowRequestMs)) {
        {
            std::lock_guard<std::mutex> lock(ctrMu);
            ++ctr.slowRequests;
        }
        std::lock_guard<std::mutex> lock(slowMu);
        slowRing.push_back(tl.json());
        while (slowRing.size() > cfg.slowRingSize)
            slowRing.pop_front();
    }
}

std::string
Server::handleSubmit(const Frame &req, obs::RequestTimeline &tl)
{
    // loadBytes throws FatalError mentioning "payload" on malformed
    // containers — mapped to BadImage by the caller.
    tl.begin(TL::Decode);
    exe::Executable x = exe::Executable::loadBytes(req.body);
    exe::SectionStore::InternCounts ic = _store.internCounted(x);
    tl.end(TL::Decode);

    SubmitReply r;
    r.imageId = contentId(req.body);
    r.pages = static_cast<uint32_t>(ic.pages);
    r.pageHits = static_cast<uint32_t>(ic.hits);

    auto image =
        std::make_shared<const exe::Executable>(std::move(x));
    std::lock_guard<std::mutex> lock(regMu);
    auto it = images.find(r.imageId);
    if (it != images.end()) {
        imageLru.erase(it->second.lru);
        imageLru.push_front(r.imageId);
        it->second.lru = imageLru.begin();
        it->second.image = std::move(image);
    } else {
        imageLru.push_front(r.imageId);
        images.emplace(r.imageId,
                       ImageEntry{std::move(image),
                                  imageLru.begin()});
        if (images.size() > cfg.maxImages) {
            images.erase(imageLru.back());
            imageLru.pop_back();
        }
    }
    return r.encode();
}

std::shared_ptr<const exe::Executable>
Server::findImage(uint64_t id)
{
    std::lock_guard<std::mutex> lock(regMu);
    auto it = images.find(id);
    if (it == images.end())
        return nullptr;
    imageLru.erase(it->second.lru);
    imageLru.push_front(id);
    it->second.lru = imageLru.begin();
    return it->second.image;
}

std::string
Server::handleRewrite(const Frame &req, Status &st,
                      obs::RequestTimeline &tl)
{
    RewriteRequest r = RewriteRequest::decode(req.body);
    auto image = findImage(r.imageId);
    if (!image) {
        st = Status::BadImage;
        return strfmt("unknown image id %llx",
                      static_cast<unsigned long long>(r.imageId));
    }
    if (r.kind > uint8_t(edit::VariantKind::Pipeline))
        fatal("unknown rewrite kind %u", unsigned(r.kind));
    std::string machineName =
        r.machine.empty() ? cfg.defaultMachine : r.machine;
    // Throws FatalError ("unknown builtin machine") -> BadRequest.
    const machine::MachineModel &model =
        machine::MachineModel::builtin(machineName);

    std::string key;
    putU64(key, r.imageId);
    putU8(key, r.kind);
    key += machineName;
    tl.begin(TL::CacheLookup);
    {
        std::lock_guard<std::mutex> lock(regMu);
        auto it = rewrites.find(key);
        if (it != rewrites.end()) {
            rewriteLru.erase(it->second.lru);
            rewriteLru.push_front(key);
            it->second.lru = rewriteLru.begin();
            {
                std::lock_guard<std::mutex> clock(ctrMu);
                ++ctr.rewriteCacheHits;
            }
            mRewriteCacheHits().add(1);
            RewriteReply rep;
            rep.cached = 1;
            rep.xef = *it->second.xef;
            tl.end(TL::CacheLookup);
            return rep.encode();
        }
    }
    tl.end(TL::CacheLookup);

    tl.begin(TL::Rewrite);
    edit::BatchOptions opts;
    opts.model = &model;
    opts.pool = &_pool;  // reentrant: runs inline on this worker
    opts.store = &_store;
    edit::BatchRewriter rewriter(*image, opts);
    edit::BatchResult res = rewriter.rewriteAll(
        {static_cast<edit::VariantKind>(r.kind)});
    tl.end(TL::Rewrite);

    RewriteReply rep;
    rep.cached = 0;
    rep.xef = res.variants.at(0).image.saveBytes();

    auto cached = std::make_shared<const std::string>(rep.xef);
    std::lock_guard<std::mutex> lock(regMu);
    if (rewrites.find(key) == rewrites.end()) {
        rewriteLru.push_front(key);
        rewrites.emplace(key, RewriteEntry{std::move(cached),
                                           rewriteLru.begin()});
        if (rewrites.size() > cfg.maxRewriteCache) {
            rewrites.erase(rewriteLru.back());
            rewriteLru.pop_back();
        }
    }
    return rep.encode();
}

std::string
Server::handleSimulate(const Frame &req,
                       Clock::time_point deadline, Status &st,
                       obs::RequestTimeline &tl)
{
    SimulateRequest r = SimulateRequest::decode(req.body);
    auto image = findImage(r.imageId);
    if (!image) {
        st = Status::BadImage;
        return strfmt("unknown image id %llx",
                      static_cast<unsigned long long>(r.imageId));
    }
    std::string machineName =
        r.machine.empty() ? cfg.defaultMachine : r.machine;
    const machine::MachineModel &model =
        machine::MachineModel::builtin(machineName);

    sim::RunBudget budget;
    budget.cancel = [deadline] {
        return Clock::now() >= deadline;
    };
    budget.sliceInstructions = cfg.sliceInstructions;
    budget.decodeStore = &_store;

    sim::Emulator::Config ecfg;
    if (r.limit)
        ecfg.maxInstructions = r.limit;

    SimulateReply rep;
    if (r.timing) {
        // Content-addressed: the key covers the image's pages, the
        // machine fingerprint, and ecfg (so different limits never
        // collide). A hit is a finished run by construction —
        // cancelled runs are never stored — so it can't owe a
        // DeadlineExceeded.
        tl.begin(TL::CacheLookup);
        const sim::ResultCache::ImageKey ikey =
            _rescache.imageKey(*image, model, {}, ecfg, 0, 0, nullptr);
        const sim::ResultCache::Key key = _rescache.serialRunKey(ikey);
        sim::ResultCache::Record rec;
        bool hit = _rescache.lookup(ikey, key, *image, ecfg, rec);
        tl.end(TL::CacheLookup);
        if (hit) {
            rep.instructions = rec.insts;
            rep.cycles = rec.cycles;
            rep.exitCode = static_cast<uint32_t>(rec.exitCode);
            rep.exited = rec.exited;
            std::lock_guard<std::mutex> lock(ctrMu);
            ++ctr.simCacheHits;
        } else {
            tl.begin(TL::Sim);
            sim::TimedRun run =
                sim::timedRun(*image, model, budget, {}, ecfg);
            tl.end(TL::Sim);
            rep.instructions = run.result.instructions;
            rep.cycles = run.cycles;
            rep.exitCode =
                static_cast<uint32_t>(run.result.exitCode);
            rep.exited = run.result.exited;
            if (run.cancelled) {
                // Partial progress is deadline-dependent, not
                // content-dependent: caching it would replay one
                // client's timeout to everyone else.
                st = Status::DeadlineExceeded;
            } else {
                rec.insts = run.result.instructions;
                rec.cycles = run.cycles;
                rec.exitCode = run.result.exitCode;
                rec.exited = run.result.exited;
                rec.output = std::move(run.result.output);
                rec.hist = std::move(run.issueHistogram);
                rec.breakdown = run.stallBreakdown;
                rec.stallCycles = run.stallCycles;
                _rescache.store(ikey, key, {}, rec, *image);
            }
        }
    } else {
        // Functional-only: same slicing, no pipeline model.
        tl.begin(TL::Sim);
        sim::Emulator emu(*image, ecfg,
                          sim::Emulator::decodeText(*image, _store));
        sim::NullSink sink;
        const uint64_t cap = ecfg.maxInstructions;
        while (!emu.finished() && emu.retired() < cap) {
            uint64_t step = std::min(budget.sliceInstructions,
                                     cap - emu.retired());
            sim::RunResult rr = emu.run(sink, step);
            rep.instructions += rr.instructions;
            if (emu.finished()) {
                rep.exited = true;
                rep.exitCode = static_cast<uint32_t>(rr.exitCode);
                break;
            }
            if (budget.cancel()) {
                st = Status::DeadlineExceeded;
                break;
            }
        }
        tl.end(TL::Sim);
    }
    return rep.encode();
}

Server::Counters
Server::counters() const
{
    std::lock_guard<std::mutex> lock(ctrMu);
    return ctr;
}

std::string
Server::latencyJson()
{
    std::vector<obs::HistogramSnapshot> life =
        obs::histogramsSnapshot();
    std::vector<obs::HistogramSnapshot> win =
        obs::histogramsWindow(60);
    std::string out = "{";
    for (size_t i = 0; i < life.size(); ++i) {
        const obs::HistogramSnapshot &h = life[i];
        const obs::HistogramSnapshot *w =
            i < win.size() && win[i].name == h.name ? &win[i]
                                                    : nullptr;
        if (i)
            out += ',';
        out += strfmt(
            "\"%s\":{\"unit\":\"%s\",\"count\":%llu,"
            "\"p50_us\":%llu,\"p99_us\":%llu,"
            "\"window60s\":{\"count\":%llu,\"p50_us\":%llu,"
            "\"p99_us\":%llu}}",
            h.name.c_str(), h.unit.c_str(),
            static_cast<unsigned long long>(h.count),
            static_cast<unsigned long long>(h.percentile(0.50)),
            static_cast<unsigned long long>(h.percentile(0.99)),
            static_cast<unsigned long long>(w ? w->count : 0),
            static_cast<unsigned long long>(
                w ? w->percentile(0.50) : 0),
            static_cast<unsigned long long>(
                w ? w->percentile(0.99) : 0));
    }
    out += '}';
    return out;
}

std::string
Server::slowRequestsJson()
{
    std::string out =
        strfmt("{\"threshold_ms\":%u,\"requests\":[",
               unsigned(cfg.slowRequestMs));
    {
        std::lock_guard<std::mutex> lock(slowMu);
        for (size_t i = 0; i < slowRing.size(); ++i) {
            if (i)
                out += ',';
            out += slowRing[i];
        }
    }
    out += "]}";
    return out;
}

std::string
Server::statsJson()
{
    Counters c = counters();
    exe::SectionStore::Stats ss = _store.stats();
    sim::ResultCache::Stats rc = _rescache.stats();
    size_t nImages, nRewrites;
    {
        std::lock_guard<std::mutex> lock(regMu);
        nImages = images.size();
        nRewrites = rewrites.size();
    }
    size_t depth;
    {
        std::lock_guard<std::mutex> lock(qmu);
        depth = queue.size();
    }
    std::string js = strfmt(
        "{\"accepted\":%llu,\"requests\":%llu,\"submits\":%llu,"
        "\"rewrites\":%llu,\"simulates\":%llu,\"stats\":%llu,"
        "\"bad_frames\":%llu,\"busy_rejected\":%llu,"
        "\"drain_rejected\":%llu,\"deadline_expired\":%llu,"
        "\"rewrite_cache_hits\":%llu,\"sim_cache_hits\":%llu,"
        "\"errors\":%llu,"
        "\"queue_depth\":%zu,\"images\":%zu,\"rewrite_cache\":%zu,"
        "\"store\":{\"intern_calls\":%zu,\"intern_hits\":%zu,"
        "\"live_chunks\":%zu,\"live_bytes\":%zu,"
        "\"table_entries\":%zu,\"view_entries\":%zu,"
        "\"gc_runs\":%zu,\"gc_reclaimed_pages\":%zu},"
        "\"rescache\":{\"lookups\":%llu,\"hits\":%llu,"
        "\"disk_hits\":%llu,\"misses\":%llu,"
        "\"invalidations\":%llu,\"stores\":%llu,"
        "\"disk_loaded\":%llu,\"disk_rejects\":%llu}}",
        static_cast<unsigned long long>(c.accepted),
        static_cast<unsigned long long>(c.requests),
        static_cast<unsigned long long>(c.submits),
        static_cast<unsigned long long>(c.rewrites),
        static_cast<unsigned long long>(c.simulates),
        static_cast<unsigned long long>(c.statsCalls),
        static_cast<unsigned long long>(c.badFrames),
        static_cast<unsigned long long>(c.busyRejected),
        static_cast<unsigned long long>(c.drainRejected),
        static_cast<unsigned long long>(c.deadlineExpired),
        static_cast<unsigned long long>(c.rewriteCacheHits),
        static_cast<unsigned long long>(c.simCacheHits),
        static_cast<unsigned long long>(c.errors), depth, nImages,
        nRewrites, ss.internCalls, ss.internHits, ss.liveChunks,
        ss.liveBytes, ss.tableEntries, ss.viewEntries, ss.gcRuns,
        ss.gcReclaimedPages,
        static_cast<unsigned long long>(rc.lookups),
        static_cast<unsigned long long>(rc.hits),
        static_cast<unsigned long long>(rc.diskHits),
        static_cast<unsigned long long>(rc.misses),
        static_cast<unsigned long long>(rc.invalidations),
        static_cast<unsigned long long>(rc.stores),
        static_cast<unsigned long long>(rc.diskEntriesLoaded),
        static_cast<unsigned long long>(rc.diskRejects));
    // Splice the telemetry block in before the closing brace so the
    // strfmt above stays readable.
    js.pop_back();
    js += strfmt(",\"http_requests\":%llu,\"slow_requests\":%llu,"
                 "\"latency\":",
                 static_cast<unsigned long long>(c.httpRequests),
                 static_cast<unsigned long long>(c.slowRequests));
    js += latencyJson();
    js += '}';
    return js;
}

// --- HTTP telemetry gateway ----------------------------------------

void
Server::httpLoop()
{
    for (;;) {
        Conn c = httpListener.accept();
        if (!c.ok() || stopping.load())
            return;
        // Serve inline: scrapes are rare and tiny, so one at a time
        // keeps the thread count flat, and the receive timeout below
        // bounds how long a stalled peer can hold the gateway.
        serveHttp(std::move(c));
    }
}

void
Server::serveHttp(Conn c)
{
    struct timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    auto send = [&c](const std::string &resp) {
        try {
            c.writeRaw(resp);
        } catch (const FatalError &) {
            // Peer hung up first; nothing to do.
        }
    };

    std::string buf;
    obs::http::Request req;
    size_t consumed = 0;
    for (;;) {
        obs::http::ParseResult pr =
            obs::http::parseRequest(buf, req, consumed);
        if (pr == obs::http::ParseResult::Ok)
            break;
        if (pr == obs::http::ParseResult::Bad) {
            send(obs::http::response(400, "text/plain",
                                     "bad request\n"));
            return;
        }
        if (pr == obs::http::ParseResult::TooLarge) {
            send(obs::http::response(431, "text/plain",
                                     "header block too large\n"));
            return;
        }
        char tmp[4096];
        ssize_t n = ::recv(c.fd(), tmp, sizeof tmp, 0);
        if (n <= 0)
            return;  // EOF or timeout mid-request: nothing to answer
        buf.append(tmp, static_cast<size_t>(n));
    }
    {
        std::lock_guard<std::mutex> lock(ctrMu);
        ++ctr.httpRequests;
    }
    if (req.method != "GET") {
        send(obs::http::response(405, "text/plain",
                                 "method not allowed\n"));
        return;
    }
    std::string target = req.target.substr(0, req.target.find('?'));
    if (target == "/metrics")
        send(obs::http::response(
            200, "text/plain; version=0.0.4",
            obs::http::prometheusText(httpMetricsExtra())));
    else if (target == "/stats")
        send(obs::http::response(200, "application/json",
                                 statsJson()));
    else if (target == "/requests/slow")
        send(obs::http::response(200, "application/json",
                                 slowRequestsJson()));
    else
        send(obs::http::response(404, "text/plain", "not found\n"));
}

std::string
Server::httpMetricsExtra()
{
    Counters c = counters();
    std::string out;
    auto line = [&out](const char *name, uint64_t v) {
        out += strfmt("# TYPE %s counter\n%s %llu\n", name, name,
                      static_cast<unsigned long long>(v));
    };
    line("eel_svc_accepted_total", c.accepted);
    line("eel_svc_requests_total", c.requests);
    line("eel_svc_submits_total", c.submits);
    line("eel_svc_rewrites_total", c.rewrites);
    line("eel_svc_simulates_total", c.simulates);
    line("eel_svc_bad_frames_total", c.badFrames);
    line("eel_svc_busy_rejected_total", c.busyRejected);
    line("eel_svc_deadline_expired_total", c.deadlineExpired);
    line("eel_svc_rewrite_cache_hits_total", c.rewriteCacheHits);
    line("eel_svc_sim_cache_hits_total", c.simCacheHits);
    line("eel_svc_errors_total", c.errors);
    line("eel_svc_http_requests_total", c.httpRequests);
    line("eel_svc_slow_requests_total", c.slowRequests);
    return out;
}

} // namespace eel::svc
