#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string_view>

namespace perfbench {

namespace {

// Initialized during static initialization, before main(): set-up
// times are measured from here.
const std::chrono::steady_clock::time_point processStart =
    std::chrono::steady_clock::now();

std::atomic<bool> tracing{false};

/** One thread's spans plus its stack of open ones. Owned by the
 *  registry so the records outlive the thread. */
struct ThreadBuffer
{
    uint32_t thread = 0;
    std::vector<SpanRecord> records;
    std::vector<size_t> open;  ///< indices into records
};

std::mutex registryMu;
std::vector<std::shared_ptr<ThreadBuffer>> registry;

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buf = [] {
        auto b = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(registryMu);
        b->thread = static_cast<uint32_t>(registry.size());
        registry.push_back(b);
        return b;
    }();
    return *buf;
}

bool
isLayer(const char *name)
{
    return std::string_view(name).rfind("bench.", 0) != 0;
}

bool
inside(const SpanRecord &s, const Window &w)
{
    return s.thread == w.thread && s.startNs >= w.startNs &&
           s.endNs <= w.endNs;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - processStart)
        .count();
}

namespace trace {

void
enable()
{
    tracing.store(true);
}

bool
enabled()
{
    return tracing.load(std::memory_order_relaxed);
}

uint32_t
threadIndex()
{
    return localBuffer().thread;
}

std::vector<SpanRecord>
spans()
{
    std::vector<SpanRecord> out;
    std::lock_guard<std::mutex> lock(registryMu);
    for (const auto &b : registry)
        out.insert(out.end(), b->records.begin(), b->records.end());
    return out;
}

bool
write(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    bool first = true;
    for (const SpanRecord &s : spans()) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     first ? "" : ",", s.name, s.thread,
                     double(s.startNs) * 1e-3,
                     double(s.endNs - s.startNs) * 1e-3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

double
total(const std::vector<SpanRecord> &all, const std::string &name,
      const std::vector<Window> &windows)
{
    int64_t ns = 0;
    for (const SpanRecord &s : all) {
        if (name != s.name)
            continue;
        for (const Window &w : windows)
            if (inside(s, w)) {
                ns += s.endNs - s.startNs;
                break;
            }
    }
    return double(ns) * 1e-9;
}

double
coverage(const std::vector<SpanRecord> &all,
         const std::vector<Window> &windows)
{
    int64_t wall = 0, covered = 0;
    for (const Window &w : windows) {
        wall += w.endNs - w.startNs;
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (const SpanRecord &s : all)
            if (isLayer(s.name) && inside(s, w))
                iv.emplace_back(s.startNs, s.endNs);
        std::sort(iv.begin(), iv.end());
        int64_t end = w.startNs;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            if (b > a) {
                covered += b - a;
                end = b;
            }
        }
    }
    return wall ? 100.0 * double(covered) / double(wall) : 0.0;
}

} // namespace trace

Span::Span(const char *name)
{
    if (!trace::enabled())
        return;
    ThreadBuffer &b = localBuffer();
    SpanRecord r;
    r.name = name;
    r.thread = b.thread;
    r.id = (uint64_t(b.thread) << 32) | (b.records.size() + 1);
    r.parent = b.open.empty() ? 0 : b.records[b.open.back()].id;
    r.startNs = nowNs();
    slot = b.records.size();
    // Appending under the registry lock keeps spans() safe to call
    // while other threads still record.
    std::lock_guard<std::mutex> lock(registryMu);
    b.records.push_back(r);
    b.open.push_back(slot);
}

Span::~Span()
{
    if (slot == ~size_t(0))
        return;
    ThreadBuffer &b = localBuffer();
    int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(registryMu);
    b.records[slot].endNs = end;
    b.open.pop_back();
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double idx = p * double(v.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = idx - double(lo);
    return v[lo] * (1 - frac) + v[hi] * frac;
}

void
OpTimes::add(double seconds)
{
    if (next == byOp.size())
        byOp.emplace_back();
    byOp[next++].push_back(seconds);
}

void
OpTimes::endRound()
{
    next = 0;
}

double
OpTimes::op(size_t i) const
{
    const std::vector<double> &v = byOp.at(i);
    return *std::min_element(v.begin(), v.end());
}

double
OpTimes::round() const
{
    double s = 0;
    for (size_t i = 0; i < byOp.size(); ++i)
        s += op(i);
    return s;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t
directoryBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    uint64_t bytes = 0;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec))
        if (it->is_regular_file(ec))
            bytes += it->file_size(ec);
    return bytes;
}

} // namespace perfbench
