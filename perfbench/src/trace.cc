#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point epoch = Clock::now();

std::atomic<bool> tracingOn{false};
std::atomic<uint32_t> currentTrack{
    static_cast<uint32_t>(Track::Engine)};
std::atomic<uint64_t> nextSpanId{1};
std::atomic<uint32_t> nextThread{1};

std::mutex recordMu;
std::vector<Span> recorded; // Guarded by recordMu.

/** Ids of the spans open on this thread, innermost last. */
thread_local std::vector<uint64_t> openSpans;
thread_local uint32_t threadIndex = 0;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

const char *
trackName(Track track)
{
    return track == Track::Engine ? "engine run" : "layer replay";
}

} // namespace

namespace tracer
{

void
enable(bool on)
{
    tracingOn.store(on);
}

bool
enabled()
{
    return tracingOn.load(std::memory_order_relaxed);
}

void
setTrack(Track track)
{
    currentTrack.store(static_cast<uint32_t>(track));
}

std::vector<Span>
spans()
{
    std::lock_guard<std::mutex> lock(recordMu);
    return recorded;
}

bool
writeJson(const std::string &path)
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (Track t : {Track::Engine, Track::Replay})
        std::fprintf(f,
                     "{\"name\":\"process_name\",\"ph\":\"M\","
                     "\"pid\":%u,\"tid\":0,\"args\":{\"name\":\"%s\"}},\n",
                     static_cast<uint32_t>(t), trackName(t));
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(
            f,
            "{\"name\":\"%s\",\"cat\":\"vrex\",\"ph\":\"X\","
            "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
            "\"args\":{\"id\":%llu,\"parent\":%llu,\"session\":%lld,"
            "\"items\":%u}}%s\n",
            s.name, s.startNs / 1e3, (s.endNs - s.startNs) / 1e3,
            static_cast<uint32_t>(s.track), s.thread,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<long long>(s.session), s.items,
            i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace tracer

ScopedSpan::ScopedSpan(const char *name, int64_t session,
                       uint32_t items)
    : on(tracer::enabled())
{
    if (!on)
        return;
    if (threadIndex == 0)
        threadIndex = nextThread.fetch_add(1);
    span.name = name;
    span.id = nextSpanId.fetch_add(1);
    span.parent = openSpans.empty() ? 0 : openSpans.back();
    span.session = session;
    span.items = items;
    span.track = static_cast<Track>(currentTrack.load());
    span.thread = threadIndex;
    openSpans.push_back(span.id);
    span.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!on)
        return;
    span.endNs = nowNs();
    openSpans.pop_back();
    std::lock_guard<std::mutex> lock(recordMu);
    recorded.push_back(span);
}

std::map<std::string, SpanTotals>
aggregate(const std::vector<Span> &spans, Track track)
{
    std::unordered_map<uint64_t, int64_t> childNs;
    for (const Span &s : spans)
        if (s.parent != 0)
            childNs[s.parent] += s.endNs - s.startNs;

    std::map<std::string, SpanTotals> out;
    for (const Span &s : spans) {
        if (s.track != track)
            continue;
        SpanTotals &t = out[s.name];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        const auto child = childNs.find(s.id);
        ++t.count;
        t.items += s.items;
        t.totalNs += dur;
        t.selfNs += dur - (child == childNs.end()
                               ? 0.0
                               : static_cast<double>(child->second));
    }
    return out;
}

} // namespace perfbench
