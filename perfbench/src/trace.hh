/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * A ScopedSpan marks one call into a layer: name, start, end, the
 * span that was open on the same thread when it began (its parent),
 * the session it serves, and how many work items it covers (frames,
 * fused members). Spans stay in memory until the run ends and are
 * then written as Chrome trace-event JSON, which Perfetto
 * (ui.perfetto.dev) and chrome://tracing load directly. When tracing
 * is off a ScopedSpan costs one branch.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Trace-event process a span is filed under. */
enum class Track : uint32_t
{
    Engine = 1, //!< The timed workload driven through serve::Engine.
    Replay = 2, //!< Layer calls replayed outside the engine.
};

/** One finished span. */
struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = no enclosing span on this thread.
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t session = -1; //!< Engine session id, -1 when unknown.
    uint32_t items = 1;
    Track track = Track::Engine;
    uint32_t thread = 0;
};

/** Process-wide recorder (all functions are thread-safe). */
namespace tracer
{

void enable(bool on);
bool enabled();

/** Track new spans are filed under. */
void setTrack(Track track);

/** Copy of every span recorded so far. */
std::vector<Span> spans();

/** Write all spans as trace-event JSON; false on an I/O error. */
bool writeJson(const std::string &path);

} // namespace tracer

/** Records one span from construction to destruction. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, int64_t session = -1,
                        uint32_t items = 1);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Span span;
    bool on;
};

/** Totals of one span name on one track. */
struct SpanTotals
{
    uint64_t count = 0;
    uint64_t items = 0;
    double totalNs = 0.0;
    /** Duration minus the time covered by child spans. */
    double selfNs = 0.0;

    double meanMs() const { return count ? totalNs / count / 1e6 : 0.0; }
    /** Self time per work item, in milliseconds. */
    double selfPerItemMs() const
    {
        return items ? selfNs / static_cast<double>(items) / 1e6 : 0.0;
    }
};

/** Aggregate @p spans of @p track by name. */
std::map<std::string, SpanTotals>
aggregate(const std::vector<Span> &spans, Track track);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
