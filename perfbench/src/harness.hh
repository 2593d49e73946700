/**
 * @file
 * Shared plumbing of the benchmark workloads: options, operation
 * accounting, the result line, timing statistics, set-up timing, and
 * the per-layer metrics every workload derives the same way.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hh"
#include "trace.hh"

namespace perfbench
{

class LayerReplay;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Weight seed of every session: the model is fixed, the workload
 *  seed picks only the streams and questions it serves. */
inline constexpr uint64_t kModelSeed = 42;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Trace-event JSON written by a traced run. */
    std::string traceOut;
};

/** Attempted / failed counts of one kind of operation. */
struct OpCount
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** Operation kinds every workload accounts for. A correctness check
 *  counts as an operation too, and a failed check as a failure. */
struct Ops
{
    OpCount frames, questions, answerTokens, sessions, visits, checks;

    uint64_t attempted() const;
    uint64_t failed() const;
    /** One human-readable line per kind (stdout, before the JSON). */
    void print() const;
};

/** Metrics, correctness and operation counts of one run. */
class Report
{
  public:
    /** Set a metric; its unit comes from the metric tables. */
    void metric(const std::string &name, double value);
    /** Record a correctness check in ops.checks; a failure clears
     *  correct() and counts as a failed operation. */
    bool check(bool ok, const std::string &what);
    bool correct() const { return allCorrect; }

    Ops ops;

    /** Print the ops lines, then the result JSON as the last line:
     *  the end-to-end metrics, or the per-layer ones when traced. A
     *  missing, non-finite or (end-to-end) non-positive metric makes
     *  the run incorrect. */
    void print(bool traced) const;

  private:
    std::map<std::string, double> values;
    bool allCorrect = true;
};

/** Nearest-rank percentile of @p samples (q in [0, 1]). */
double percentile(std::vector<double> samples, double q);

/**
 * Samples of one quantity, grouped by round. Summaries are the median
 * over rounds of each round's statistic, so a round disturbed by
 * something outside the benchmark does not move them.
 */
class RoundSamples
{
  public:
    void add(double v) { current.push_back(v); }
    /** Close the current round. */
    void endRound();

    /** Median over rounds of the round's q-percentile. */
    double percentileOfRounds(double q) const;
    /** Median over rounds of items / (sum of the round's samples in
     *  ms, as seconds), with @p items_per_sample items per sample. */
    double ratePerSecond(double items_per_sample) const;
    size_t count() const;
    size_t rounds() const { return done.size(); }

  private:
    std::vector<std::vector<double>> done;
    std::vector<double> current;
};

/** Peak resident set of this process so far, MiB. */
double peakRssMib();

/** CPUs this process may run on. */
uint32_t cpuCount();

/** Derive an independent 64-bit value from (seed, salt). */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/**
 * Time @p reps set-ups and return the median in seconds. Each rep
 * runs @p teardown (untimed, drops the previous rep's state), then
 * @p setup (timed). The last rep's state stays for the timed window.
 */
double timeSetups(int reps, const std::function<void()> &setup,
                  const std::function<void()> &teardown);

/** Warm-up run by every set-up: one short session through the
 *  engine (create, two frames, a short question, close). */
void warmUp(vrex::serve::Engine &engine,
            const vrex::serve::SessionOptions &options);

/**
 * Closed-loop client verbs. Each submits work for one session, waits
 * until the session has drained it (the client can see the result),
 * and returns the elapsed milliseconds. Each counts its operations in
 * Ops; a rejection or an exception marks them failed and throws.
 */
class Client
{
  public:
    Client(vrex::serve::Engine &e, Ops &o) : engine(e), ops(o)
    {
    }

    /** createSession(), timed as the serve.create span. */
    vrex::serve::SessionId
    create(const vrex::serve::SessionOptions &options);
    /** closeSession(). */
    void close(vrex::serve::SessionId id);
    /** Stream @p n frames; returns when all are ingested. */
    double frames(vrex::serve::SessionId id, uint32_t n);
    /** A question of @p tokens and the first answer token. */
    double firstToken(vrex::serve::SessionId id, uint32_t tokens);
    /** The next @p n answer tokens, as one submission. */
    double tokens(vrex::serve::SessionId id, uint32_t n);

    /** Enqueue without waiting (staged bursts; see release()). */
    void submitFrame(vrex::serve::SessionId id);
    void submitQuestion(vrex::serve::SessionId id, uint32_t tokens);
    void submitToken(vrex::serve::SessionId id);
    /** Run @p stage while dispatch is paused, then release it all at
     *  once; returns, per session of @p ids (waited for in order), the
     *  time from release until it had drained. */
    std::vector<double>
    release(const std::vector<vrex::serve::SessionId> &ids,
            const std::function<void()> &stage);

    vrex::serve::Engine &engine;
    Ops &ops;

  private:
    void submit(vrex::serve::SessionId id,
                const std::vector<vrex::SessionEvent> &events);
};

/** One named workload of the benchmark. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Engine configuration; a traced run installs the timing
     *  decorators (policy factory, cold store). */
    virtual vrex::serve::EngineConfig engineConfig(bool traced) = 0;
    /** Options of the set-up's warm-up session. */
    virtual vrex::serve::SessionOptions warmUpOptions() const = 0;
    /** One round: the same operations in every round and every run. */
    virtual void round(Client &client) = 0;
    /** End-to-end metrics from every round measured so far. */
    virtual void endToEnd(Report &report) const = 0;
    /** Check every recorded round against independently computed
     *  expectations. */
    virtual void verify(Report &report) = 0;
    /** Traced run, after verify() (both with spans on Track::Replay):
     *  replay one round through the layer calls, or reuse the replay
     *  verify() made, check it against the engine's bytes, and report
     *  the per-layer metrics. */
    virtual void layerMetrics(Report &report,
                              const vrex::serve::Stats &stats,
                              double window_s) = 0;
};

/**
 * Run @p workload: time the set-up, run whole rounds for
 * opt.seconds, report. A traced run spends half the window untraced
 * and half traced on a second, instrumented engine, and reports the
 * difference in round time as trace.overhead_pct.
 */
void runWorkload(Workload &workload, const Options &opt, Report &report);

/** FNV-1a over @p bytes at @p data, continuing from hash @p h. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 0xcbf29ce484222325ull);

/** FNV-1a over every K/V element and token record of @p cache. */
uint64_t cacheHash(const vrex::KVCache &cache);

/** Every head of every block selected at most its past length. */
bool headsWithinPast(const vrex::Model &model);

// The workloads (one translation unit each).
std::unique_ptr<Workload> makeEdgeStream(const Options &opt);
std::unique_ptr<Workload> makeServeMix(const Options &opt);
std::unique_ptr<Workload> makeResumeChurn(const Options &opt);

/**
 * Per-layer metrics common to all workloads, from the recorded spans,
 * the replayed sessions of one round, and the engine's stats:
 * video/llm/core self times, llm and core counts, tensor kernel
 * rates (measured here at the model's own shapes, with @p fused_rows
 * rows for the grouped kernel), and the serve counters.
 */
void commonLayerMetrics(Report &report,
                        const std::vector<const LayerReplay *> &round,
                        const vrex::serve::Stats &stats,
                        uint32_t workers, double window_seconds,
                        uint32_t fused_rows);

/** Print each layer's share of the replay's self time. */
void printSelfTimeShares();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
