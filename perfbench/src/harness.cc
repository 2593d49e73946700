#include "harness.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "instrument.hh"
#include "replay.hh"
#include "tensor/ops.hh"

namespace perfbench
{

namespace
{

/** End-to-end metrics every untraced run reports, with units. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"frames_per_s", "frames/s"},
    {"frame_p50_ms", "ms"},
    {"frame_p95_ms", "ms"},
    {"ttft_p50_ms", "ms"},
    {"tpot_p50_ms", "ms"},
    {"tokens_per_s", "tokens/s"},
    {"sessions_per_s", "sessions/s"},
    {"resume_p50_ms", "ms"},
    {"resume_p95_ms", "ms"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"video.encode_ms", "ms"},
    {"llm.model_build_ms", "ms"},
    {"llm.frame_block_ms", "ms"},
    {"llm.question_block_ms", "ms"},
    {"llm.decode_block_ms", "ms"},
    {"llm.logits_ms", "ms"},
    {"llm.attended_tokens", "count"},
    {"llm.dense_gflop", "GFLOP"},
    {"llm.attention_gflop", "GFLOP"},
    {"llm.gflop_per_s", "GFLOP/s"},
    {"llm.kv_mib", "MiB"},
    {"tensor.matmul_gflops", "GFLOP/s"},
    {"tensor.grouped_gflops", "GFLOP/s"},
    {"core.append_ms", "ms"},
    {"core.select_ms", "ms"},
    {"core.selected_ratio", "ratio"},
    {"core.hamming_cmp", "count"},
    {"core.clusters_scanned", "count"},
    {"core.prediction_macs", "count"},
    {"core.table_kib", "KiB"},
    {"pipeline.serialize_ms", "ms"},
    {"pipeline.restore_ms", "ms"},
    {"pipeline.blob_kib", "KiB"},
    {"kvstore.put_ms", "ms"},
    {"kvstore.get_ms", "ms"},
    {"kvstore.cold_mib", "MiB"},
    {"serve.create_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.worker_busy", "ratio"},
    {"serve.fused_steps", "count"},
    {"serve.mean_batch", "sessions"},
    {"serve.solo_steps", "count"},
    {"serve.hibernates", "count"},
    {"serve.wakes", "count"},
    {"serve.wake_ms", "ms"},
    {"serve.hibernate_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/** Achieved GFLOP/s of @p kernel over @p flops per call, timed for
 *  at least 0.1 s after a warm-up call. */
double
kernelRate(double flops, const std::function<void()> &kernel)
{
    kernel();
    uint64_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.1) {
        for (int i = 0; i < 16; ++i)
            kernel();
        calls += 16;
        elapsed = secondsSince(t0);
    }
    return flops * static_cast<double>(calls) / elapsed / 1e9;
}

vrex::Matrix
filled(uint32_t rows, uint32_t cols, float base)
{
    vrex::Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.raw()[i] = base + 0.001f * static_cast<float>(i % 97);
    return m;
}

/** GFLOP/s of the model's dense projections (q/o, FFN up, FFN
 *  down) at a frame block and at a decode step, and of the grouped
 *  kernel at @p fused_rows decode rows sharing one weight. */
void
tensorMetrics(Report &report, const vrex::ModelConfig &cfg,
              uint32_t frame_rows, uint32_t fused_rows)
{
    const std::vector<std::pair<uint32_t, uint32_t>> shapes = {
        {cfg.dModel, cfg.dModel},  // n x k: wq / wo
        {cfg.ffnDim, cfg.dModel},  // w1 / w3
        {cfg.dModel, cfg.ffnDim},  // w2
    };
    double plain_flops = 0.0, plain_s = 0.0;
    double grouped_flops = 0.0, grouped_s = 0.0;
    for (const auto &[n, k] : shapes) {
        const vrex::Matrix w = filled(n, k, 0.01f);
        for (uint32_t rows : {frame_rows, 1u}) {
            const vrex::Matrix a = filled(rows, k, 0.02f);
            vrex::Matrix out;
            const double flops = 2.0 * rows * n * k;
            const double rate = kernelRate(
                flops, [&] { vrex::matmulTransposed(a, w, out); });
            plain_flops += flops;
            plain_s += flops / (rate * 1e9);
        }
        const vrex::Matrix a = filled(fused_rows, k, 0.03f);
        const std::vector<vrex::RowGroup> groups = {{0, fused_rows, &w}};
        vrex::Matrix out;
        const double flops = 2.0 * fused_rows * n * k;
        const double rate = kernelRate(flops, [&] {
            vrex::matmulTransposedGrouped(a, groups, out);
        });
        grouped_flops += flops;
        grouped_s += flops / (rate * 1e9);
    }
    report.metric("tensor.matmul_gflops", plain_flops / plain_s / 1e9);
    report.metric("tensor.grouped_gflops",
                  grouped_flops / grouped_s / 1e9);
}

} // namespace

uint64_t
Ops::attempted() const
{
    return frames.attempted + questions.attempted +
           answerTokens.attempted + sessions.attempted +
           visits.attempted + checks.attempted;
}

uint64_t
Ops::failed() const
{
    return frames.failed + questions.failed + answerTokens.failed +
           sessions.failed + visits.failed + checks.failed;
}

void
Ops::print() const
{
    const std::pair<const char *, const OpCount *> kinds[] = {
        {"frames", &frames},
        {"questions", &questions},
        {"answer_tokens", &answerTokens},
        {"sessions", &sessions},
        {"visits", &visits},
        {"checks", &checks},
    };
    for (const auto &[name, c] : kinds)
        std::printf("ops %-14s attempted %8llu  failed %llu\n", name,
                    static_cast<unsigned long long>(c->attempted),
                    static_cast<unsigned long long>(c->failed));
}

void
Report::metric(const std::string &name, double value)
{
    values[name] = value;
}

bool
Report::check(bool ok, const std::string &what)
{
    ops.checks.attempted++;
    if (!ok) {
        ops.checks.failed++;
        if (allCorrect)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        allCorrect = false;
    }
    return ok;
}

void
Report::print(bool traced) const
{
    ops.print();
    const auto &names = traced ? kPerLayer : kEndToEnd;
    bool complete = true;
    std::string json = "{\"metrics\": {";
    for (size_t i = 0; i < names.size(); ++i) {
        const auto it = values.find(names[i].first);
        double v = 0.0;
        if (it != values.end())
            v = it->second;
        else if (!traced)
            complete = false;
        if (!std::isfinite(v) || (!traced && v <= 0.0))
            complete = false;
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        json += (i ? ", \"" : "\"") + names[i].first +
                "\": {\"value\": " + buf + ", \"unit\": \"" +
                names[i].second + "\"}";
    }
    json += "}";
    if (!complete)
        std::fprintf(stderr, "perfbench: a metric is missing, not finite "
                             "or (end-to-end) not above 0\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s}\n",
                allCorrect && complete ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted()),
                static_cast<unsigned long long>(ops.failed()),
                json.c_str() + 1);
    std::fflush(stdout);
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

void
RoundSamples::endRound()
{
    done.push_back(std::move(current));
    current.clear();
}

double
RoundSamples::percentileOfRounds(double q) const
{
    std::vector<double> per_round;
    for (const auto &r : done)
        if (!r.empty())
            per_round.push_back(percentile(r, q));
    return percentile(per_round, 0.5);
}

double
RoundSamples::ratePerSecond(double items_per_sample) const
{
    std::vector<double> per_round;
    for (const auto &r : done) {
        double ms = 0.0;
        for (double v : r)
            ms += v;
        if (ms > 0.0)
            per_round.push_back(items_per_sample * r.size() / (ms / 1e3));
    }
    return percentile(per_round, 0.5);
}

size_t
RoundSamples::count() const
{
    size_t n = 0;
    for (const auto &r : done)
        n += r.size();
    return n;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint32_t
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
timeSetups(int reps, const std::function<void()> &setup,
           const std::function<void()> &teardown)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        teardown();
        const auto t0 = Clock::now();
        setup();
        samples.push_back(secondsSince(t0));
    }
    return percentile(samples, 0.5);
}

void
warmUp(vrex::serve::Engine &engine,
       const vrex::serve::SessionOptions &options)
{
    const vrex::serve::SessionId id = engine.createSession(options);
    engine.feedFrame(id, 2);
    engine.ask(id, 4, 2);
    engine.wait(id);
    engine.closeSession(id);
}

namespace
{

/** Count @p n operations of kind @p c around @p fn; a throw marks
 *  them failed and propagates. */
template <typename Fn>
auto
counted(OpCount &c, uint64_t n, Fn &&fn)
{
    c.attempted += n;
    try {
        return fn();
    } catch (...) {
        c.failed += n;
        throw;
    }
}

} // namespace

vrex::serve::SessionId
Client::create(const vrex::serve::SessionOptions &options)
{
    const vrex::serve::SessionId id = counted(ops.sessions, 1, [&] {
        ScopedSpan span("serve.create");
        const vrex::serve::Admission a = engine.tryCreateSession(options);
        if (!a.admitted())
            throw std::runtime_error("session admission rejected");
        return a.id;
    });
    // Stamp the session id on the policy's engine-side spans.
    if (tracer::enabled())
        if (auto *timed = dynamic_cast<TimingPolicy *>(
                engine.policy(id).basePolicy()))
            timed->setSession(static_cast<int64_t>(id));
    return id;
}

void
Client::close(vrex::serve::SessionId id)
{
    ScopedSpan span("serve.close", static_cast<int64_t>(id));
    engine.closeSession(id);
}

void
Client::submit(vrex::serve::SessionId id,
               const std::vector<vrex::SessionEvent> &events)
{
    if (!engine.tryEnqueue(id, events).accepted())
        throw std::runtime_error("enqueue rejected");
}

void
Client::submitFrame(vrex::serve::SessionId id)
{
    counted(ops.frames, 1, [&] {
        submit(id, {{vrex::SessionEvent::Type::Frame, 0}});
    });
}

void
Client::submitQuestion(vrex::serve::SessionId id, uint32_t tokens)
{
    counted(ops.questions, 1, [&] {
        counted(ops.answerTokens, 1, [&] {
            submit(id, {{vrex::SessionEvent::Type::Question, tokens},
                        {vrex::SessionEvent::Type::Generate, 1}});
        });
    });
}

void
Client::submitToken(vrex::serve::SessionId id)
{
    counted(ops.answerTokens, 1, [&] {
        submit(id, {{vrex::SessionEvent::Type::Generate, 1}});
    });
}

double
Client::frames(vrex::serve::SessionId id, uint32_t n)
{
    const auto t0 = Clock::now();
    for (uint32_t i = 0; i < n; ++i)
        submitFrame(id);
    engine.wait(id);
    return msSince(t0);
}

double
Client::firstToken(vrex::serve::SessionId id, uint32_t tokens)
{
    const auto t0 = Clock::now();
    submitQuestion(id, tokens);
    engine.wait(id);
    return msSince(t0);
}

double
Client::tokens(vrex::serve::SessionId id, uint32_t n)
{
    const auto t0 = Clock::now();
    counted(ops.answerTokens, n, [&] {
        submit(id, {{vrex::SessionEvent::Type::Generate, n}});
    });
    engine.wait(id);
    return msSince(t0);
}

std::vector<double>
Client::release(const std::vector<vrex::serve::SessionId> &ids,
                const std::function<void()> &stage)
{
    engine.pause();
    try {
        stage();
    } catch (...) {
        engine.resume();
        throw;
    }
    const auto t0 = Clock::now();
    engine.resume();
    std::vector<double> drained;
    for (vrex::serve::SessionId id : ids) {
        engine.wait(id);
        drained.push_back(msSince(t0));
    }
    return drained;
}

void
runWorkload(Workload &workload, const Options &opt, Report &report)
{
    constexpr int kSetupReps = 5;
    std::unique_ptr<vrex::serve::Engine> engine;
    const vrex::serve::EngineConfig plain = workload.engineConfig(false);
    const double setup_s = timeSetups(
        opt.trace ? 1 : kSetupReps,
        [&] {
            engine = std::make_unique<vrex::serve::Engine>(plain);
            warmUp(*engine, workload.warmUpOptions());
        },
        [&] { engine.reset(); });

    // Whole rounds until the window is used up. A failed operation
    // has been counted by the client; the window ends there, and only
    // the rounds that completed are summarised and checked.
    // The footprint is read after the first round: later rounds
    // repeat the same work, and how many fit in the window depends on
    // the host's speed.
    double rss_mib = 0.0;
    auto window = [&](vrex::serve::Engine &e, double seconds,
                      double &window_s) {
        Client client(e, report.ops);
        std::vector<double> rounds;
        const auto t0 = Clock::now();
        do {
            const auto r0 = Clock::now();
            try {
                workload.round(client);
            } catch (const std::exception &err) {
                std::fprintf(stderr, "perfbench: round failed: %s\n",
                             err.what());
                break;
            }
            rounds.push_back(secondsSince(r0));
            if (rounds.size() == 1)
                rss_mib = peakRssMib();
        } while (secondsSince(t0) < seconds);
        window_s = secondsSince(t0);
        return rounds;
    };

    double window_s = 0.0;
    const std::vector<double> plain_rounds =
        window(*engine, opt.trace ? opt.seconds / 2 : opt.seconds,
               window_s);
    report.check(!plain_rounds.empty(),
                 "no round completed in the untraced window");
    if (!opt.trace) {
        report.metric("setup_s", setup_s);
        report.metric("peak_rss_mib", rss_mib);
        workload.endToEnd(report);
        engine.reset();
        workload.verify(report);
        return;
    }

    engine.reset();
    engine = std::make_unique<vrex::serve::Engine>(
        workload.engineConfig(true));
    warmUp(*engine, workload.warmUpOptions());
    tracer::setTrack(Track::Engine);
    tracer::enable(true);
    const std::vector<double> traced_rounds =
        window(*engine, opt.seconds / 2, window_s);
    tracer::enable(false);
    const vrex::serve::Stats stats = engine->stats();
    engine.reset();
    if (!report.check(!traced_rounds.empty(),
                      "no round completed in the traced window") ||
        plain_rounds.empty())
        return;
    report.metric("trace.overhead_pct",
                  100.0 * (percentile(traced_rounds, 0.5) /
                               percentile(plain_rounds, 0.5) -
                           1.0));
    // A workload's reference replay in verify() is also the replay its
    // layer metrics are read from, so both run traced.
    tracer::setTrack(Track::Replay);
    tracer::enable(true);
    workload.verify(report);
    workload.layerMetrics(report, stats, window_s);
    tracer::enable(false);
    printSelfTimeShares();
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

uint64_t
cacheHash(const vrex::KVCache &cache)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (uint32_t l = 0; l < cache.config().nLayers; ++l) {
        const vrex::LayerKV &kv = cache.layer(l);
        h = fnv1a(kv.keys.raw(), kv.keys.size() * sizeof(float), h);
        h = fnv1a(kv.values.raw(), kv.values.size() * sizeof(float), h);
    }
    for (const vrex::TokenMeta &m : cache.allMeta()) {
        h = fnv1a(&m.frameId, sizeof m.frameId, h);
        h = fnv1a(&m.stage, sizeof m.stage, h);
        h = fnv1a(&m.position, sizeof m.position, h);
    }
    return h;
}

bool
headsWithinPast(const vrex::Model &model)
{
    for (const vrex::BlockStats &b : model.history())
        for (const auto &layer : b.selectedPerHead)
            for (uint32_t sel : layer)
                if (sel > b.pastLen)
                    return false;
    return true;
}

void
commonLayerMetrics(Report &report,
                   const std::vector<const LayerReplay *> &round,
                   const vrex::serve::Stats &stats, uint32_t workers,
                   double window_seconds, uint32_t fused_rows)
{
    const std::vector<Span> spans = tracer::spans();
    const auto replay = aggregate(spans, Track::Replay);
    const auto engine = aggregate(spans, Track::Engine);
    auto perItem = [](const std::map<std::string, SpanTotals> &m,
                      const char *name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second.selfPerItemMs();
    };
    auto selfNs = [&](const char *name) {
        const auto it = replay.find(name);
        return it == replay.end() ? 0.0 : it->second.selfNs;
    };

    report.metric("video.encode_ms", perItem(replay, "video.encode"));
    report.metric("llm.model_build_ms",
                  perItem(replay, "llm.model_build"));
    report.metric("llm.frame_block_ms",
                  perItem(replay, "llm.frame_block"));
    report.metric("llm.question_block_ms",
                  perItem(replay, "llm.question_block"));
    report.metric("llm.decode_block_ms",
                  perItem(replay, "llm.decode_block"));
    report.metric("llm.logits_ms", perItem(replay, "llm.logits"));
    report.metric("core.append_ms", perItem(engine, "core.append"));
    report.metric("core.select_ms", perItem(engine, "core.select"));
    report.metric("serve.create_ms", perItem(engine, "serve.create"));

    // Work counts of one round, from the replayed sessions.
    const vrex::ModelConfig &cfg = round.front()->model().config();
    uint64_t attended = 0, tokens = 0;
    double attention_flops = 0.0, kv_bytes = 0.0;
    vrex::ResvCounters ctr;
    uint64_t hamming = 0, table_bytes = 0;
    for (const LayerReplay *r : round) {
        const vrex::Model &m = r->model();
        tokens += m.cache().tokenCount();
        kv_bytes += static_cast<double>(m.cache().totalBytes());
        for (const vrex::BlockStats &b : m.history())
            for (const auto &layer : b.selectedPerHead)
                for (uint32_t sel : layer) {
                    attended += sel;
                    // Q.K^T and P.V for every query head of the group
                    // over the selected past plus the causal block.
                    attention_flops += 4.0 * cfg.headDim() *
                                       cfg.groupSize() * b.blockLen *
                                       (sel + (b.blockLen + 1) / 2.0);
                }
        const vrex::ResvPolicy *resv = r->policy().resv();
        for (const vrex::ResvCounters *c :
             {&resv->frameCounters(), &resv->textCounters()}) {
            ctr.predictionMacs += c->predictionMacs;
            ctr.clustersScanned += c->clustersScanned;
            ctr.tokensSelected += c->tokensSelected;
            ctr.pastTokens += c->pastTokens;
        }
        hamming += resv->totalHammingComparisons();
        table_bytes += resv->tableMemoryBytes();
    }
    const double dense_flops = cfg.denseFlops(tokens);
    const double llm_ns = selfNs("llm.frame_block") +
                          selfNs("llm.question_block") +
                          selfNs("llm.decode_block") + selfNs("llm.logits");
    report.metric("llm.attended_tokens", static_cast<double>(attended));
    report.metric("llm.dense_gflop", dense_flops / 1e9);
    report.metric("llm.attention_gflop", attention_flops / 1e9);
    report.metric("llm.gflop_per_s",
                  llm_ns > 0 ? (dense_flops + attention_flops) / llm_ns
                             : 0.0);
    report.metric("llm.kv_mib", kv_bytes / (1024.0 * 1024.0));
    report.metric("core.selected_ratio", ctr.selectedRatio());
    report.metric("core.hamming_cmp", static_cast<double>(hamming));
    report.metric("core.clusters_scanned",
                  static_cast<double>(ctr.clustersScanned));
    report.metric("core.prediction_macs",
                  static_cast<double>(ctr.predictionMacs));
    report.metric("core.table_kib", table_bytes / 1024.0);

    tensorMetrics(report, cfg, 16, fused_rows);

    report.metric("serve.wait_ms", stats.meanWaitMs());
    report.metric("serve.service_ms", stats.meanServiceMs());
    report.metric("serve.worker_busy",
                  static_cast<double>(stats.serviceNs) /
                      (workers * window_seconds * 1e9));
    report.metric("serve.fused_steps",
                  static_cast<double>(stats.batch.coalescedSteps));
    report.metric("serve.mean_batch", stats.batch.meanBatchSize());
    report.metric("serve.solo_steps",
                  static_cast<double>(stats.batch.soloSteps));
    report.metric("serve.hibernates",
                  static_cast<double>(stats.kv.hibernates));
    report.metric("serve.wakes", static_cast<double>(stats.kv.wakes));
    report.metric("serve.wake_ms", stats.kv.wakeLatency.p50Ms());
    report.metric("serve.hibernate_ms", stats.kv.hibernateLatency.p50Ms());
}

void
printSelfTimeShares()
{
    const auto replay = aggregate(tracer::spans(), Track::Replay);
    std::map<std::string, double> by_layer;
    double total = 0.0;
    for (const auto &[name, t] : replay) {
        by_layer[name.substr(0, name.find('.'))] += t.selfNs;
        total += t.selfNs;
    }
    for (const auto &[layer, ns] : by_layer)
        std::printf("replay self time %-9s %8.1f ms  %5.1f%%\n",
                    layer.c_str(), ns / 1e6,
                    total > 0 ? 100.0 * ns / total : 0.0);
}

} // namespace perfbench
