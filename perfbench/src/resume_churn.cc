/**
 * @file
 * resume-churn: many streams over a KV budget that keeps only a few
 * resident. A fill phase ingests each stream's opening frames while
 * finished streams are hibernated (writes to the cold store); then
 * one client revisits the streams round-robin with a few frames and
 * a short question, and each visit wakes its stream (a read) and
 * hibernates another. The KV state edge-stream attends is moved here
 * rather than read: pipeline serialize/restore, the kvstore cold
 * store and the weight rebuild dominate.
 */

#include <algorithm>
#include <map>

#include "harness.hh"
#include "instrument.hh"
#include "replay.hh"

namespace perfbench
{

namespace
{

using vrex::SessionEvent;
using namespace vrex::serve;

constexpr uint32_t kStreams = 8;
constexpr uint32_t kFillFrames = 40;
/** Streams the KV budget keeps resident after the fill phase. */
constexpr uint32_t kResident = 2;
constexpr uint32_t kPasses = 3;
constexpr uint32_t kVisitFrames = 2;
constexpr uint32_t kVisitQuestion = 12;
constexpr uint32_t kVisitAnswer = 16;

uint64_t
blobHash(const std::vector<uint8_t> &blob)
{
    return fnv1a(blob.data(), blob.size());
}

/** One hibernated blob as the cold store held it. */
struct StoredBlob
{
    uint64_t bytes = 0;
    uint64_t hash = 0;
};

/** What one round left behind for the checks. */
struct RoundResult
{
    /** Stream index -> its blob in the store at the end of the fill
     *  phase (streams hibernated during the fill). */
    std::map<uint32_t, StoredBlob> fillBlobs;
    uint64_t coldBytes = 0;
    uint64_t visits = 0;
    uint64_t wakes = 0;
    std::vector<std::vector<uint32_t>> answers;
};

class ResumeChurn : public Workload
{
  public:
    explicit ResumeChurn(const Options &opt)
    {
        for (uint32_t i = 0; i < kStreams; ++i) {
            vrex::SessionScript s;
            s.name = "resume-churn-" + std::to_string(i);
            s.task = vrex::CoinTask::Next;
            s.seed = mixSeed(opt.seed, 200 + i);
            s.events.assign(kFillFrames, {SessionEvent::Type::Frame, 0});
            for (uint32_t p = 0; p < kPasses; ++p) {
                for (uint32_t f = 0; f < kVisitFrames; ++f)
                    s.events.push_back({SessionEvent::Type::Frame, 0});
                s.events.push_back(
                    {SessionEvent::Type::Question, kVisitQuestion});
                s.events.push_back(
                    {SessionEvent::Type::Generate, kVisitAnswer});
            }
            scripts.push_back(std::move(s));
        }
    }

    EngineConfig
    engineConfig(bool traced) override
    {
        EngineConfig cfg;
        cfg.model = vrex::ModelConfig::tiny();
        cfg.policy = PolicySpec::resv();
        cfg.workers = 1;
        cfg.sessionSeed = kModelSeed;
        const uint64_t stream_bytes =
            uint64_t(kFillFrames) * scripts[0].video.tokensPerFrame *
            cfg.model.kvBytesPerToken();
        cfg.kvBudget.budgetBytes = kResident * stream_bytes + stream_bytes / 2;
        if (traced) {
            factory = makeTimingFactory();
            cfg.factory = factory.get();
            auto timed = std::make_shared<TimingColdStore>();
            blobs = &timed->memory();
            cfg.kvBudget.store = timed;
        } else {
            auto plain = std::make_shared<vrex::MemoryColdStore>();
            blobs = plain.get();
            cfg.kvBudget.store = plain;
        }
        return cfg;
    }

    SessionOptions
    warmUpOptions() const override
    {
        return SessionOptions::fromScript(scripts.front());
    }

    void
    round(Client &client) override
    {
        Engine &engine = client.engine;
        const auto t0 = Clock::now();
        RoundResult r;
        std::vector<SessionId> ids;
        for (const vrex::SessionScript &s : scripts) {
            ids.push_back(client.create(SessionOptions::fromScript(s)));
            for (uint32_t f = 0; f < kFillFrames; ++f)
                frameMs.add(client.frames(ids.back(), 1));
        }
        r.coldBytes = engine.stats().kv.coldBytes;
        for (uint32_t i = 0; i < kStreams; ++i)
            if (blobs->contains(ids[i])) {
                const std::vector<uint8_t> blob = blobs->get(ids[i]);
                r.fillBlobs[i] = {blob.size(), blobHash(blob)};
            }

        const uint64_t wakes_before = engine.stats().kv.wakes;
        for (uint32_t p = 0; p < kPasses; ++p)
            for (SessionId id : ids) {
                client.ops.visits.attempted++;
                try {
                    visit(client, id);
                } catch (...) {
                    client.ops.visits.failed++;
                    throw;
                }
                r.visits++;
            }
        r.wakes = engine.stats().kv.wakes - wakes_before;

        for (SessionId id : ids) {
            r.answers.push_back(engine.result(id).generated);
            client.close(id);
        }
        rounds.push_back(std::move(r));
        roundMs.add(msSince(t0));
        for (RoundSamples *samples :
             {&frameMs, &ttftMs, &decodeMs, &resumeMs, &roundMs})
            samples->endRound();
    }

    void
    endToEnd(Report &report) const override
    {
        report.metric("frames_per_s", frameMs.ratePerSecond(1));
        report.metric("frame_p50_ms", frameMs.percentileOfRounds(0.50));
        report.metric("frame_p95_ms", frameMs.percentileOfRounds(0.95));
        report.metric("ttft_p50_ms", ttftMs.percentileOfRounds(0.50));
        report.metric("tpot_p50_ms",
                      decodeMs.percentileOfRounds(0.50) / (kVisitAnswer - 1));
        report.metric("tokens_per_s", decodeMs.ratePerSecond(kVisitAnswer - 1));
        report.metric("sessions_per_s", roundMs.ratePerSecond(kStreams));
        report.metric("resume_p50_ms", resumeMs.percentileOfRounds(0.50));
        report.metric("resume_p95_ms", resumeMs.percentileOfRounds(0.95));
        std::printf("samples: fill frames %zu, visits %zu, rounds %zu\n",
                    frameMs.count(), resumeMs.count(), roundMs.rounds());
    }

    void
    verify(Report &report) override
    {
        // The same streams with no KV budget: each one alone in a
        // StreamingSession, its state serialized after the fill phase.
        const vrex::ModelConfig cfg = vrex::ModelConfig::tiny();
        std::vector<StoredBlob> ref_blobs;
        std::vector<std::vector<uint32_t>> ref_answers;
        for (const vrex::SessionScript &s : scripts) {
            PolicyInstance policy = makePolicy(cfg, PolicySpec::resv());
            vrex::StreamingSession session(cfg, policy.active(),
                                           kModelSeed);
            session.begin(s.name, s.video, s.seed);
            for (size_t e = 0; e < s.events.size(); ++e) {
                if (e == kFillFrames) {
                    const std::vector<uint8_t> blob = session.serialize();
                    ref_blobs.push_back({blob.size(), blobHash(blob)});
                }
                session.apply(s.events[e]);
            }
            ref_answers.push_back(session.snapshot().generated);
        }

        for (const RoundResult &r : rounds) {
            uint64_t stored = 0;
            for (const auto &[i, blob] : r.fillBlobs) {
                stored += blob.bytes;
                report.check(blob.hash == ref_blobs[i].hash &&
                                 blob.bytes == ref_blobs[i].bytes,
                             "resume-churn: a cold blob differs from the "
                             "stream serialized without a budget");
            }
            report.check(!r.fillBlobs.empty(),
                         "resume-churn: nothing hibernated during fill");
            report.check(r.coldBytes == stored,
                         "resume-churn: cold-store bytes != sum of blob "
                         "sizes");
            report.check(r.wakes >= r.visits,
                         "resume-churn: fewer wakes than visits");
            for (uint32_t i = 0; i < kStreams; ++i)
                report.check(r.answers[i] == ref_answers[i],
                             "resume-churn: stream " + std::to_string(i) +
                                 " answers differ from a run with no KV "
                                 "budget");
        }
    }

    void
    layerMetrics(Report &report, const Stats &stats,
                 double window_s) override
    {
        const vrex::ModelConfig cfg = vrex::ModelConfig::tiny();
        std::vector<std::unique_ptr<LayerReplay>> replays;
        bool same = true;
        for (uint32_t i = 0; i < kStreams; ++i) {
            replays.push_back(std::make_unique<LayerReplay>(
                cfg, kModelSeed, scripts[i], -1));
            for (const SessionEvent &e : scripts[i].events)
                replays.back()->apply(e);
            same = same && replays.back()->answers() ==
                               rounds.back().answers[i];
        }
        report.check(same, "resume-churn: traced replay differs from the "
                           "engine");

        // pipeline: serialize each stream at the end of its fill phase
        // and restore it into a fresh session, as hibernate/wake do.
        double blob_bytes = 0.0;
        for (uint32_t i = 0; i < kStreams; ++i) {
            const vrex::SessionScript &s = scripts[i];
            PolicyInstance policy = makePolicy(cfg, PolicySpec::resv());
            vrex::StreamingSession session(cfg, policy.active(),
                                           kModelSeed);
            session.begin(s.name, s.video, s.seed);
            for (uint32_t f = 0; f < kFillFrames; ++f)
                session.feedFrame();
            std::vector<uint8_t> blob;
            {
                ScopedSpan span("pipeline.serialize");
                blob = session.serialize();
            }
            PolicyInstance woken_policy =
                makePolicy(cfg, PolicySpec::resv());
            vrex::StreamingSession woken(cfg, woken_policy.active(),
                                         kModelSeed);
            {
                ScopedSpan span("pipeline.restore");
                woken.restore(blob);
            }
            report.check(woken.serialize() == blob,
                         "resume-churn: restore did not reproduce the "
                         "blob");
            const auto stored = rounds.back().fillBlobs.find(i);
            report.check(stored == rounds.back().fillBlobs.end() ||
                             stored->second.hash == blobHash(blob),
                         "resume-churn: replayed blob differs from the "
                         "engine's");
            blob_bytes += static_cast<double>(blob.size());
        }

        std::vector<const LayerReplay *> round;
        for (const auto &r : replays)
            round.push_back(r.get());
        commonLayerMetrics(report, round, stats, 1, window_s, 1);

        const auto replay = aggregate(tracer::spans(), Track::Replay);
        const auto engine = aggregate(tracer::spans(), Track::Engine);
        auto meanMs = [](const std::map<std::string, SpanTotals> &m,
                         const char *name) {
            const auto it = m.find(name);
            return it == m.end() ? 0.0 : it->second.meanMs();
        };
        uint64_t cold = 0;
        for (const RoundResult &r : rounds)
            cold = std::max(cold, r.coldBytes);
        report.metric("pipeline.serialize_ms",
                      meanMs(replay, "pipeline.serialize"));
        report.metric("pipeline.restore_ms",
                      meanMs(replay, "pipeline.restore"));
        report.metric("pipeline.blob_kib", blob_bytes / kStreams / 1024.0);
        report.metric("kvstore.put_ms", meanMs(engine, "kvstore.put"));
        report.metric("kvstore.get_ms", meanMs(engine, "kvstore.get"));
        report.metric("kvstore.cold_mib", cold / (1024.0 * 1024.0));
    }

  private:
    /** A few frames and a short question, submitted together, then
     *  the rest of the answer. The visit wakes the stream and
     *  hibernates a victim; TTFT runs from the visit's submission. */
    void
    visit(Client &client, SessionId id)
    {
        const auto t0 = Clock::now();
        for (uint32_t f = 0; f < kVisitFrames; ++f)
            client.submitFrame(id);
        client.firstToken(id, kVisitQuestion);
        ttftMs.add(msSince(t0));
        decodeMs.add(client.tokens(id, kVisitAnswer - 1));
        resumeMs.add(msSince(t0));
    }

    std::vector<vrex::SessionScript> scripts;
    std::unique_ptr<PolicyFactory> factory;
    /** The store under the engine's cold store, read without spans. */
    const vrex::ColdStore *blobs = nullptr;

    /** decodeMs: per visit, the answer tokens after the first. */
    RoundSamples frameMs, ttftMs, decodeMs, resumeMs, roundMs;
    std::vector<RoundResult> rounds;
};

} // namespace

std::unique_ptr<Workload>
makeResumeChurn(const Options &opt)
{
    return std::make_unique<ResumeChurn>(opt);
}

} // namespace perfbench
