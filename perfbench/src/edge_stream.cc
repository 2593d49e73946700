/**
 * @file
 * edge-stream: the paper's edge setting. One live stream on one
 * worker, fed frame after frame until a few thousand tokens are
 * cached, with a COIN-average question (25 tokens in, 39 out) every
 * few frames. As the cache grows, attention and ReSV retrieval (llm,
 * core) do nearly all the work; serve does almost none.
 */

#include "harness.hh"
#include "instrument.hh"
#include "replay.hh"

namespace perfbench
{

namespace
{

using vrex::SessionEvent;
using namespace vrex::serve;

constexpr uint32_t kFrames = 120;
constexpr uint32_t kQuestionEvery = 10;
constexpr uint32_t kQuestionTokens = 25;
constexpr uint32_t kAnswerTokens = 39;

/** What one round's session looked like when it finished. */
struct RoundResult
{
    std::vector<uint32_t> answers;
    uint32_t tokens = 0;
    uint64_t kvBytes = 0;
    uint64_t cacheHash = 0;
    bool headsWithinPast = false;
    double frameRatio = 1.0;
};

class EdgeStream : public Workload
{
  public:
    explicit EdgeStream(const Options &opt)
    {
        script.name = "edge-stream";
        script.task = vrex::CoinTask::Next;
        script.seed = mixSeed(opt.seed, 2);
        for (uint32_t f = 1; f <= kFrames; ++f) {
            script.events.push_back({SessionEvent::Type::Frame, 0});
            if (f % kQuestionEvery == 0) {
                script.events.push_back(
                    {SessionEvent::Type::Question, kQuestionTokens});
                script.events.push_back(
                    {SessionEvent::Type::Generate, kAnswerTokens});
            }
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
        if (traced) {
            factory = makeTimingFactory();
            cfg.factory = factory.get();
        }
        return cfg;
    }

    SessionOptions
    warmUpOptions() const override
    {
        return SessionOptions::fromScript(script);
    }

    void
    round(Client &client) override
    {
        Engine &engine = client.engine;
        const auto t0 = Clock::now();
        const SessionId id =
            client.create(SessionOptions::fromScript(script));
        for (const SessionEvent &e : script.events) {
            if (e.type == SessionEvent::Type::Frame) {
                frameMs.add(client.frames(id, 1));
            } else if (e.type == SessionEvent::Type::Question) {
                const double first = client.firstToken(id, e.tokens);
                const double rest = client.tokens(id, kAnswerTokens - 1);
                ttftMs.add(first);
                decodeMs.add(rest);
                answerMs.add(first + rest);
            }
        }
        const vrex::SessionRunResult result = engine.result(id);
        RoundResult r;
        r.answers = result.generated;
        r.frameRatio = result.frameRatio;
        const vrex::Model &model = engine.model(id);
        r.tokens = model.cache().tokenCount();
        r.kvBytes = model.cache().totalBytes();
        r.cacheHash = cacheHash(model.cache());
        r.headsWithinPast = headsWithinPast(model);
        rounds.push_back(std::move(r));
        client.close(id);
        roundMs.add(msSince(t0));
        for (RoundSamples *samples :
             {&frameMs, &ttftMs, &decodeMs, &answerMs, &roundMs})
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
                      decodeMs.percentileOfRounds(0.50) / (kAnswerTokens - 1));
        report.metric("tokens_per_s", decodeMs.ratePerSecond(kAnswerTokens - 1));
        report.metric("sessions_per_s", roundMs.ratePerSecond(1));
        report.metric("resume_p50_ms", answerMs.percentileOfRounds(0.50));
        report.metric("resume_p95_ms", answerMs.percentileOfRounds(0.95));
        std::printf("samples: frames %zu, questions %zu, rounds %zu\n",
                    frameMs.count(), ttftMs.count(), roundMs.rounds());
    }

    void
    verify(Report &report) override
    {
        const vrex::ModelConfig cfg = vrex::ModelConfig::tiny();
        reference = std::make_unique<LayerReplay>(cfg, kModelSeed, script,
                                                  -1);
        for (const SessionEvent &e : script.events)
            reference->apply(e);
        const uint64_t ref_hash = cacheHash(reference->model().cache());

        const uint32_t questions = kFrames / kQuestionEvery;
        const uint32_t tokens =
            kFrames * script.video.tokensPerFrame +
            questions * (kQuestionTokens + kAnswerTokens);
        for (const RoundResult &r : rounds) {
            report.check(r.tokens == tokens,
                         "edge-stream: cached tokens != script tokens");
            report.check(r.kvBytes == tokens * cfg.kvBytesPerToken(),
                         "edge-stream: KV bytes != tokens x bytes/token");
            report.check(r.headsWithinPast,
                         "edge-stream: a head selected beyond its past");
            report.check(r.frameRatio < 1.0,
                         "edge-stream: frame-stage selected ratio >= 1");
            report.check(r.answers == reference->answers(),
                         "edge-stream: answers differ from the layer "
                         "replay");
            report.check(r.cacheHash == ref_hash,
                         "edge-stream: KV cache differs from the layer "
                         "replay");
        }
    }

    /** The layers are read from verify()'s reference replay, which
     *  verify() has checked against every round of the engine. */
    void
    layerMetrics(Report &report, const Stats &stats,
                 double window_s) override
    {
        commonLayerMetrics(report, {reference.get()}, stats, 1, window_s,
                           1);
    }

  private:
    vrex::SessionScript script;
    std::unique_ptr<PolicyFactory> factory;

    /** decodeMs: per question, the answer tokens after the first. */
    RoundSamples frameMs, ttftMs, decodeMs, answerMs, roundMs;
    std::vector<RoundResult> rounds;
    /** The script replayed through the layer calls (verify()). */
    std::unique_ptr<LayerReplay> reference;
};

} // namespace

std::unique_ptr<Workload>
makeEdgeStream(const Options &opt)
{
    return std::make_unique<EdgeStream>(opt);
}

} // namespace perfbench
