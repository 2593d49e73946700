/**
 * @file
 * serve-mix: waves of short COIN-average streams (26 frames, then a
 * 25-token question answered in 39 tokens) on nproc - 1 workers with
 * cross-session batching on, the engine's documented throughput
 * setting. Each tick feeds one frame to every live stream; each
 * wave's questions, and then each answer token, are released
 * together, so the fused decode steps have the same make-up in every
 * run. Every wave opens new sessions. Contexts stay under 500 tokens:
 * dense projections, per-session model build, the scheduler and the
 * batch planner do the work; attention and retrieval do little.
 */

#include <algorithm>

#include "harness.hh"
#include "instrument.hh"
#include "replay.hh"

namespace perfbench
{

namespace
{

using vrex::SessionEvent;
using namespace vrex::serve;

constexpr uint32_t kSessions = 12;
/** Mean teacher-forced token agreement ReSV must keep against full
 *  attention over a wave's sessions (README, "Correctness checks"). */
constexpr double kAgreementFloor = 0.75;

class ServeMix : public Workload
{
  public:
    explicit ServeMix(const Options &opt)
        : workers(std::max(1u, cpuCount() - 1))
    {
        for (uint32_t i = 0; i < kSessions; ++i)
            scripts.push_back(vrex::WorkloadGenerator::coinAverage(
                mixSeed(opt.seed, 100 + i)));
        const auto &events = scripts.front().events;
        frames = scripts.front().frameCount();
        questionTokens = events[frames].tokens;
        answerTokens = events[frames + 1].tokens;
    }

    EngineConfig
    engineConfig(bool traced) override
    {
        EngineConfig cfg;
        cfg.model = vrex::ModelConfig::tiny();
        cfg.policy = PolicySpec::resv();
        cfg.workers = workers;
        cfg.sessionSeed = kModelSeed;
        cfg.batching.enabled = true;
        if (traced) {
            factory = makeTimingFactory();
            cfg.factory = factory.get();
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
        const auto t0 = Clock::now();
        std::vector<SessionId> ids;
        for (const vrex::SessionScript &s : scripts)
            ids.push_back(client.create(SessionOptions::fromScript(s)));

        for (uint32_t f = 0; f < frames; ++f)
            tickMs.add(client.release(ids, [&] {
                for (SessionId id : ids)
                    client.submitFrame(id);
            }).back());

        // The wave's time to first token: until every session's first
        // answer token is visible.
        std::vector<double> answer = client.release(ids, [&] {
            for (SessionId id : ids)
                client.submitQuestion(id, questionTokens);
        });
        ttftMs.add(answer.back());
        for (uint32_t t = 1; t < answerTokens; ++t) {
            const double step = client.release(ids, [&] {
                for (SessionId id : ids)
                    client.submitToken(id);
            }).back();
            stepMs.add(step);
            for (double &a : answer)
                a += step;
        }
        for (double a : answer)
            answerMs.add(a);

        std::vector<std::vector<uint32_t>> wave;
        for (SessionId id : ids) {
            wave.push_back(client.engine.result(id).generated);
            client.close(id);
        }
        waves.push_back(std::move(wave));
        roundMs.add(msSince(t0));
        for (RoundSamples *samples :
             {&tickMs, &ttftMs, &stepMs, &answerMs, &roundMs})
            samples->endRound();
    }

    void
    endToEnd(Report &report) const override
    {
        report.metric("frames_per_s", tickMs.ratePerSecond(kSessions));
        report.metric("frame_p50_ms", tickMs.percentileOfRounds(0.50));
        report.metric("frame_p95_ms", tickMs.percentileOfRounds(0.95));
        report.metric("ttft_p50_ms", ttftMs.percentileOfRounds(0.50));
        report.metric("tpot_p50_ms", stepMs.percentileOfRounds(0.50));
        report.metric("tokens_per_s", stepMs.ratePerSecond(kSessions));
        report.metric("sessions_per_s", roundMs.ratePerSecond(kSessions));
        report.metric("resume_p50_ms", answerMs.percentileOfRounds(0.50));
        report.metric("resume_p95_ms", answerMs.percentileOfRounds(0.95));
        std::printf("samples: ticks %zu, questions %zu, decode steps %zu, "
                    "waves %zu\n",
                    tickMs.count(), answerMs.count(), stepMs.count(),
                    roundMs.rounds());
    }

    void
    verify(Report &report) override
    {
        // Fused decode promises each session the bytes of a solo run.
        const vrex::ModelConfig cfg = vrex::ModelConfig::tiny();
        std::vector<std::vector<uint32_t>> solo;
        for (const vrex::SessionScript &s : scripts) {
            PolicyInstance policy = makePolicy(cfg, PolicySpec::resv());
            vrex::StreamingSession session(cfg, policy.active(),
                                           kModelSeed);
            solo.push_back(session.run(s).generated);
        }
        for (const auto &wave : waves)
            for (uint32_t i = 0; i < kSessions; ++i)
                report.check(wave[i] == solo[i],
                             "serve-mix: session " + std::to_string(i) +
                                 " answer differs from a solo run");

        // Accuracy of the method itself: ReSV teacher-forced against
        // full attention on every session of the wave.
        EngineConfig eval_cfg = engineConfig(false);
        eval_cfg.batching.enabled = false;
        Engine eval(eval_cfg);
        std::vector<FidelityJob> jobs;
        for (const vrex::SessionScript &s : scripts)
            jobs.push_back({s, PolicySpec::resv()});
        double agreement = 0.0;
        for (const vrex::FidelityResult &f : eval.evaluateFidelityBatch(jobs))
            agreement += f.tokenAgreement / kSessions;
        std::printf("fidelity: mean ReSV token agreement %.3f over %u "
                    "sessions\n",
                    agreement, kSessions);
        report.check(agreement >= kAgreementFloor,
                     "serve-mix: ReSV token agreement below the floor");
    }

    void
    layerMetrics(Report &report, const Stats &stats,
                 double window_s) override
    {
        const vrex::ModelConfig cfg = vrex::ModelConfig::tiny();
        std::vector<std::unique_ptr<LayerReplay>> replays;
        std::vector<LayerReplay *> members;
        for (uint32_t i = 0; i < kSessions; ++i) {
            replays.push_back(std::make_unique<LayerReplay>(
                cfg, kModelSeed, scripts[i], -1));
            members.push_back(replays.back().get());
        }
        for (uint32_t f = 0; f < frames; ++f)
            for (LayerReplay *r : members)
                r->frame();
        for (LayerReplay *r : members) {
            r->question(questionTokens);
            r->generate(1);
        }
        for (uint32_t t = 1; t < answerTokens; ++t)
            LayerReplay::generateFused(members);

        bool same = true;
        for (uint32_t i = 0; i < kSessions; ++i)
            same = same && members[i]->answers() == waves.front()[i];
        report.check(same, "serve-mix: traced replay differs from the "
                           "engine");
        commonLayerMetrics(report, {members.begin(), members.end()},
                           stats, workers, window_s, kSessions);
    }

  private:
    uint32_t workers;
    std::vector<vrex::SessionScript> scripts;
    uint32_t frames = 0, questionTokens = 0, answerTokens = 0;
    std::unique_ptr<PolicyFactory> factory;

    RoundSamples tickMs, ttftMs, stepMs, answerMs, roundMs;
    /** Per wave, per session: the answer tokens. */
    std::vector<std::vector<std::vector<uint32_t>>> waves;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix(const Options &opt)
{
    return std::make_unique<ServeMix>(opt);
}

} // namespace perfbench
