#include "replay.hh"

#include <algorithm>

#include "common/logging.hh"
#include "instrument.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

/** Vision width the pipeline derives from the model width. */
uint32_t
visionDim(const vrex::ModelConfig &config)
{
    return std::max(32u, config.dModel / 4);
}

uint32_t
argmax(const float *row, uint32_t n)
{
    return static_cast<uint32_t>(std::max_element(row, row + n) - row);
}

} // namespace

LayerReplay::LayerReplay(const vrex::ModelConfig &config,
                         uint64_t seed_value,
                         const vrex::SessionScript &script,
                         int64_t session_id)
    : seed(seed_value), scriptSeed(script.seed), session(session_id),
      gen(script.video, seed_value ^ script.seed, script.name),
      tower(script.video.latentDim, visionDim(config), seed_value),
      projector(visionDim(config), config.dModel, seed_value)
{
    {
        ScopedSpan span("llm.model_build", session);
        llm = std::make_unique<vrex::Model>(config, seed);
    }
    pol = std::make_unique<TimingPolicy>(
        std::make_unique<vrex::ResvPolicy>(config, vrex::ResvConfig{}),
        session);
    llm->setPolicy(pol.get());
}

LayerReplay::~LayerReplay() = default;

void
LayerReplay::frame()
{
    vrex::Matrix embeds;
    {
        ScopedSpan span("video.encode", session);
        const vrex::Matrix latents = gen.nextFrameLatents();
        embeds = projector.project(tower.encode(latents));
    }
    ScopedSpan span("llm.frame_block", session);
    llm->prefillFrame(embeds, frameId++);
}

void
LayerReplay::question(uint32_t tokens)
{
    const auto ids = vrex::WorkloadGenerator::questionTokens(
        tokens, llm->config().vocabSize,
        seed ^ scriptSeed ^ (0x9e37u + questionNo++));
    ScopedSpan span("llm.question_block", session);
    llm->prefillText(ids);
}

void
LayerReplay::generate(uint32_t tokens)
{
    const uint32_t vocab = llm->config().vocabSize;
    for (uint32_t i = 0; i < tokens; ++i) {
        uint32_t best = 0;
        {
            ScopedSpan span("llm.logits", session);
            const std::vector<float> logits = llm->lastLogits();
            best = argmax(logits.data(), vocab);
        }
        generated.push_back(best);
        ScopedSpan span("llm.decode_block", session);
        llm->forwardBlock(llm->embedTokens({best}), -1,
                          vrex::TokenStage::GeneratedText);
    }
}

void
LayerReplay::apply(const vrex::SessionEvent &event)
{
    switch (event.type) {
      case vrex::SessionEvent::Type::Frame:
        frame();
        break;
      case vrex::SessionEvent::Type::Question:
        question(event.tokens);
        break;
      case vrex::SessionEvent::Type::Generate:
        generate(event.tokens);
        break;
    }
}

void
LayerReplay::generateFused(const std::vector<LayerReplay *> &members)
{
    VREX_ASSERT(!members.empty(), "fused step needs members");
    // Equal weight seeds must be adjacent for the grouped matmuls,
    // as in the engine's fused step.
    std::vector<LayerReplay *> ordered = members;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const LayerReplay *a, const LayerReplay *b) {
                         return a->seed < b->seed;
                     });
    const auto n = static_cast<uint32_t>(ordered.size());
    std::vector<vrex::Model *> models;
    for (LayerReplay *m : ordered)
        models.push_back(m->llm.get());
    const vrex::ModelConfig &cfg = models[0]->config();

    vrex::Matrix x(n, cfg.dModel);
    {
        ScopedSpan span("llm.logits", -1, n);
        const vrex::Matrix logits = vrex::Model::lastLogitsBatched(models);
        for (uint32_t i = 0; i < n; ++i) {
            const uint32_t best = argmax(logits.row(i), cfg.vocabSize);
            ordered[i]->generated.push_back(best);
            const vrex::Matrix embed = models[i]->embedTokens({best});
            std::copy_n(embed.row(0), cfg.dModel, x.row(i));
        }
    }
    ScopedSpan span("llm.decode_block", -1, n);
    vrex::Model::forwardBlockBatched(models, std::move(x), -1,
                                     vrex::TokenStage::GeneratedText);
}

} // namespace perfbench
