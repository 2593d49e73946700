/**
 * @file
 * LayerReplay: one scripted stream re-run outside the engine through
 * the public layer calls that pipeline::StreamingSession makes —
 * FrameGenerator::nextFrameLatents, VisionTower::encode,
 * MlpProjector::project, Model::prefillFrame / prefillText /
 * lastLogits / forwardBlock (or the fused lastLogitsBatched /
 * forwardBlockBatched) — with a span around each call. Built from the
 * same (config, policy, seeds) as an engine session it reproduces
 * that session's answer tokens and KV cache bit for bit; the
 * workloads check that, which also proves the spans timed the work
 * the engine did.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "llm/model.hh"
#include "video/frame_generator.hh"
#include "video/vision_tower.hh"
#include "video/workload.hh"

namespace perfbench
{

class TimingPolicy;

class LayerReplay
{
  public:
    /** @p session is stamped on the spans. The ReSV policy is built
     *  here, wrapped in TimingPolicy. */
    LayerReplay(const vrex::ModelConfig &config, uint64_t seed,
                const vrex::SessionScript &script, int64_t session);
    ~LayerReplay();

    LayerReplay(const LayerReplay &) = delete;
    LayerReplay &operator=(const LayerReplay &) = delete;

    void frame();
    void question(uint32_t tokens);
    /** @p tokens solo greedy generation steps. */
    void generate(uint32_t tokens);
    /** Apply one scripted event with the calls above. */
    void apply(const vrex::SessionEvent &event);

    /** One fused generation step across @p members (the engine's
     *  batched dispatch path). */
    static void generateFused(const std::vector<LayerReplay *> &members);

    const vrex::Model &model() const { return *llm; }
    const TimingPolicy &policy() const { return *pol; }
    const std::vector<uint32_t> &answers() const { return generated; }

  private:
    uint64_t seed;
    uint64_t scriptSeed;
    int64_t session;
    std::unique_ptr<TimingPolicy> pol;
    std::unique_ptr<vrex::Model> llm;
    vrex::FrameGenerator gen;
    vrex::VisionTower tower;
    vrex::MlpProjector projector;
    int32_t frameId = 0;
    uint32_t questionNo = 0;
    std::vector<uint32_t> generated;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
