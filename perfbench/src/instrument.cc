#include "instrument.hh"

#include "trace.hh"

namespace perfbench
{

namespace
{

/** Session a TimingColdStore::get() on this thread is waking. The
 *  engine fetches the blob and then rebuilds the policy on the same
 *  thread, so the next policy built here belongs to that session. */
thread_local int64_t wakingSession = -1;

} // namespace

TimingPolicy::TimingPolicy(std::unique_ptr<vrex::SelectionPolicy> policy,
                           int64_t session)
    : inner(std::move(policy)), sessionId(session)
{
}

void
TimingPolicy::onBlockAppended(uint32_t layer, const vrex::KVCache &cache,
                              uint32_t block_start, uint32_t block_len,
                              vrex::TokenStage stage)
{
    ScopedSpan span("core.append", sessionId.load());
    inner->onBlockAppended(layer, cache, block_start, block_len, stage);
}

vrex::LayerSelection
TimingPolicy::select(uint32_t layer, const vrex::Matrix &q,
                     const vrex::KVCache &cache, uint32_t past_len,
                     vrex::TokenStage stage)
{
    ScopedSpan span("core.select", sessionId.load());
    return inner->select(layer, q, cache, past_len, stage);
}

const vrex::ResvPolicy *
TimingPolicy::resv() const
{
    return dynamic_cast<const vrex::ResvPolicy *>(inner.get());
}

std::unique_ptr<vrex::serve::PolicyFactory>
makeTimingFactory()
{
    auto factory = std::make_unique<vrex::serve::PolicyFactory>();
    factory->registerMaker(
        vrex::serve::PolicyKind::ReSV,
        [](const vrex::ModelConfig &model,
           const vrex::serve::PolicySpec &spec) {
            const int64_t session = wakingSession;
            wakingSession = -1;
            return std::make_unique<TimingPolicy>(
                std::make_unique<vrex::ResvPolicy>(model, spec.resvCfg),
                session);
        });
    return factory;
}

void
TimingColdStore::put(uint64_t key, const std::vector<uint8_t> &blob)
{
    ScopedSpan span("kvstore.put", static_cast<int64_t>(key));
    inner.put(key, blob);
}

std::vector<uint8_t>
TimingColdStore::get(uint64_t key) const
{
    wakingSession = static_cast<int64_t>(key);
    ScopedSpan span("kvstore.get", static_cast<int64_t>(key));
    return inner.get(key);
}

} // namespace perfbench
