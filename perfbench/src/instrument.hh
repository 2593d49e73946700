/**
 * @file
 * Timing decorators installed through the engine's public extension
 * points, so the traced run can time the layers that run on engine
 * workers without any change to the program:
 *
 *  - TimingPolicy wraps the ReSV policy (core layer) and is built by
 *    the PolicyFactory that makeTimingFactory() returns; the engine
 *    picks it up through EngineConfig::factory.
 *  - TimingColdStore wraps a MemoryColdStore (kvstore layer) and is
 *    passed in KvBudgetConfig::store.
 *
 * Both forward every call unchanged, so the engine's bytes are the
 * same with and without them.
 */

#ifndef PERFBENCH_INSTRUMENT_HH
#define PERFBENCH_INSTRUMENT_HH

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/resv.hh"
#include "kvstore/cold_store.hh"
#include "serve/policy_factory.hh"

namespace perfbench
{

/** SelectionPolicy decorator: a span around each policy hook. */
class TimingPolicy : public vrex::SelectionPolicy
{
  public:
    TimingPolicy(std::unique_ptr<vrex::SelectionPolicy> inner,
                 int64_t session);

    void onBlockAppended(uint32_t layer, const vrex::KVCache &cache,
                         uint32_t block_start, uint32_t block_len,
                         vrex::TokenStage stage) override;
    vrex::LayerSelection select(uint32_t layer, const vrex::Matrix &q,
                                const vrex::KVCache &cache,
                                uint32_t past_len,
                                vrex::TokenStage stage) override;
    void reset() override { inner->reset(); }
    void serializeState(vrex::serial::ByteWriter &w) const override
    {
        inner->serializeState(w);
    }
    void restoreState(vrex::serial::ByteReader &r) override
    {
        inner->restoreState(r);
    }

    /** The wrapped ReSV policy (nullptr for other kinds). */
    const vrex::ResvPolicy *resv() const;

    /** Engine session id stamped on the spans (-1 = unknown). */
    void setSession(int64_t id) { sessionId.store(id); }

  private:
    std::unique_ptr<vrex::SelectionPolicy> inner;
    std::atomic<int64_t> sessionId;
};

/** The built-in policy registry with ReSV wrapped in TimingPolicy.
 *  A policy built while TimingColdStore::get() wakes a session on
 *  the same thread is stamped with that session's id. */
std::unique_ptr<vrex::serve::PolicyFactory> makeTimingFactory();

/** ColdStore decorator: spans around put() and get(). */
class TimingColdStore : public vrex::ColdStore
{
  public:
    void put(uint64_t key, const std::vector<uint8_t> &blob) override;
    std::vector<uint8_t> get(uint64_t key) const override;
    bool contains(uint64_t key) const override
    {
        return inner.contains(key);
    }
    void erase(uint64_t key) override { inner.erase(key); }
    uint64_t totalBytes() const override { return inner.totalBytes(); }
    uint64_t count() const override { return inner.count(); }
    vrex::Tier tier() const override { return inner.tier(); }
    vrex::TransferStats stats() const override { return inner.stats(); }

    /** The wrapped store, for reads that must not be timed. */
    const vrex::MemoryColdStore &memory() const { return inner; }

  private:
    vrex::MemoryColdStore inner;
};

} // namespace perfbench

#endif // PERFBENCH_INSTRUMENT_HH
