/**
 * @file
 * KeyCache: a serving tier's bounded store of tenants' evaluation keys.
 *
 * A request's keys are a pure function of its seed: the secret key is
 * the first draw of KeyGenerator(seed), and each evaluation key comes
 * from the generator derived from (seed, key identity). A cached key is
 * therefore bit-identical to a regenerated one, and serving a tenant's
 * repeat requests from the cache cannot change a digest. The cache
 * holds shaped keys (only the digits and primes a program loads); a
 * lookup whose shape is not covered is a miss, and the caller
 * regenerates a covering shape — a partial key is never served.
 *
 * Admission is gated by a doorkeeper: a seed's keys are kept only once
 * the seed has been sighted at least twice within the last `window`
 * distinct seeds, so a stream of unique seeds never occupies memory
 * while a repeat tenant hits from its third request on. Resident keys
 * are evicted least-recently-used under a byte bound. Entries are
 * handed out as shared pointers, so an eviction never frees a key a
 * running request still reads.
 *
 * A serving tier's cache (forTier()) books exec.keycache.{hit,miss,
 * admit,evict} counters and moves the exec.keycache.bytes gauge by its
 * resident bytes, so the gauge reads the bytes the process's tiers
 * hold. A runtime's own cache books nothing.
 */

#ifndef CINNAMON_ISA_KEY_CACHE_H_
#define CINNAMON_ISA_KEY_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "fhe/keys.h"

namespace cinnamon::isa {

class KeyCache
{
  public:
    struct Options
    {
        /** Bound on resident key bytes; 0 = unbounded. */
        std::size_t max_bytes = 0;
        /**
         * Doorkeeper width: how many recent distinct seeds are
         * remembered. 0 admits every key on first sight.
         */
        std::size_t window = 0;
        /** Book the exec.keycache.* counters and gauge. */
        bool metered = false;
    };

    /** Lookup and admission counts since construction. */
    struct Stats
    {
        std::size_t hits = 0;
        std::size_t misses = 0;
        std::size_t admits = 0;
        std::size_t evictions = 0;
        std::size_t bytes = 0;   ///< resident key bytes
        std::size_t entries = 0; ///< resident keys (secret keys too)
    };

    /** Recent distinct seeds a serving tier's doorkeeper remembers. */
    static constexpr std::size_t kTierWindow = 64;

    /**
     * Resident key bytes a serving tier keeps: the serving probe's
     * shaped keys are about 10 MB per tenant, so a dozen repeat
     * tenants stay resident.
     */
    static constexpr std::size_t kTierBytes = 128ull << 20;

    /**
     * A serving tier's cache: doorkeeper over kTierWindow seeds, LRU
     * under kTierBytes, metered.
     */
    static std::unique_ptr<KeyCache> forTier();

    /** Admits every key and never evicts (a runtime's own cache). */
    KeyCache();
    explicit KeyCache(Options options);
    ~KeyCache();

    KeyCache(const KeyCache &) = delete;
    KeyCache &operator=(const KeyCache &) = delete;

    /** Record one request of tenant `seed` (the doorkeeper's input). */
    void sight(uint64_t seed);

    /**
     * The evaluation key (seed, identity) if a resident one covers
     * `need`, else null (a miss). When the resident key is narrower
     * than `need`, *have receives its shape so the caller can
     * regenerate one covering both.
     */
    std::shared_ptr<const fhe::EvalKey>
    find(uint64_t seed, const std::string &identity,
         const fhe::KeyShape &need, fhe::KeyShape *have = nullptr);

    /**
     * Offer a key generated to `shape`. Kept only when the seed is
     * admitted and the key fits the byte bound; a resident key that
     * already covers `shape` is kept instead.
     */
    void insert(uint64_t seed, const std::string &identity,
                fhe::KeyShape shape,
                std::shared_ptr<const fhe::EvalKey> key);

    /**
     * The tenant's secret key, or null (a miss). It is one more
     * resident key: it counts in the stats and the byte bound like an
     * evaluation key.
     */
    std::shared_ptr<const fhe::SecretKey> findSecret(uint64_t seed);

    /** Offer a tenant's secret key (same admission as insert()). */
    void insertSecret(uint64_t seed,
                      std::shared_ptr<const fhe::SecretKey> sk);

    Stats stats() const;

  private:
    using Id = std::pair<uint64_t, std::string>; ///< (seed, identity)

    struct Entry
    {
        fhe::KeyShape shape;
        std::shared_ptr<const fhe::EvalKey> key;
        std::shared_ptr<const fhe::SecretKey> secret;
        std::size_t bytes = 0;
        std::list<Id>::iterator lru;
    };

    struct Sighting
    {
        std::size_t count = 0;
        std::list<uint64_t>::iterator order;
    };

    /** Whether `seed`'s keys may be stored. Caller holds mutex_. */
    bool admittedLocked(uint64_t seed) const;

    /** The entry (seed, identity), promoted to most recent, or null. */
    Entry *lookupLocked(const Id &id);

    /** Store `entry` under `id`, then evict down to the bound. */
    void storeLocked(Id id, Entry entry);

    void eraseLocked(std::map<Id, Entry>::iterator it);

    /** Book one event into counter `name` when metered. */
    void count(const char *name) const;

    const Options options_;
    mutable std::mutex mutex_;
    std::map<Id, Entry> entries_;
    std::list<Id> lru_; ///< most recent first
    std::unordered_map<uint64_t, std::size_t> resident_; ///< per seed
    std::unordered_map<uint64_t, Sighting> sightings_;
    std::list<uint64_t> recent_; ///< doorkeeper window, newest first
    Stats stats_;
};

} // namespace cinnamon::isa

#endif // CINNAMON_ISA_KEY_CACHE_H_
