#include "isa/key_cache.h"

#include "common/metrics.h"

namespace cinnamon::isa {
namespace {

std::size_t
polyBytes(const rns::RnsPoly &p)
{
    return p.flat().size() * sizeof(uint64_t);
}

std::size_t
keyBytes(const fhe::EvalKey &key)
{
    std::size_t bytes = 0;
    for (const auto &[b, a] : key.parts)
        bytes += polyBytes(b) + polyBytes(a);
    return bytes;
}

/** Identity of a tenant's secret key (eval identities contain ':'). */
const std::string kSecretId = "sk";

Gauge &
bytesGauge()
{
    return MetricsRegistry::global().gauge("exec.keycache.bytes");
}

} // namespace

std::unique_ptr<KeyCache>
KeyCache::forTier()
{
    return std::make_unique<KeyCache>(
        Options{kTierBytes, kTierWindow, true});
}

KeyCache::KeyCache() : KeyCache(Options{}) {}

KeyCache::KeyCache(Options options) : options_(options) {}

KeyCache::~KeyCache()
{
    if (options_.metered)
        bytesGauge().add(-static_cast<double>(stats_.bytes));
}

void
KeyCache::count(const char *name) const
{
    if (options_.metered)
        MetricsRegistry::global().counter(name).add();
}

void
KeyCache::sight(uint64_t seed)
{
    if (options_.window == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sightings_.find(seed);
    if (it != sightings_.end()) {
        ++it->second.count;
        recent_.splice(recent_.begin(), recent_, it->second.order);
        return;
    }
    recent_.push_front(seed);
    sightings_.emplace(seed, Sighting{1, recent_.begin()});
    if (recent_.size() > options_.window) {
        sightings_.erase(recent_.back());
        recent_.pop_back();
    }
}

bool
KeyCache::admittedLocked(uint64_t seed) const
{
    if (options_.window == 0 || resident_.count(seed) != 0)
        return true;
    auto it = sightings_.find(seed);
    return it != sightings_.end() && it->second.count >= 2;
}

KeyCache::Entry *
KeyCache::lookupLocked(const Id &id)
{
    auto it = entries_.find(id);
    if (it == entries_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return &it->second;
}

std::shared_ptr<const fhe::EvalKey>
KeyCache::find(uint64_t seed, const std::string &identity,
               const fhe::KeyShape &need, fhe::KeyShape *have)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry *e = lookupLocked({seed, identity});
    if (e != nullptr && e->shape.covers(need)) {
        ++stats_.hits;
        count("exec.keycache.hit");
        return e->key;
    }
    if (e != nullptr && have != nullptr)
        *have = e->shape;
    ++stats_.misses;
    count("exec.keycache.miss");
    return nullptr;
}

std::shared_ptr<const fhe::SecretKey>
KeyCache::findSecret(uint64_t seed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry *e = lookupLocked({seed, kSecretId});
    if (e != nullptr) {
        ++stats_.hits;
        count("exec.keycache.hit");
        return e->secret;
    }
    ++stats_.misses;
    count("exec.keycache.miss");
    return nullptr;
}

void
KeyCache::insert(uint64_t seed, const std::string &identity,
                 fhe::KeyShape shape,
                 std::shared_ptr<const fhe::EvalKey> key)
{
    Entry entry;
    entry.bytes = keyBytes(*key);
    entry.shape = std::move(shape);
    entry.key = std::move(key);
    std::lock_guard<std::mutex> lock(mutex_);
    Entry *resident = lookupLocked({seed, identity});
    if (resident != nullptr && resident->shape.covers(entry.shape))
        return; // a concurrent miss already stored a covering key
    storeLocked({seed, identity}, std::move(entry));
}

void
KeyCache::insertSecret(uint64_t seed,
                       std::shared_ptr<const fhe::SecretKey> sk)
{
    Entry entry;
    entry.bytes = polyBytes(sk->s);
    entry.secret = std::move(sk);
    std::lock_guard<std::mutex> lock(mutex_);
    if (lookupLocked({seed, kSecretId}) != nullptr)
        return;
    storeLocked({seed, kSecretId}, std::move(entry));
}

void
KeyCache::storeLocked(Id id, Entry entry)
{
    if (!admittedLocked(id.first))
        return;
    if (options_.max_bytes != 0 && entry.bytes > options_.max_bytes)
        return;
    long long delta = static_cast<long long>(entry.bytes);
    auto old = entries_.find(id);
    if (old != entries_.end()) {
        delta -= static_cast<long long>(old->second.bytes);
        eraseLocked(old);
    }

    lru_.push_front(id);
    entry.lru = lru_.begin();
    stats_.bytes += entry.bytes;
    ++resident_[id.first];
    entries_.emplace(std::move(id), std::move(entry));
    ++stats_.admits;
    count("exec.keycache.admit");

    while (options_.max_bytes != 0 && stats_.bytes > options_.max_bytes) {
        // The new entry fits alone and sits at the front, so the
        // loop stops before reaching it.
        auto victim = entries_.find(lru_.back());
        delta -= static_cast<long long>(victim->second.bytes);
        eraseLocked(victim);
        ++stats_.evictions;
        count("exec.keycache.evict");
    }
    if (options_.metered)
        bytesGauge().add(static_cast<double>(delta));
}

void
KeyCache::eraseLocked(std::map<Id, Entry>::iterator it)
{
    stats_.bytes -= it->second.bytes;
    auto r = resident_.find(it->first.first);
    if (--r->second == 0)
        resident_.erase(r);
    lru_.erase(it->second.lru);
    entries_.erase(it);
}

KeyCache::Stats
KeyCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    s.entries = entries_.size();
    return s;
}

} // namespace cinnamon::isa
