/**
 * @file
 * Tests for shaped evaluation keys and the tenant key cache: a shaped
 * key equals the full key at every limb it keeps; seeded execution
 * digests are identical without a cache, on a miss, on a hit and
 * after eviction; the doorkeeper admits nothing from a unique-seed
 * stream; a narrower resident key is regenerated to a covering shape.
 * This target also runs under ThreadSanitizer in CI (concurrent
 * same-seed misses share one cache).
 */

#include <gtest/gtest.h>

#include <thread>

#include "common/metrics.h"
#include "compiler/lowering.h"
#include "exec/backend.h"
#include "fhe/encoder.h"
#include "isa/key_cache.h"
#include "serve/catalog.h"
#include "serve/plan_cache.h"
#include "serve/server.h"

using namespace cinnamon;

namespace {

const fhe::CkksContext &
context()
{
    static fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 8, 16, 4));
    return ctx;
}

/** Every kept (digit, prime, poly) limb of `shaped` equals `full`'s. */
void
expectShapedMatchesFull(const fhe::EvalKey &full,
                        const fhe::EvalKey &shaped,
                        const fhe::KeyShape &shape)
{
    ASSERT_EQ(shaped.parts.size(), shape.digits);
    for (std::size_t d = 0; d < shape.digits; ++d) {
        for (int poly = 0; poly < 2; ++poly) {
            const auto &f = poly == 0 ? full.parts[d].first
                                      : full.parts[d].second;
            const auto &s = poly == 0 ? shaped.parts[d].first
                                      : shaped.parts[d].second;
            ASSERT_EQ(s.basis(), shape.basis);
            for (const uint32_t prime : shape.basis) {
                const auto fl = f.limb(f.findPrime(prime));
                const auto sl = s.limb(s.findPrime(prime));
                EXPECT_TRUE(std::equal(fl.begin(), fl.end(), sl.begin()))
                    << "digit " << d << " poly " << poly << " prime "
                    << prime;
            }
        }
    }
}

struct Probe
{
    serve::WorkloadCatalog catalog{context()};
    fhe::Encoder encoder{context()};
    serve::PlanCache plans{context()};

    const compiler::CompiledProgram &
    plan(std::size_t streams = 1)
    {
        compiler::CompilerConfig cfg;
        cfg.chips = 4 * streams;
        cfg.num_streams = static_cast<int>(streams);
        return plans.get(streams == 1 ? catalog.probe()
                                      : catalog.batchedProbe(streams),
                         cfg);
    }

    uint64_t
    digest(uint64_t seed, isa::KeyCache *keys = nullptr)
    {
        return exec::EmulateBackend::executeSeeded(
                   context(), encoder, catalog.probe(), plan(), seed, 0,
                   nullptr, nullptr, keys)
            .digest;
    }
};

isa::KeyCache::Options
tierOptions(std::size_t max_bytes)
{
    return {max_bytes, isa::KeyCache::kTierWindow, true};
}

} // namespace

TEST(KeyShape, CoversAndUnite)
{
    const fhe::KeyShape a{2, {0, 1, 5}};
    const fhe::KeyShape b{3, {1, 2}};
    EXPECT_TRUE(a.covers({1, {0, 5}}));
    EXPECT_FALSE(a.covers(b));
    EXPECT_FALSE(b.covers(a));
    const auto u = fhe::KeyShape::unite(a, b);
    EXPECT_EQ(u, (fhe::KeyShape{3, {0, 1, 2, 5}}));
    EXPECT_TRUE(u.covers(a));
    EXPECT_TRUE(u.covers(b));
}

TEST(ShapedKeys, EqualFullKeysAtEveryKeptLimb)
{
    const auto &ctx = context();
    fhe::KeyGenerator master(ctx, 42);
    const auto sk = master.secretKey();
    const auto key_basis = ctx.keyBasis();
    const auto std_digits = ctx.digits(ctx.maxLevel());
    const auto chip_digits = compiler::chipDigitBases(ctx.maxLevel(), 4);
    const uint64_t galois = ctx.galoisForRotation(3);

    // Kept primes: a low-level prefix plus the specials, a sparse
    // set, and the whole basis.
    std::vector<rns::Basis> bases;
    rns::Basis low = ctx.ciphertextBasis(4);
    for (const uint32_t sp : ctx.specialBasis())
        low.push_back(sp);
    bases.push_back(low);
    bases.push_back({1, 7, key_basis.back()});
    bases.push_back(key_basis);

    const auto s2 = sk.s.mul(sk.s);
    for (const auto &basis : bases) {
        for (const bool chip : {false, true}) {
            const auto &digits = chip ? chip_digits : std_digits;
            for (std::size_t d = 1; d <= digits.size(); ++d) {
                const fhe::KeyShape shape{d, basis};
                auto full_kg = master.derived("k");
                auto shaped_kg = master.derived("k");
                expectShapedMatchesFull(
                    full_kg.makeKeySwitchKeyForDigits(sk, s2, digits),
                    shaped_kg.makeKeySwitchKeyForDigits(sk, s2, digits,
                                                        shape),
                    shape);
                full_kg = master.derived("g");
                shaped_kg = master.derived("g");
                expectShapedMatchesFull(
                    full_kg.galoisKeyForDigits(sk, galois, digits),
                    shaped_kg.galoisKeyForDigits(sk, galois, digits,
                                                 shape),
                    shape);
            }
        }
    }

    // The full-key calls are the shaped path at the full shape.
    const fhe::KeyShape full{std_digits.size(), key_basis};
    auto a = master.derived("r");
    auto b = master.derived("r");
    expectShapedMatchesFull(
        a.relinKey(sk),
        b.makeKeySwitchKeyForDigits(sk, s2, std_digits, full), full);
}

TEST(KeyCache, DigestsIdenticalWithoutCacheOnMissHitAndAfterEviction)
{
    Probe probe;
    const uint64_t a = 0xa11ce, b = 0xb0b;
    const uint64_t ref_a = probe.digest(a), ref_b = probe.digest(b);
    ASSERT_NE(ref_a, ref_b);

    // Size the bound to one tenant's keys: measure them first.
    std::size_t tenant_bytes = 0;
    {
        isa::KeyCache sizing;
        EXPECT_EQ(probe.digest(a, &sizing), ref_a);
        tenant_bytes = sizing.stats().bytes;
        ASSERT_GT(tenant_bytes, 0u);
    }

    isa::KeyCache cache(tierOptions(tenant_bytes + tenant_bytes / 2));
    EXPECT_EQ(probe.digest(a, &cache), ref_a); // first sight: not kept
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(probe.digest(a, &cache), ref_a); // second: miss, admitted
    const auto admitted = cache.stats();
    EXPECT_EQ(admitted.bytes, tenant_bytes);
    EXPECT_EQ(admitted.hits, 0u);
    EXPECT_EQ(probe.digest(a, &cache), ref_a); // third: every key hits
    const auto warm = cache.stats();
    EXPECT_EQ(warm.misses, admitted.misses);
    EXPECT_EQ(warm.hits, admitted.entries);

    // A second tenant evicts the first; the first then regenerates.
    EXPECT_EQ(probe.digest(b, &cache), ref_b);
    EXPECT_EQ(probe.digest(b, &cache), ref_b);
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_LE(cache.stats().bytes, tenant_bytes + tenant_bytes / 2);
    EXPECT_EQ(probe.digest(a, &cache), ref_a);
    EXPECT_EQ(probe.digest(a, &cache), ref_a);
    EXPECT_EQ(probe.digest(b, &cache), ref_b);
}

TEST(KeyCache, BatchWithHittingAndMissingMembersMatchesSoloRuns)
{
    Probe probe;
    const uint64_t warm = 9001, cold = 9002;
    const std::vector<uint64_t> seeds = {warm, cold};
    isa::KeyCache cache(tierOptions(0));
    for (int i = 0; i < 2; ++i)
        probe.digest(warm, &cache);
    const auto before = cache.stats();
    ASSERT_GT(before.entries, 0u);

    const auto reports = exec::EmulateBackend::executeSeededBatch(
        context(), probe.encoder, probe.catalog.probe(), probe.plan(2),
        seeds, 0, nullptr, 0, nullptr, &cache);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].digest, probe.digest(warm));
    EXPECT_EQ(reports[1].digest, probe.digest(cold));
    EXPECT_GE(cache.stats().hits, before.entries);
}

TEST(KeyCache, UniqueSeedStreamAdmitsNothing)
{
    Probe probe;
    isa::KeyCache cache(tierOptions(64ull << 20));
    for (uint64_t seed = 1; seed <= 6; ++seed)
        probe.digest(seed * 7919, &cache);
    const auto s = cache.stats();
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.admits, 0u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(MetricsRegistry::global().gauge("exec.keycache.bytes").value(),
              0.0);
}

TEST(KeyCache, RuntimeRegeneratesCoveringKeysForAWiderProgram)
{
    const auto &ctx = context();
    Probe probe;

    // The probe's own computation at the top level: the same keys,
    // read over every prime rather than the level-4 prefix.
    compiler::Program wide("wide", ctx);
    auto x = wide.input("x", ctx.maxLevel());
    wide.output("window_sum",
                wide.add(wide.add(wide.rotate(x, 1), wide.rotate(x, 2)),
                         wide.add(wide.rotate(x, 3), wide.rotate(x, 4))));
    wide.output("square", wide.rescale(wide.mul(x, x)));
    compiler::CompilerConfig cfg;
    cfg.chips = 4;
    const auto wide_plan = compiler::Compiler(ctx, cfg).compile(wide);

    const uint64_t seed = 77;
    auto run = [&](isa::KeyCache *keys, bool probe_first) {
        fhe::KeyGenerator keygen(ctx, seed);
        const auto sk = keygen.secretKey();
        fhe::Evaluator eval(ctx);
        compiler::ProgramRuntime runtime(ctx, probe.encoder, keygen, sk);
        if (keys != nullptr)
            runtime.setKeyCache(keys);
        auto encrypt = [&](std::size_t level) {
            Rng rng(seed + level);
            std::vector<fhe::Cplx> v(ctx.slots());
            for (auto &c : v)
                c = fhe::Cplx(rng.uniformReal(-1.0, 1.0), 0.0);
            return eval.encrypt(probe.encoder.encode(v, level),
                                ctx.params().scale, sk, rng);
        };
        if (probe_first) {
            runtime.bindInput("x", encrypt(probe.catalog.probeLevel()));
            runtime.run(probe.plan());
        }
        runtime.bindInput("x", encrypt(ctx.maxLevel()));
        return exec::hashOutputs(runtime.run(wide_plan));
    };

    isa::KeyCache cache;
    const uint64_t fresh = run(nullptr, false);
    EXPECT_EQ(run(&cache, true), fresh);
    const auto s = cache.stats();
    // Some key was stored narrow for the probe, then replaced by a
    // covering one: more stores than resident entries.
    EXPECT_GT(s.admits, s.entries);
    // And the covering keys now serve both programs.
    const auto misses = s.misses;
    EXPECT_EQ(run(&cache, true), fresh);
    EXPECT_EQ(cache.stats().misses, misses);
}

TEST(KeyCache, ConcurrentSameSeedMissesAreRaceFree)
{
    Probe probe;
    probe.plan(); // compile once, before the threads share the cache
    const uint64_t seed = 31337;
    const uint64_t ref = probe.digest(seed);
    isa::KeyCache cache(tierOptions(64ull << 20));
    cache.sight(seed); // admitted on the threads' sightings

    std::vector<uint64_t> got(4, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back(
            [&, t] { got[t] = probe.digest(seed, &cache); });
    for (auto &t : threads)
        t.join();
    for (const uint64_t d : got)
        EXPECT_EQ(d, ref);
    EXPECT_GT(cache.stats().entries, 0u);
    EXPECT_EQ(probe.digest(seed, &cache), ref);
}

TEST(KeyCache, ServerRepeatTenantsHitWithIdenticalDigests)
{
    // Three requests per tenant: the third of each hits every key.
    serve::ServeOptions opt;
    opt.chips = 8;
    opt.group_size = 4;
    opt.workers = 2;
    serve::Server server(context(), opt);
    server.start();
    std::vector<uint64_t> seeds; // request ids count from 1
    for (int round = 0; round < 3; ++round)
        for (uint64_t tenant = 1; tenant <= 2; ++tenant) {
            seeds.push_back(tenant * 1009);
            EXPECT_TRUE(
                server.submit(serve::Workload::Keyswitch, seeds.back()));
        }
    server.drainAndStop();

    Probe probe;
    const auto responses = server.responses();
    ASSERT_EQ(responses.size(), seeds.size());
    for (const auto &r : responses) {
        EXPECT_EQ(r.status, serve::RequestStatus::Completed);
        EXPECT_EQ(r.output_hash, probe.digest(seeds.at(r.id - 1)))
            << "request " << r.id;
    }
    const auto stats = server.stats();
    EXPECT_GT(stats.key_cache.hits, 0u);
    EXPECT_GT(stats.key_cache_bytes, 0u);
    EXPECT_NE(stats.report().find("key cache:"), std::string::npos);
}
