/**
 * @file
 * CKKS key material and key generation.
 *
 * Evaluation keys follow the hybrid (digit-decomposed) keyswitching
 * scheme the paper assumes (Figure 4): the chain is split into dnum
 * digits; the key for digit j encrypts P * g_j * s_old over the
 * extended basis Q ∪ E, where P = prod(E) and g_j is the CRT
 * "selector" integer that is ≡ 1 mod every prime of digit j and
 * ≡ 0 mod every other ciphertext prime. Because the selector is
 * multiplied by P, its residues modulo the extension primes are
 * irrelevant (they carry a factor P ≡ 0), so the per-prime factor
 * reduces to (P mod q) * [q ∈ digit j] — no big-integer arithmetic is
 * required anywhere in key generation.
 */

#ifndef CINNAMON_FHE_KEYS_H_
#define CINNAMON_FHE_KEYS_H_

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fhe/params.h"
#include "rns/poly.h"

namespace cinnamon::fhe {

/** The secret key: a ternary polynomial over the full key basis. */
struct SecretKey
{
    rns::RnsPoly s; ///< evaluation domain, basis Q ∪ E
};

/** A public encryption key (b, a) with b = -a s + e over Q. */
struct PublicKey
{
    rns::RnsPoly b;
    rns::RnsPoly a;
};

/**
 * An evaluation key: one (b_j, a_j) pair per digit, over Q ∪ E, with
 * b_j = -a_j s + e_j + (P mod q)[q ∈ D_j] * s_old.
 */
struct EvalKey
{
    std::vector<std::pair<rns::RnsPoly, rns::RnsPoly>> parts;
};

/**
 * The part of an evaluation key a consumer reads: the leading
 * `digits` digits, each restricted to the primes of `basis` (a
 * sub-basis of the key basis, in key-basis order). A compiled program
 * at a low level loads only a few primes and, with standard digits,
 * only the digits its chain prefix touches; a key generated to that
 * shape equals the full key at every limb it keeps.
 */
struct KeyShape
{
    std::size_t digits = 0; ///< leading digits generated
    rns::Basis basis;       ///< primes kept per (b, a) polynomial

    /** True when every limb of `need` is also a limb of this shape. */
    bool covers(const KeyShape &need) const;

    /** The smallest shape covering both. */
    static KeyShape unite(const KeyShape &a, const KeyShape &b);

    bool
    operator==(const KeyShape &o) const
    {
        return digits == o.digits && basis == o.basis;
    }
};

/** A set of rotation/conjugation keys indexed by Galois element. */
struct GaloisKeys
{
    std::map<uint64_t, EvalKey> keys;

    bool has(uint64_t galois) const { return keys.count(galois) != 0; }

    const EvalKey &
    get(uint64_t galois) const
    {
        auto it = keys.find(galois);
        CINN_ASSERT(it != keys.end(),
                    "missing Galois key for element " << galois);
        return it->second;
    }
};

/** Generates all key material from a seeded Rng. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &ctx, uint64_t seed);

    /**
     * A generator whose stream is a pure function of (this generator's
     * seed, identity). Evaluation keys drawn from a derived generator
     * are independent of the order they are requested in, so compiled
     * programs that load the same keys always see the same key bits no
     * matter how the compiler scheduled the loads.
     */
    KeyGenerator derived(const std::string &identity) const;

    /** Sample a fresh ternary secret key. */
    SecretKey secretKey();

    /** Public key for the given secret. */
    PublicKey publicKey(const SecretKey &sk);

    /** Relinearization key: switches s^2 back to s. */
    EvalKey relinKey(const SecretKey &sk);

    /** Rotation key for a specific Galois element. */
    EvalKey galoisKey(const SecretKey &sk, uint64_t galois);

    /** Rotation keys for a set of slot rotations (plus conjugation). */
    GaloisKeys galoisKeys(const SecretKey &sk,
                          const std::vector<int> &rotations,
                          bool include_conjugation = false);

    /**
     * Generic keyswitching key: encrypts old_secret (over Q ∪ E,
     * evaluation domain) so keyswitching re-encrypts a ciphertext
     * component times old_secret under sk.
     */
    EvalKey makeKeySwitchKey(const SecretKey &sk,
                             const rns::RnsPoly &old_secret);

    /**
     * Keyswitching key for an explicit digit partition (the digit
     * choice is free — Section 4.3.1 notes all digit selections are
     * interchangeable; output-aggregation keyswitching uses the
     * per-chip limb partition as its digits), cut to `shape` (the
     * whole key when none is given). `old_secret` (Eval domain) must
     * hold every prime the shape keeps. Every call above ends here.
     *
     * Every digit up to shape.digits still draws its uniform limbs
     * over the whole key basis and its one Gaussian vector, in the
     * full key's order, so the generator's stream — and with it every
     * kept limb — is exactly the full key's; only the NTTs, products
     * and storage of dropped limbs are skipped. Generation stops
     * after the last kept digit, so the stream beyond it is never
     * drawn: callers give each key its own derived() generator.
     */
    EvalKey makeKeySwitchKeyForDigits(
        const SecretKey &sk, const rns::RnsPoly &old_secret,
        const std::vector<rns::Basis> &digits,
        const std::optional<KeyShape> &shape = std::nullopt);

    /** Galois key material for a digit partition, cut to `shape`. */
    EvalKey galoisKeyForDigits(
        const SecretKey &sk, uint64_t galois,
        const std::vector<rns::Basis> &digits,
        const std::optional<KeyShape> &shape = std::nullopt);

    Rng &rng() { return rng_; }

    uint64_t seed() const { return seed_; }

  private:
    /**
     * Sample a uniform polynomial over `drawn` in the Eval domain and
     * keep the limbs of `kept` (a sub-basis of `drawn`): every limb
     * of `drawn` is drawn, in order.
     */
    rns::RnsPoly sampleUniform(const rns::Basis &drawn,
                               const rns::Basis &kept);

    /** Sample a gaussian error polynomial, returned in Eval domain. */
    rns::RnsPoly sampleError(const rns::Basis &basis);

    /** sk.s restricted to `basis`, moved through automorphism g. */
    rns::RnsPoly rotatedSecret(const SecretKey &sk, uint64_t galois,
                               const rns::Basis &basis) const;

    const CkksContext *ctx_;
    uint64_t seed_;
    Rng rng_;
};

} // namespace cinnamon::fhe

#endif // CINNAMON_FHE_KEYS_H_
