#include "fhe/keys.h"

#include <algorithm>
#include <iterator>

namespace cinnamon::fhe {

KeyGenerator::KeyGenerator(const CkksContext &ctx, uint64_t seed)
    : ctx_(&ctx), seed_(seed), rng_(seed)
{
}

KeyGenerator
KeyGenerator::derived(const std::string &identity) const
{
    // FNV-1a over the identity, mixed with the master seed.
    uint64_t h = 14695981039346656037ull ^ seed_;
    for (char c : identity) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return KeyGenerator(*ctx_, h);
}

rns::RnsPoly
KeyGenerator::sampleUniform(const rns::Basis &drawn,
                            const rns::Basis &kept)
{
    rns::RnsPoly p(ctx_->rns(), kept, rns::Domain::Eval);
    std::size_t k = 0;
    for (const uint32_t prime : drawn) {
        const uint64_t q = ctx_->rns().modulus(prime).value();
        if (k < kept.size() && kept[k] == prime) {
            uint64_t *limb = p.limbData(k++);
            for (std::size_t j = 0; j < ctx_->n(); ++j)
                limb[j] = rng_.uniformMod(q);
        } else {
            for (std::size_t j = 0; j < ctx_->n(); ++j)
                (void)rng_.uniformMod(q);
        }
    }
    CINN_ASSERT(k == kept.size(),
                "kept primes must be a sub-basis of the drawn basis");
    return p;
}

rns::RnsPoly
KeyGenerator::sampleError(const rns::Basis &basis)
{
    auto e = rng_.gaussianVector(ctx_->n());
    rns::RnsPoly p(ctx_->rns(), basis, rns::Domain::Coeff);
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const rns::Modulus &mod = ctx_->rns().modulus(basis[i]);
        for (std::size_t j = 0; j < e.size(); ++j)
            p.limb(i)[j] = mod.fromSigned(e[j]);
    }
    p.toEval();
    return p;
}

SecretKey
KeyGenerator::secretKey()
{
    auto t = rng_.ternaryVector(ctx_->n());
    const rns::Basis basis = ctx_->keyBasis();
    rns::RnsPoly s(ctx_->rns(), basis, rns::Domain::Coeff);
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const rns::Modulus &mod = ctx_->rns().modulus(basis[i]);
        for (std::size_t j = 0; j < t.size(); ++j)
            s.limb(i)[j] = mod.fromSigned(t[j]);
    }
    s.toEval();
    return SecretKey{std::move(s)};
}

PublicKey
KeyGenerator::publicKey(const SecretKey &sk)
{
    const rns::Basis basis = ctx_->ciphertextBasis(ctx_->maxLevel());
    rns::RnsPoly a = sampleUniform(basis, basis);
    rns::RnsPoly e = sampleError(basis);
    rns::RnsPoly b = a.mul(sk.s.restrictTo(basis));
    b.negateInPlace();
    b.addInPlace(e);
    return PublicKey{std::move(b), std::move(a)};
}

bool
KeyShape::covers(const KeyShape &need) const
{
    return need.digits <= digits &&
           std::includes(basis.begin(), basis.end(), need.basis.begin(),
                         need.basis.end());
}

KeyShape
KeyShape::unite(const KeyShape &a, const KeyShape &b)
{
    KeyShape u;
    u.digits = std::max(a.digits, b.digits);
    std::set_union(a.basis.begin(), a.basis.end(), b.basis.begin(),
                   b.basis.end(), std::back_inserter(u.basis));
    return u;
}

rns::RnsPoly
KeyGenerator::rotatedSecret(const SecretKey &sk, uint64_t galois,
                            const rns::Basis &basis) const
{
    rns::RnsPoly s = sk.s.restrictTo(basis);
    s.toCoeff();
    rns::RnsPoly s_auto = s.automorphism(galois);
    s_auto.toEval();
    return s_auto;
}

EvalKey
KeyGenerator::makeKeySwitchKeyForDigits(
    const SecretKey &sk, const rns::RnsPoly &old_secret,
    const std::vector<rns::Basis> &digits,
    const std::optional<KeyShape> &shape)
{
    const KeyShape want =
        shape ? *shape : KeyShape{digits.size(), ctx_->keyBasis()};
    const rns::Basis key_basis = ctx_->keyBasis();
    CINN_ASSERT(old_secret.domain() == rns::Domain::Eval,
                "old_secret must be in the Eval domain");
    CINN_ASSERT(want.digits <= digits.size(),
                "key shape keeps " << want.digits << " of "
                                   << digits.size() << " digits");
    CINN_ASSERT(std::is_sorted(want.basis.begin(), want.basis.end()) &&
                    rns::isSubsetOf(want.basis, key_basis),
                "key shape primes must be a sorted sub-basis of the "
                "key basis");

    // Every product below is per limb, so each kept limb is computed
    // exactly as in the full key; dropped limbs are never built.
    const rns::Basis &kept = want.basis;
    const rns::RnsPoly s = sk.s.restrictTo(kept);
    const rns::RnsPoly old = old_secret.basis() == kept
                                 ? old_secret
                                 : old_secret.restrictTo(kept);

    // P mod q for every kept prime.
    const rns::Basis special = ctx_->specialBasis();
    std::vector<uint64_t> p_mod(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
        const rns::Modulus &mod = ctx_->rns().modulus(kept[i]);
        uint64_t p = 1;
        for (uint32_t sp : special)
            p = mod.mul(p, ctx_->rns().modulus(sp).value() % mod.value());
        p_mod[i] = p;
    }

    EvalKey evk;
    evk.parts.reserve(want.digits);
    for (std::size_t d = 0; d < want.digits; ++d) {
        const rns::Basis &digit = digits[d];
        rns::RnsPoly a = sampleUniform(key_basis, kept);
        rns::RnsPoly b = sampleError(kept);
        b.subInPlace(a.mul(s));

        // Add (P mod q) * [q in digit] * old_secret per limb.
        std::vector<uint64_t> factors(kept.size(), 0);
        for (std::size_t i = 0; i < kept.size(); ++i) {
            if (std::find(digit.begin(), digit.end(), kept[i]) !=
                digit.end()) {
                factors[i] = p_mod[i];
            }
        }
        rns::RnsPoly payload = old;
        payload.mulScalarPerLimb(factors);
        b.addInPlace(payload);

        evk.parts.emplace_back(std::move(b), std::move(a));
    }
    return evk;
}

EvalKey
KeyGenerator::makeKeySwitchKey(const SecretKey &sk,
                               const rns::RnsPoly &old_secret)
{
    return makeKeySwitchKeyForDigits(sk, old_secret,
                                     ctx_->digits(ctx_->maxLevel()));
}

EvalKey
KeyGenerator::relinKey(const SecretKey &sk)
{
    return makeKeySwitchKey(sk, sk.s.mul(sk.s));
}

EvalKey
KeyGenerator::galoisKey(const SecretKey &sk, uint64_t galois)
{
    return galoisKeyForDigits(sk, galois, ctx_->digits(ctx_->maxLevel()));
}

EvalKey
KeyGenerator::galoisKeyForDigits(const SecretKey &sk, uint64_t galois,
                                 const std::vector<rns::Basis> &digits,
                                 const std::optional<KeyShape> &shape)
{
    const rns::Basis basis = shape ? shape->basis : ctx_->keyBasis();
    return makeKeySwitchKeyForDigits(
        sk, rotatedSecret(sk, galois, basis), digits, shape);
}

GaloisKeys
KeyGenerator::galoisKeys(const SecretKey &sk,
                         const std::vector<int> &rotations,
                         bool include_conjugation)
{
    GaloisKeys gks;
    for (int r : rotations) {
        const uint64_t g = ctx_->galoisForRotation(r);
        if (!gks.has(g))
            gks.keys.emplace(g, galoisKey(sk, g));
    }
    if (include_conjugation) {
        const uint64_t g = ctx_->galoisForConjugation();
        if (!gks.has(g))
            gks.keys.emplace(g, galoisKey(sk, g));
    }
    return gks;
}

} // namespace cinnamon::fhe
