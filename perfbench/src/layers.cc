#include "layers.h"

#include <algorithm>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "net/frame.h"
#include "net/message.h"
#include "rns/kernels.h"

namespace perfbench {

using namespace cinnamon;

namespace {

/**
 * Median µs per call of `fn` over 7 batches, each batch long enough
 * (≥ 2 ms) to hide the clock's resolution.
 */
template <typename Fn>
double
usPerCall(Fn &&fn)
{
    std::size_t reps = 1;
    while (true) {
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            fn();
        if (msSince(t0) >= 2.0 || reps >= (1u << 20))
            break;
        reps *= 2;
    }
    std::vector<double> us;
    for (int b = 0; b < 7; ++b) {
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            fn();
        us.push_back(msSince(t0) * 1e3 / static_cast<double>(reps));
    }
    return median(us);
}

} // namespace

void
probeRnsKernels(const fhe::CkksContext &ctx, SpanLog *spans, Result &res)
{
    SpanLog::Scope s(spans, "rns.kernels", "rns");
    const auto &rctx = ctx.rns();
    const std::size_t n = ctx.n();
    const auto &mod = rctx.modulus(0);
    const uint64_t q = mod.value();
    const auto &kt = rns::kernels();

    constexpr std::size_t kFan = 4;
    Rng rng(0x4b1e5);
    std::vector<std::vector<uint64_t>> src(kFan,
                                           std::vector<uint64_t>(n));
    uint64_t src_bound = 0;
    for (std::size_t i = 0; i < kFan; ++i) {
        const uint64_t qi = rctx.modulus(static_cast<uint32_t>(i)).value();
        src_bound = std::max(src_bound, qi);
        for (auto &v : src[i])
            v = rng.uniformMod(qi);
    }
    std::vector<uint64_t> a = src[0], dst(n);

    const auto &ntt = rctx.ntt(0);
    res.metric("rns.ntt_fwd_us", usPerCall([&] { ntt.forward(a.data()); }),
               "us");
    res.metric("rns.ntt_inv_us", usPerCall([&] { ntt.inverse(a.data()); }),
               "us");
    const uint64_t *srcs[kFan];
    uint64_t fs[kFan];
    for (std::size_t i = 0; i < kFan; ++i) {
        srcs[i] = src[i].data();
        fs[i] = (i + 3) % q;
    }
    res.metric("rns.baseconv_us", usPerCall([&] {
                   kt.macMulti(dst.data(), srcs, fs, kFan, n, mod,
                               src_bound);
               }),
               "us");
    const uint64_t galois = ctx.galoisForRotation(1);
    res.metric("rns.automorph_us", usPerCall([&] {
                   kt.automorph(dst.data(), src[0].data(), n, galois, q);
               }),
               "us");
    res.metric("rns.mulmod_us", usPerCall([&] {
                   kt.mul(dst.data(), src[0].data(), a.data(), n, mod);
               }),
               "us");
}

void
probeNet(std::size_t members, SpanLog *spans, Result &res)
{
    SpanLog::Scope s(spans, "net.frames", "net");
    net::SubmitMsg submit;
    submit.request_id = 1;
    submit.seed = 0x1234;
    for (std::size_t i = 1; i < members; ++i)
        submit.extras.push_back({i + 1, 0x1234 + i, 0});
    net::ResultMsg result;
    result.request_id = 1;
    result.digest = 0xfeedull;
    result.sim_seconds = 1e-3;
    result.service_ms = 80.0;

    std::vector<uint8_t> a, b;
    res.metric("net.encode_us", usPerCall([&] {
                   a = net::encodeFrame(net::MsgType::Submit,
                                        submit.encode());
                   b = net::encodeFrame(net::MsgType::Result,
                                        result.encode());
               }),
               "us");
    bool ok = true;
    res.metric("net.decode_us", usPerCall([&] {
                   net::FrameDecoder dec;
                   dec.feed(a.data(), a.size());
                   dec.feed(b.data(), b.size());
                   net::Frame f;
                   net::SubmitMsg sm;
                   net::ResultMsg rm;
                   ok &= dec.next(&f) == net::DecodeStatus::Ok &&
                         sm.decode(f.payload);
                   ok &= dec.next(&f) == net::DecodeStatus::Ok &&
                         rm.decode(f.payload);
               }),
               "us");
    res.check(ok, "net: a framed Submit/Result failed to decode");
}

void
poolMetrics(Result &res)
{
    auto &reg = MetricsRegistry::global();
    const double chunks = reg.counter("pool.chunks").value();
    const double stolen = reg.counter("pool.chunks_stolen").value();
    res.metric("pool.parallelism",
               static_cast<double>(TaskPool::global().parallelism()),
               "count");
    res.metric("pool.jobs", reg.counter("pool.jobs").value(), "count");
    res.metric("pool.steal_ratio", chunks > 0 ? stolen / chunks : 0.0,
               "ratio");
}

} // namespace perfbench
