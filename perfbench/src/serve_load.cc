/**
 * @file
 * Serve phase: drives the workload's serving path with generated
 * traffic and checks every served digest it can afford to replay.
 *
 *   serve_tenants   in-process serve::Server, 8 chips as 2 groups of
 *                   4, 2 workers, unbatched, no dwell. Requests follow
 *                   the 6-workload catalog mix; seeds come from a
 *                   pool of 8 tenants, so a tenant's keys come back.
 *   serve_loopback  RemoteFrontEnd plus 2 worker processes (this
 *                   binary re-executed with --role worker) over
 *                   loopback TCP, batching up to 2 streams, one
 *                   workload tag, every seed unique. Each worker's
 *                   pool gets nproc/2 threads.
 *
 * Both run an open-loop Poisson phase at kRateRps (latency timed from
 * each request's due time) and then a closed-loop saturation phase
 * with kOutstandingPerGroup requests outstanding per chip group.
 * n = 2^12, 16 levels, everywhere.
 */

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "common/random.h"
#include "compiler/lowering.h"
#include "exec/backend.h"
#include "layers.h"
#include "serve/catalog.h"
#include "serve/remote/frontend.h"
#include "serve/remote/supervisor.h"
#include "serve/remote/worker.h"
#include "serve/server.h"

namespace perfbench {

using namespace cinnamon;
using serve::RequestStatus;
using serve::Response;
using serve::Workload;

namespace {

constexpr std::size_t kChips = 8;
constexpr std::size_t kGroup = 4;
constexpr std::size_t kGroups = kChips / kGroup;
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kBatchStreams = 2;
constexpr std::size_t kTenants = 8;
/**
 * Open-loop arrival rate (req/s): about 20% of in-process and 30% of
 * loopback saturation, low enough that queued requests rarely batch,
 * so p90 measures the solo path rather than the batched/solo mix.
 */
constexpr double kRateRps = 5.0;
/** Open-loop minimum: enough completions for a supported p90. */
constexpr std::size_t kMinOpen = 100;
constexpr std::size_t kOutstandingPerGroup = 2;
/** Distinct served seeds replayed through executeSeeded per run. */
constexpr std::size_t kReplays = 12;
/** Workload of every serve_loopback request (one compatible tag). */
constexpr Workload kLoopbackWorkload = Workload::Keyswitch;

const Workload kCatalog[6] = {Workload::Bootstrap, Workload::ResNet,
                              Workload::Helr,      Workload::Bert,
                              Workload::ObliviousJoin,
                              Workload::Keyswitch};

fhe::CkksParams
serveParams()
{
    return fhe::CkksParams::makeTest(1 << 12, 16, 4);
}

bool
isFinal(RequestStatus s)
{
    return s != RequestStatus::Retried;
}

/** One generated request. */
struct Planned
{
    Workload workload = Workload::Keyswitch;
    uint64_t seed = 0;
};

} // namespace

/** Either serving path behind one submit/poll/drain face. */
class ServeFixture
{
  public:
    ServeFixture(const Args &args) : args_(args)
    {
        loopback = args.workload == "serve_loopback";
        ctx = std::make_unique<fhe::CkksContext>(serveParams());
        encoder = std::make_unique<fhe::Encoder>(*ctx);
        uint64_t state = args.seed ^ 0x7e4a47ull;
        for (std::size_t t = 0; t < kTenants; ++t)
            tenants.push_back(splitmix64(state));
        gen_state_ = args.seed ^ 0x9e11ull;
        if (loopback)
            startLoopback();
        else
            startInProcess();
        warmUp();
    }

    ~ServeFixture() { drain(); }

    ServeFixture(const ServeFixture &) = delete;
    ServeFixture &operator=(const ServeFixture &) = delete;

    /** The next request of this workload's generated trace. */
    Planned
    next()
    {
        Planned p;
        if (loopback) {
            p.workload = kLoopbackWorkload;
            p.seed = splitmix64(gen_state_);
        } else {
            p.workload = kCatalog[splitmix64(gen_state_) % 6];
            p.seed = tenants[splitmix64(gen_state_) % kTenants];
        }
        return p;
    }

    /** Submit; returns the request id (ids are 1.. in submit order). */
    uint64_t
    submit(const Planned &p)
    {
        if (loopback)
            fe->submit(p.workload, p.seed);
        else
            server->submit(p.workload, p.seed);
        planned.push_back(p);
        return planned.size();
    }

    /** Final responses not yet returned by an earlier poll(). */
    std::vector<Response>
    poll()
    {
        auto all = loopback ? fe->responses() : server->responses();
        std::vector<Response> out;
        for (std::size_t i = seen_; i < all.size(); ++i)
            if (isFinal(all[i].status))
                out.push_back(all[i]);
        seen_ = all.size();
        return out;
    }

    /** Block until `ids` have all reached a final state. */
    std::vector<Response>
    waitFor(std::set<uint64_t> ids)
    {
        std::vector<Response> got;
        while (!ids.empty()) {
            for (auto &r : poll()) {
                if (ids.erase(r.id) != 0)
                    got.push_back(r);
                finals.push_back(std::move(r));
            }
            if (!ids.empty())
                std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        return got;
    }

    void
    drain()
    {
        if (drained_)
            return;
        drained_ = true;
        if (loopback) {
            fe->drainAndStop();
            for (const pid_t pid : pids)
                supervisor->wait(pid);
        } else {
            server->drainAndStop();
        }
    }

    serve::ServeStats
    stats() const
    {
        return loopback ? fe->stats() : server->stats();
    }

    bool loopback = false;
    std::unique_ptr<fhe::CkksContext> ctx;
    std::unique_ptr<fhe::Encoder> encoder;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<serve::remote::RemoteFrontEnd> fe;
    std::unique_ptr<serve::remote::ProcessSupervisor> supervisor;
    std::vector<pid_t> pids;
    std::vector<uint64_t> tenants;
    /** planned[id - 1] is request id's workload and seed. */
    std::vector<Planned> planned;
    /** Every final response seen by waitFor(), warm-up included. */
    std::vector<Response> finals;

  private:
    void
    startInProcess()
    {
        serve::ServeOptions opt;
        opt.chips = kChips;
        opt.group_size = kGroup;
        opt.workers = kServerWorkers;
        opt.queue_capacity = 1024;
        opt.time_dilation = 0.0;
        opt.batch_max_streams = 1;
        opt.trace = args_.trace != 0;
        server = std::make_unique<serve::Server>(*ctx, opt);
        server->start();
    }

    void
    startLoopback()
    {
        serve::remote::FrontEndOptions opt;
        opt.workers = kGroups;
        opt.group_size = kGroup;
        opt.queue_capacity = 1024;
        opt.batch_max_streams = kBatchStreams;
        fe = std::make_unique<serve::remote::RemoteFrontEnd>(opt);
        if (!fe->start())
            throw std::runtime_error("front-end cannot bind loopback");
        supervisor =
            std::make_unique<serve::remote::ProcessSupervisor>();
        const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
        const std::size_t per_worker = std::max<std::size_t>(
            1, static_cast<std::size_t>(nproc > 0 ? nproc : 1) / kGroups);
        for (std::size_t w = 0; w < kGroups; ++w) {
            const pid_t pid = supervisor->spawn(
                {"/proc/self/exe", "--role", "worker", "--port",
                 std::to_string(fe->port()), "--worker-id",
                 std::to_string(w), "--exec-workers",
                 std::to_string(per_worker)});
            if (pid < 0)
                throw std::runtime_error("cannot spawn a worker");
            pids.push_back(pid);
        }
        if (!fe->waitForWorkers(kGroups, 60000.0))
            throw std::runtime_error("workers did not connect");
    }

    /**
     * Fill every cache the steady state relies on: each catalog
     * workload once (in-process), or bursts and singles so both
     * workers compile the solo and the batched plan (loopback).
     * Warm-up seeds are outside the tenant pool.
     */
    void
    warmUp()
    {
        uint64_t state = args_.seed ^ 0xa11ce5ull;
        auto warm = [&](Workload w) {
            return submit({w, splitmix64(state) | 1ull << 63});
        };
        if (!loopback) {
            std::set<uint64_t> ids;
            for (const Workload w : kCatalog)
                ids.insert(warm(w));
            waitFor(ids);
        } else {
            for (int round = 0; round < 3; ++round) {
                std::set<uint64_t> ids;
                for (std::size_t i = 0; i < 2 * kGroups; ++i)
                    ids.insert(warm(kLoopbackWorkload));
                waitFor(ids);
            }
            for (std::size_t i = 0; i < 2 * kGroups; ++i)
                waitFor({warm(kLoopbackWorkload)});
        }
    }

    Args args_;
    uint64_t gen_state_ = 0;
    std::size_t seen_ = 0;
    bool drained_ = false;
};

void
ServeFixtureDeleter::operator()(ServeFixture *fx) const
{
    delete fx;
}

ServePtr
makeServeFixture(const Args &args, SpanLog *spans)
{
    SpanLog::Scope s(spans, "setup.serve", "setup");
    return ServePtr(new ServeFixture(args));
}

int
runLoopbackWorker(const Args &args)
{
    fhe::CkksContext ctx(serveParams());
    serve::remote::WorkerOptions opt;
    opt.port = args.port;
    opt.worker_id = args.worker_id;
    opt.group_size = kGroup;
    opt.time_dilation = 0.0;
    opt.exec_workers = args.exec_workers;
    opt.hw.n = ctx.n();
    return serve::remote::runWorker(ctx, opt);
}

namespace {

/** What executeSeeded does, split at each layer boundary. */
struct ReplaySplit
{
    double keygen_ms = 0, encrypt_ms = 0, first_run_ms = 0,
           rerun_ms = 0, digest_ms = 0;
    uint64_t digest = 0;
};

ReplaySplit
replaySplit(const fhe::CkksContext &ctx, const fhe::Encoder &encoder,
            const compiler::Program &probe,
            const compiler::CompiledProgram &plan, uint64_t seed,
            uint64_t rid, SpanLog *spans)
{
    ReplaySplit r;
    SpanLog::Scope root(spans, "exec.replay", "exec", rid);
    auto t0 = Clock::now();
    std::unique_ptr<fhe::KeyGenerator> keygen;
    std::unique_ptr<fhe::SecretKey> sk;
    {
        SpanLog::Scope s(spans, "fhe.keygen", "fhe", rid);
        keygen = std::make_unique<fhe::KeyGenerator>(ctx, seed);
        sk = std::make_unique<fhe::SecretKey>(keygen->secretKey());
    }
    r.keygen_ms = msSince(t0);

    t0 = Clock::now();
    fhe::Evaluator eval(ctx);
    Rng data_rng(seed ^ 0x9e3779b97f4a7c15ull);
    compiler::ProgramRuntime runtime(ctx, encoder, *keygen, *sk);
    runtime.setEmulatorWorkers(0);
    std::vector<std::pair<std::string, fhe::Ciphertext>> bound;
    {
        SpanLog::Scope s(spans, "fhe.encrypt", "fhe", rid);
        for (const compiler::CtOp &op : probe.ops()) {
            if (op.kind != compiler::CtOpKind::Input)
                continue;
            std::vector<fhe::Cplx> values(ctx.slots());
            for (auto &v : values)
                v = fhe::Cplx(data_rng.uniformReal(-1.0, 1.0), 0.0);
            auto plain = encoder.encode(values, op.level);
            auto ct =
                eval.encrypt(plain, ctx.params().scale, *sk, data_rng);
            runtime.bindInput(op.name, ct);
            bound.emplace_back(op.name, std::move(ct));
        }
    }
    r.encrypt_ms = msSince(t0);

    t0 = Clock::now();
    std::map<std::string, fhe::Ciphertext> out;
    {
        SpanLog::Scope s(spans, "compiler.runtime.run", "exec", rid);
        out = runtime.run(plan);
    }
    r.first_run_ms = msSince(t0);

    t0 = Clock::now();
    {
        SpanLog::Scope s(spans, "exec.hashOutputs", "exec", rid);
        r.digest = exec::hashOutputs(out);
    }
    r.digest_ms = msSince(t0);

    // Same inputs re-bound, keys now warm: the emulation alone.
    for (const auto &[name, ct] : bound)
        runtime.bindInput(name, ct);
    t0 = Clock::now();
    {
        SpanLog::Scope s(spans, "compiler.runtime.rerun", "isa", rid);
        runtime.run(plan);
    }
    r.rerun_ms = msSince(t0);
    return r;
}

double
p50(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : median(v);
}

} // namespace

void
runServe(ServeFixture &fx, const Args &args, const Budget &budget,
         SpanLog *spans, Result &res)
{
    SpanLog::Scope phase(spans, "phase.serve", "bench");

    // ---- open loop: Poisson arrivals, latency from the due time.
    const auto schedule =
        poissonSchedule(args.seed, kRateRps, budget.open_s, kMinOpen);
    std::map<uint64_t, double> late_ms; // id → submit − due
    std::set<uint64_t> open_ids;
    {
        SpanLog::Scope s(spans, "serve.open_loop", "serve");
        const auto start = Clock::now() + std::chrono::milliseconds(5);
        for (const double at : schedule) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(at));
            std::this_thread::sleep_until(due);
            const auto now = Clock::now();
            const uint64_t id = fx.submit(fx.next());
            late_ms[id] =
                std::chrono::duration<double, std::milli>(now - due)
                    .count();
            open_ids.insert(id);
        }
    }
    const auto open = fx.waitFor(open_ids);

    std::vector<double> latency, queue_ms, service_ms, compile_free;
    uint64_t open_bad = 0;
    for (const Response &r : open) {
        if (r.status != RequestStatus::Completed) {
            ++open_bad;
            // Failed or refused: misses any latency limit.
            latency.push_back(
                std::numeric_limits<double>::infinity());
            continue;
        }
        latency.push_back(late_ms[r.id] + r.total_ms);
        queue_ms.push_back(r.queue_ms);
        service_ms.push_back(r.service_ms);
        compile_free.push_back(r.compile_ms == 0.0 ? 1.0 : 0.0);
    }
    res.ops(open.size(), open_bad);
    res.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
    res.metric("latency_p90_ms", quantile(latency, 0.9), "ms");
    res.detail["serve.open.samples"] = static_cast<double>(latency.size());
    res.detail["serve.open.rate_rps"] = kRateRps;
    res.detail["serve.open.highest_supported_percentile"] =
        highestSupportedPercentile(latency.size());
    res.check(percentileSupported(latency.size(), 90),
              "open loop: too few samples for p90");

    // ---- closed loop: kOutstandingPerGroup per group, saturation.
    // Queued requests batch here (serve_loopback), so the batcher's
    // occupancy is taken from this phase.
    std::size_t closed_done = 0, closed_submitted = 0, batch_streams = 0;
    uint64_t closed_bad = 0;
    double window_s = 0;
    {
        SpanLog::Scope s(spans, "serve.closed_loop", "serve");
        std::set<uint64_t> pending;
        const std::size_t outstanding = kOutstandingPerGroup * kGroups;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < outstanding; ++i) {
            pending.insert(fx.submit(fx.next()));
            ++closed_submitted;
        }
        bool open_window = true;
        while (!pending.empty()) {
            for (auto &r : fx.poll()) {
                if (pending.erase(r.id) == 0) {
                    fx.finals.push_back(std::move(r));
                    continue;
                }
                if (r.status != RequestStatus::Completed)
                    ++closed_bad;
                else if (open_window) {
                    ++closed_done;
                    batch_streams += r.batch_streams;
                }
                fx.finals.push_back(std::move(r));
                if (open_window) {
                    pending.insert(fx.submit(fx.next()));
                    ++closed_submitted;
                }
            }
            if (open_window && msSince(start) >= budget.closed_s * 1e3) {
                open_window = false;
                window_s = msSince(start) / 1e3;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        if (open_window)
            window_s = msSince(start) / 1e3;
    }
    res.ops(closed_submitted, closed_bad);
    res.metric("throughput_rps",
               static_cast<double>(closed_done) / window_s, "1/s");
    res.detail["serve.closed.outstanding"] =
        static_cast<double>(kOutstandingPerGroup * kGroups);
    res.detail["serve.closed.window_s"] = window_s;

    // ---- checks: conservation, then digests against fresh replays.
    fx.drain();
    const auto st = fx.stats();
    res.check(st.submitted ==
                  st.completed + st.rejected + st.expired + st.failed,
              "serve: request conservation violated");
    res.check(st.submitted == fx.planned.size(),
              "serve: submitted count disagrees with the generator");

    std::map<uint64_t, uint64_t> by_seed; // seed → digest
    std::map<uint64_t, uint64_t> rid_of;  // seed → a request id
    uint64_t digest_bad = 0;
    for (const Response &r : fx.finals) {
        if (r.status != RequestStatus::Completed)
            continue;
        const uint64_t seed = fx.planned[r.id - 1].seed;
        auto [it, fresh] = by_seed.emplace(seed, r.output_hash);
        rid_of.emplace(seed, r.id);
        if (r.output_hash == 0 || (!fresh && it->second != r.output_hash))
            ++digest_bad;
    }
    res.check(digest_bad == 0,
              "serve: a tenant's requests disagree on their digest");

    serve::WorkloadCatalog catalog(*fx.ctx);
    compiler::CompilerConfig cfg;
    cfg.chips = kGroup;
    cfg.num_streams = 1;
    cfg.phys_regs = sim::HardwareConfig{}.phys_regs;
    const auto plan = compiler::Compiler(*fx.ctx, cfg).compile(catalog.probe());

    std::vector<uint64_t> seeds;
    for (const auto &[seed, d] : by_seed)
        seeds.push_back(seed);
    uint64_t pick = args.seed ^ 0x5ca1ull;
    for (std::size_t i = seeds.size(); i > 1; --i)
        std::swap(seeds[i - 1], seeds[splitmix64(pick) % i]);
    seeds.resize(std::min(seeds.size(), kReplays));

    std::vector<double> keygen, encrypt, evalkey, emulate, digest,
        traced, untraced;
    for (const uint64_t seed : seeds) {
        const auto t0 = Clock::now();
        const auto rep = exec::EmulateBackend::executeSeeded(
            *fx.ctx, *fx.encoder, catalog.probe(), plan, seed, 0);
        untraced.push_back(msSince(t0));
        if (rep.digest != by_seed[seed]) {
            ++digest_bad;
            res.check(false, "serve: served digest of seed " +
                                 std::to_string(seed) +
                                 " differs from a fresh executeSeeded");
        }
        if (!spans->enabled())
            continue;
        const auto split = replaySplit(*fx.ctx, *fx.encoder,
                                       catalog.probe(), plan, seed,
                                       rid_of[seed], spans);
        res.check(split.digest == by_seed[seed],
                  "exec: split replay does not reproduce the served "
                  "digest");
        keygen.push_back(split.keygen_ms);
        encrypt.push_back(split.encrypt_ms);
        evalkey.push_back(split.first_run_ms - split.rerun_ms);
        emulate.push_back(split.rerun_ms);
        digest.push_back(split.digest_ms);
        traced.push_back(split.keygen_ms + split.encrypt_ms +
                         split.first_run_ms + split.digest_ms);
    }
    res.ops(seeds.size(), 0);
    res.failed += digest_bad;
    res.detail["serve.replayed_seeds"] = static_cast<double>(seeds.size());
    res.detail["serve.worker_processes"] =
        fx.loopback ? static_cast<double>(kGroups) : 0.0;
    res.detail["serve.distinct_seeds"] = static_cast<double>(by_seed.size());

    if (!spans->enabled())
        return;
    std::vector<double> late;
    for (const auto &[id, ms] : late_ms)
        late.push_back(ms);
    res.metric("serve.queue_ms.p50", p50(queue_ms), "ms");
    res.metric("serve.queue_ms.p90",
               queue_ms.empty() ? 0.0 : quantile(queue_ms, 0.9), "ms");
    res.metric("serve.service_ms.p50", p50(service_ms), "ms");
    res.metric("serve.gen_late_ms.p90", quantile(late, 0.9), "ms");
    res.metric("serve.warm_ratio",
               compile_free.empty() ? 0.0
                                    : std::accumulate(compile_free.begin(),
                                                      compile_free.end(),
                                                      0.0) /
                                          compile_free.size(),
               "ratio");
    res.metric("serve.batch.mean_streams",
               closed_done ? static_cast<double>(batch_streams) /
                                 static_cast<double>(closed_done)
                           : 0.0,
               "count");
    res.metric("exec.keygen_ms", p50(keygen), "ms");
    res.metric("exec.encrypt_ms", p50(encrypt), "ms");
    res.metric("exec.evalkey_ms", p50(evalkey), "ms");
    res.metric("exec.emulate_ms", p50(emulate), "ms");
    res.metric("exec.digest_ms", p50(digest), "ms");
    res.metric("trace.overhead_ratio", p50(traced) / p50(untraced),
               "ratio");
    probeNet(fx.loopback ? kBatchStreams : 1, spans, res);
    if (!fx.loopback) {
        std::string path = ".perfbench/serve-spans-" +
                           std::to_string(args.seed) + ".json";
        res.check(fx.server->trace().writeFile(path),
                  "serve: cannot write " + path);
    }
}

} // namespace perfbench
