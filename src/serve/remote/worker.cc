#include "serve/remote/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/task_pool.h"
#include "compiler/strategy.h"
#include "exec/backend.h"
#include "fhe/encoder.h"
#include "net/message.h"
#include "net/socket.h"
#include "serve/catalog.h"
#include "serve/plan_cache.h"
#include "serve/request.h"
#include "serve/tuner.h"
#include "workloads/benchmarks.h"

namespace cinnamon::serve::remote {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

/**
 * Everything one worker needs to execute requests; shares the
 * single-process server's building blocks so results are
 * bit-identical to in-process serving.
 */
struct WorkerState
{
    const fhe::CkksContext *ctx;
    WorkerOptions opt;
    WorkloadCatalog catalog;
    workloads::BenchmarkRunner runner;
    PlanCache plans; ///< serving-tier compiled-plan cache
    PlanTuner tuner; ///< autotuned plan decisions (pure function)
    fhe::Encoder encoder;
    isa::EmulatorCache emu_cache; ///< recycled probe arenas
    /** Tenants' keys across requests. */
    std::unique_ptr<isa::KeyCache> key_cache;
    std::unique_ptr<faults::FaultPlan> fault_plan;

    net::Socket sock;
    /** Serializes frame writes: heartbeat thread vs request loop. */
    std::mutex send_mutex;
    std::atomic<uint64_t> inflight{0};
    uint64_t completed = 0;

    WorkerState(const fhe::CkksContext &c, const WorkerOptions &o)
        : ctx(&c), opt(o), catalog(c), runner(c), plans(c),
          tuner(runner), encoder(c), emu_cache(c),
          key_cache(isa::KeyCache::forTier())
    {
        opt.hw.n = c.n();
        if (opt.faults.enabled())
            fault_plan =
                std::make_unique<faults::FaultPlan>(opt.faults);
    }

    bool
    sendFrame(net::MsgType type, const std::vector<uint8_t> &payload)
    {
        const auto bytes = net::encodeFrame(type, payload);
        std::lock_guard<std::mutex> lock(send_mutex);
        return sock.sendAll(bytes.data(), bytes.size());
    }
};

/**
 * The execution plan a workload runs under — byte-for-byte the
 * in-process Server::planFor: forced strategy, autotuned winner, or
 * the default config. Decided on the undilated hardware model so
 * injected link degradation can never change what gets compiled.
 */
struct PlanChoice
{
    std::string strategy;       ///< "" = default compile config
    compiler::KsPassOptions ks; ///< keyswitch options of the plan
    std::size_t sim_group = 0;  ///< chips per stream, sim timing
};

PlanChoice
planChoiceFor(WorkerState &state, Workload workload)
{
    PlanChoice choice;
    choice.sim_group = state.opt.group_size;
    if (!state.opt.strategy.empty()) {
        const auto &strat = compiler::StrategyRegistry::global().at(
            state.opt.strategy);
        choice.strategy = strat.name;
        choice.ks = strat.ks;
    } else if (state.opt.autotune) {
        const auto &bench = state.catalog.benchmark(workload);
        const TunedPlan &plan = state.tuner.plan(
            bench, state.opt.group_size, state.opt.hw);
        const auto &strat =
            compiler::StrategyRegistry::global().at(plan.strategy);
        choice.strategy = strat.name;
        choice.ks = strat.ks;
        choice.sim_group = plan.group;
    }
    return choice;
}

/**
 * Execute one request exactly the way Server::process does, minus
 * scheduling (this process IS the chip group). Returns the Result to
 * ship back; sets *drop_conn when a conn-drop fault fired and the
 * worker must sever the connection instead of replying.
 */
net::ResultMsg
executeSubmit(WorkerState &state, const net::SubmitMsg &submit,
              bool *drop_conn)
{
    const auto start = Clock::now();
    net::ResultMsg result;
    result.request_id = submit.request_id;
    result.attempt = submit.attempt;

    const faults::FaultDecision fault =
        state.fault_plan != nullptr
            ? state.fault_plan->decide(
                  submit.seed,
                  static_cast<std::size_t>(submit.attempt))
            : faults::FaultDecision{};
    // An injected connection drop severs the link mid-request: the
    // front-end sees EOF with this request in flight, quarantines the
    // group, and requeues — the same observable as a real crash.
    if (fault.conn_drops) {
        *drop_conn = true;
        MetricsRegistry::global()
            .counter("faults.injected.conn")
            .add();
        return result;
    }

    const auto workload = static_cast<Workload>(submit.workload);
    try {
        const PlanChoice choice = planChoiceFor(state, workload);
        {
            sim::HardwareConfig hw = state.opt.hw;
            if (fault.link_dilation > 1.0) {
                hw.link_dilation = fault.link_dilation;
                MetricsRegistry::global()
                    .counter("faults.injected.link")
                    .add();
            }
            const auto &bench = state.catalog.benchmark(workload);
            const auto timing = state.runner.run(
                bench, state.opt.group_size, hw, choice.sim_group,
                choice.ks);
            result.sim_seconds = timing.seconds;
            result.compile_ms = timing.compile_ms;
        }

        if (fault.chip_fails)
            MetricsRegistry::global()
                .counter("faults.injected.chip")
                .add();
        if (fault.transient)
            MetricsRegistry::global()
                .counter("faults.injected.transient")
                .add();

        if (state.opt.emulate &&
            state.ctx->n() <= state.opt.emulate_max_n) {
            double probe_compile_ms = 0.0;
            compiler::CompilerConfig cfg;
            cfg.chips = state.opt.group_size;
            cfg.num_streams = 1;
            cfg.phys_regs = state.opt.hw.phys_regs;
            cfg.strategy = choice.strategy;
            const auto &compiled = state.plans.get(
                state.catalog.probe(), cfg, &probe_compile_ms);
            result.compile_ms += probe_compile_ms;
            const auto report = exec::EmulateBackend::executeSeeded(
                *state.ctx, state.encoder, state.catalog.probe(),
                compiled, submit.seed, 0,
                fault.any() ? &fault : nullptr, &state.emu_cache,
                state.key_cache.get());
            result.digest = report.digest;
        } else if (fault.chip_fails) {
            throw faults::ChipFailedError(
                fault.chip_offset % state.opt.group_size,
                "injected chip failure (sim abort)");
        } else if (fault.transient) {
            throw faults::TransientFaultError(
                "injected transient execution fault");
        }

        if (state.opt.time_dilation > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                result.sim_seconds * state.opt.time_dilation));

        result.status =
            static_cast<uint16_t>(net::WireStatus::Completed);
    } catch (const std::exception &e) {
        result.status = static_cast<uint16_t>(net::WireStatus::Failed);
        result.error = e.what();
        result.retryable = fault.any() ? 1 : 0;
        result.chip_failed = fault.chip_fails ? 1 : 0;
        result.digest = 0;
    }
    result.service_ms = msSince(start);
    return result;
}

/**
 * Execute a wire-v2 batched Submit: the worker's group hosts every
 * member's stream of one replicateStreams() program (the physical
 * machine behind one worker emulates the multi-group layout), so one
 * execution serves the whole batch and each member's digest is
 * bit-identical to a solo run. Returns one Result per member, lead
 * request first. Sets *drop_conn when any member drew a conn-drop
 * fault (the whole batch is lost with the connection, exactly like a
 * real crash).
 */
std::vector<net::ResultMsg>
executeSubmitBatch(WorkerState &state, const net::SubmitMsg &submit,
                   bool *drop_conn)
{
    const auto start = Clock::now();

    struct Mem
    {
        uint64_t request_id;
        uint64_t seed;
        uint64_t attempt;
    };
    std::vector<Mem> mems;
    mems.push_back({submit.request_id, submit.seed, submit.attempt});
    for (const auto &e : submit.extras)
        mems.push_back({e.request_id, e.seed, e.attempt});
    const std::size_t k = mems.size();

    std::vector<net::ResultMsg> results(k);
    std::vector<faults::FaultDecision> faults_of(k);
    auto &metrics = MetricsRegistry::global();
    for (std::size_t i = 0; i < k; ++i) {
        results[i].request_id = mems[i].request_id;
        results[i].attempt = mems[i].attempt;
        faults_of[i] =
            state.fault_plan != nullptr
                ? state.fault_plan->decide(
                      mems[i].seed,
                      static_cast<std::size_t>(mems[i].attempt))
                : faults::FaultDecision{};
        if (faults_of[i].conn_drops) {
            *drop_conn = true;
            metrics.counter("faults.injected.conn").add();
            return results;
        }
    }

    const auto workload = static_cast<Workload>(submit.workload);
    std::size_t fault_member = k; // k = no chip fault in the batch
    try {
        // One plan for the whole batch (members share a workload).
        const PlanChoice choice = planChoiceFor(state, workload);
        // Per-member sim timing (first member compiles, rest hit the
        // shared cache; the members run concurrently on the batched
        // program, so each reports its own stream's seconds).
        for (std::size_t i = 0; i < k; ++i) {
            sim::HardwareConfig hw = state.opt.hw;
            if (faults_of[i].link_dilation > 1.0) {
                hw.link_dilation = faults_of[i].link_dilation;
                metrics.counter("faults.injected.link").add();
            }
            const auto &bench = state.catalog.benchmark(workload);
            const auto timing =
                state.runner.run(bench, state.opt.group_size, hw,
                                 choice.sim_group, choice.ks);
            results[i].sim_seconds = timing.seconds;
            results[i].compile_ms = timing.compile_ms;
        }

        for (std::size_t i = 0; i < k; ++i) {
            if (faults_of[i].chip_fails) {
                metrics.counter("faults.injected.chip").add();
                if (fault_member == k)
                    fault_member = i;
            }
            if (faults_of[i].transient)
                metrics.counter("faults.injected.transient").add();
        }

        if (state.opt.emulate &&
            state.ctx->n() <= state.opt.emulate_max_n) {
            double probe_compile_ms = 0.0;
            compiler::CompilerConfig cfg;
            cfg.chips = k * state.opt.group_size;
            cfg.num_streams = static_cast<int>(k);
            cfg.phys_regs = state.opt.hw.phys_regs;
            cfg.strategy = choice.strategy;
            const auto &plan = state.plans.get(
                state.catalog.batchedProbe(k), cfg, &probe_compile_ms);
            std::vector<uint64_t> seeds;
            seeds.reserve(k);
            for (const auto &m : mems)
                seeds.push_back(m.seed);
            const auto reports =
                exec::EmulateBackend::executeSeededBatch(
                    *state.ctx, state.encoder, state.catalog.probe(),
                    plan, seeds, 0,
                    fault_member < k ? &faults_of[fault_member]
                                     : nullptr,
                    fault_member, &state.emu_cache,
                    state.key_cache.get());
            for (std::size_t i = 0; i < k; ++i) {
                results[i].digest = reports[i].digest;
                results[i].compile_ms += probe_compile_ms;
            }
        } else if (fault_member < k) {
            throw faults::ChipFailedError(
                faults_of[fault_member].chip_offset %
                    state.opt.group_size,
                "injected chip failure (sim abort)");
        }

        if (state.opt.time_dilation > 0.0) {
            double max_sim = 0.0;
            for (const auto &r : results)
                max_sim = std::max(max_sim, r.sim_seconds);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                max_sim * state.opt.time_dilation));
        }

        for (std::size_t i = 0; i < k; ++i) {
            if (faults_of[i].transient) {
                // Per-member loss: the batch ran, this member's
                // result is spuriously gone. It retries alone.
                results[i].status =
                    static_cast<uint16_t>(net::WireStatus::Failed);
                results[i].error =
                    "injected transient execution fault";
                results[i].retryable = 1;
                results[i].digest = 0;
            } else {
                results[i].status = static_cast<uint16_t>(
                    net::WireStatus::Completed);
            }
        }
    } catch (const std::exception &e) {
        // Whole-batch abort (chip death mid-program): every member's
        // attempt is lost together. chip_failed routes the group
        // quarantine on the front-end (idempotent per group).
        for (std::size_t i = 0; i < k; ++i) {
            results[i].status =
                static_cast<uint16_t>(net::WireStatus::Failed);
            results[i].error = e.what();
            results[i].retryable =
                (fault_member < k || faults_of[i].any()) ? 1 : 0;
            results[i].chip_failed = fault_member < k ? 1 : 0;
            results[i].digest = 0;
        }
    }
    const double service_ms = msSince(start);
    for (auto &r : results)
        r.service_ms = service_ms;
    return results;
}

} // namespace

int
runWorker(const fhe::CkksContext &ctx, const WorkerOptions &options)
{
    // Size this process's shared execution pool before any request
    // is in flight (0 keeps the CINNAMON_WORKERS/hardware default).
    if (options.exec_workers != 0)
        TaskPool::global().resize(options.exec_workers);
    WorkerState state(ctx, options);

    state.sock = net::Socket::connectLoopback(
        options.port, options.connect_timeout_ms);
    if (!state.sock.valid()) {
        std::fprintf(stderr,
                     "worker %llu: cannot reach front-end on port %u\n",
                     static_cast<unsigned long long>(options.worker_id),
                     options.port);
        return 1;
    }

    net::HelloMsg hello;
    hello.worker_id = options.worker_id;
    hello.chips = options.group_size;
    hello.group_size = options.group_size;
    hello.pid = static_cast<uint64_t>(::getpid());
    if (!state.sendFrame(net::MsgType::Hello, hello.encode()))
        return 1;

    // Frame reader over the blocking socket.
    net::FrameDecoder decoder;
    auto readFrame = [&](net::Frame *frame) -> bool {
        for (;;) {
            const auto status = decoder.next(frame);
            if (status == net::DecodeStatus::Ok)
                return true;
            if (status != net::DecodeStatus::NeedMore)
                return false; // poisoned stream: hang up
            uint8_t buf[64 * 1024];
            const ssize_t n =
                state.sock.recvSome(buf, sizeof(buf));
            if (n <= 0)
                return false;
            decoder.feed(buf, static_cast<std::size_t>(n));
        }
    };

    net::Frame frame;
    if (!readFrame(&frame) || frame.type != net::MsgType::HelloAck)
        return 1;
    net::HelloAckMsg ack;
    if (!ack.decode(frame.payload) || ack.accepted == 0) {
        std::fprintf(stderr, "worker %llu: rejected by front-end: %s\n",
                     static_cast<unsigned long long>(options.worker_id),
                     ack.reason.c_str());
        return 1;
    }

    // Liveness beacon, decoupled from request execution: beats even
    // while a long request runs, so slow ≠ dead.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread heartbeat([&] {
        uint64_t seq = 0;
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_stop) {
            hb_cv.wait_for(
                lock,
                std::chrono::duration<double, std::milli>(
                    options.heartbeat_interval_ms),
                [&] { return hb_stop; });
            if (hb_stop)
                return;
            lock.unlock();
            net::HeartbeatMsg beat;
            beat.worker_id = options.worker_id;
            beat.seq = seq++;
            beat.inflight = state.inflight.load();
            state.sendFrame(net::MsgType::Heartbeat, beat.encode());
            lock.lock();
        }
    });
    auto stopHeartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    int exit_code = 0;
    for (;;) {
        if (!readFrame(&frame)) {
            exit_code = 1; // front-end gone
            break;
        }
        if (frame.type == net::MsgType::Submit) {
            net::SubmitMsg submit;
            if (!submit.decode(frame.payload)) {
                exit_code = 1;
                break;
            }
            state.inflight.store(1 + submit.extras.size());
            bool drop_conn = false;
            // Solo dispatches keep the classic path; a batched one
            // runs every member as one multi-stream program and
            // answers with one Result per member.
            std::vector<net::ResultMsg> results;
            if (submit.extras.empty())
                results.push_back(
                    executeSubmit(state, submit, &drop_conn));
            else
                results =
                    executeSubmitBatch(state, submit, &drop_conn);
            state.inflight.store(0);
            if (drop_conn) {
                // Injected crash: sever without replying.
                stopHeartbeat();
                state.sock.close();
                return kConnDropExit;
            }
            bool send_failed = false;
            for (const auto &result : results) {
                if (result.status ==
                    static_cast<uint16_t>(net::WireStatus::Completed))
                    ++state.completed;
                if (!state.sendFrame(net::MsgType::Result,
                                     result.encode())) {
                    send_failed = true;
                    break;
                }
            }
            if (send_failed) {
                exit_code = 1;
                break;
            }
        } else if (frame.type == net::MsgType::Drain) {
            net::DrainAckMsg drained;
            drained.worker_id = options.worker_id;
            drained.completed = state.completed;
            state.sendFrame(net::MsgType::DrainAck, drained.encode());
            break;
        }
        // Unknown types are ignored: forward compatibility within a
        // wire version.
    }

    stopHeartbeat();
    return exit_code;
}

} // namespace cinnamon::serve::remote
