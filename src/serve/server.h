/**
 * @file
 * The multi-tenant serving runtime.
 *
 * A Server owns the whole pipeline a Cinnamon deployment needs to go
 * from "request arrived" to "encrypted result + latency numbers":
 *
 *   submit() → RequestQueue (bounded, admission-controlled)
 *            → worker pool (std::thread)
 *            → ChipGroupScheduler (one exclusive chip group/request)
 *            → BenchmarkRunner (shared thread-safe compile/sim cache)
 *            → optional end-to-end probe on the ISA emulator
 *            → Response (latency split, simulated time, output hash)
 *
 * Each served request simulates its workload's kernels on its chip
 * group (hitting the shared compile/sim cache after the first request
 * of a kind) and, at small parameter sets, executes the catalog probe
 * program end-to-end — request-seeded keys, encryption, compiled ISA
 * on the functional emulator — so the serving path is continuously
 * validated, not just timed. If `time_dilation` is set, the worker
 * additionally holds its group for `sim_seconds * time_dilation`
 * wall-clock seconds, modelling the accelerator's real occupancy (the
 * host thread waits on the device); that is what makes multi-worker
 * runs overlap device time across groups, exactly as a real serving
 * tier overlaps accelerator work.
 *
 * Determinism contract: a request's output hash depends only on
 * (request seed, workload catalog, parameter set) — never on worker
 * count, scheduling order, or cache state. Concurrent and serial runs
 * of the same trace are bit-identical.
 *
 * Resilience (DESIGN.md §5c): when ServeOptions::faults enables a
 * fault schedule, attempts can suffer injected chip death, transient
 * execution errors, or link degradation. Faulted attempts are retried
 * under RetryPolicy (bounded attempts, seeded exponential backoff,
 * never past the deadline); a chip death quarantines its group and
 * the request is requeued onto healthy hardware; a health probe
 * re-admits repaired groups. Fault decisions are pure functions of
 * (fault seed, request seed, attempt), so the determinism contract
 * survives: a retried request's output hash equals the unfaulted
 * run's.
 */

#ifndef CINNAMON_SERVE_SERVER_H_
#define CINNAMON_SERVE_SERVER_H_

#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "faults/fault_plan.h"
#include "fhe/encoder.h"
#include "isa/emulator.h"
#include "isa/key_cache.h"
#include "serve/batcher.h"
#include "serve/catalog.h"
#include "serve/plan_cache.h"
#include "serve/queue.h"
#include "serve/scheduler.h"
#include "serve/stats.h"
#include "serve/tuner.h"
#include "workloads/benchmarks.h"

namespace cinnamon::serve {

/**
 * Bounded, deadline-aware retry for faulted attempts. Backoff is
 * exponential with jitter drawn from the request seed (a pure
 * function of (seed, attempt) — reproducible run to run), and a
 * retry is scheduled only if its backoff still fits inside the
 * request's deadline: the runtime never retries past the deadline.
 */
struct RetryPolicy
{
    /** Total execution attempts per request (1 = no retries). */
    std::size_t max_attempts = 3;
    double backoff_base_ms = 1.0; ///< delay before the first retry
    double backoff_mult = 2.0;    ///< growth per attempt
    double backoff_max_ms = 50.0; ///< cap on the pre-jitter delay
    /** Jitter width: the delay is scaled by [1 - j/2, 1 + j/2). */
    double backoff_jitter = 0.5;
};

/** Deployment shape of one serving replica. */
struct ServeOptions
{
    std::size_t chips = 8;       ///< simulated machine size
    std::size_t group_size = 4;  ///< chips per ciphertext stream
    std::size_t workers = 2;     ///< host worker threads
    std::size_t queue_capacity = 64;
    /** Run the end-to-end emulator probe per request (small n only). */
    bool emulate = true;
    /**
     * Ring dimension above which the probe is skipped. The flat
     * limb-plane data plane (Shoup/Harvey NTT kernels, arena-backed
     * emulator memory) made bit-exact emulation >3x faster, so the
     * default covers one ring-dimension step beyond the old 1<<12.
     */
    std::size_t emulate_max_n = 1 << 14;
    /**
     * Wall-clock seconds a chip group stays occupied per simulated
     * second (device-occupancy modelling). 0 disables the dwell.
     */
    double time_dilation = 0.0;
    /**
     * Record per-request spans (queue → acquire → simulate → probe →
     * dwell) into the server's TraceRecorder, exportable as Chrome
     * trace-event JSON via trace().
     */
    bool trace = false;
    sim::HardwareConfig hw; ///< per-chip model (hw.n set from ctx)
    /**
     * Deterministic fault schedule (chip death, transient errors,
     * link degradation). Disabled by default; see faults/fault_plan.h.
     */
    faults::FaultConfig faults;
    /** Retry policy for faulted attempts. */
    RetryPolicy retry;
    /**
     * Poll interval of the health probe that re-admits quarantined
     * groups once their repair time elapsed (runs only when faults
     * are enabled).
     */
    double health_probe_interval_ms = 10.0;
    /**
     * Continuous cross-request batching: coalesce up to this many
     * compatible queued requests (same workload shape) into one
     * multi-stream program spanning that many chip groups, one
     * member per group. 1 (the default) serves every request alone
     * on the classic path; digests are bit-identical either way.
     */
    std::size_t batch_max_streams = 1;
    /**
     * How long a short batch lingers for compatible arrivals before
     * dispatching anyway (only with batch_max_streams > 1).
     */
    double batch_linger_ms = 2.0;
    /**
     * Autotune the execution plan per workload: the PlanTuner
     * evaluates every registry strategy × stream split on this
     * machine's hardware model and the winner drives both the sim
     * timing and the probe's compile config. The decision is a pure
     * function of (workload, hardware), so distributed digests stay
     * bit-identical to in-process runs. Ignored when `strategy` is
     * set.
     */
    bool autotune = false;
    /**
     * Force one named StrategyRegistry strategy for every request
     * ("" = the default compile config). Unknown names throw at
     * request time with the registry's list.
     */
    std::string strategy;
    /**
     * Size of the shared execution TaskPool (chip advance + limb
     * slicing in the emulator probe). 0 keeps the pool's current size
     * (CINNAMON_WORKERS or hardware concurrency); a non-zero value
     * resizes the process-wide pool once in start(). Never affects
     * results — digests are bit-identical at any size.
     */
    std::size_t exec_workers = 0;
};

class Server
{
  public:
    Server(const fhe::CkksContext &ctx, ServeOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Spawn the worker pool and open the queue. */
    void start();

    /**
     * Admit a request.
     *
     * @return false when the request was not admitted. The recorded
     *         Response distinguishes why: a queue-full bounce is
     *         backpressure and marked `retryable` — the caller should
     *         retry once the queue drains — while a submit after
     *         shutdown began is permanent (`retryable` false).
     */
    bool submit(Workload workload, uint64_t seed,
                std::chrono::milliseconds deadline =
                    std::chrono::milliseconds(0));

    /**
     * Stop admitting, drain every queued request, and join the pool.
     * After this returns, responses() and stats() are final.
     */
    void drainAndStop();

    /** Responses recorded so far (complete after drainAndStop). */
    std::vector<Response> responses() const;

    /** Aggregate statistics for the run so far. */
    ServeStats stats() const;

    const WorkloadCatalog &catalog() const { return *catalog_; }
    const ChipGroupScheduler &scheduler() const { return *scheduler_; }
    workloads::BenchmarkRunner &runner() { return *runner_; }
    const PlanCache &planCache() const { return *plans_; }
    const PlanTuner &tuner() const { return *tuner_; }

    /** Per-request span recorder (populated when options.trace). */
    const TraceRecorder &trace() const { return trace_; }

  private:
    /**
     * The execution plan a workload runs under: the forced strategy,
     * the autotuned winner, or the default config. `strategy` feeds
     * the probe's CompilerConfig (distinct plan-cache keys per
     * strategy); `ks`/`sim_group` feed the sim-timing run.
     */
    struct PlanChoice
    {
        std::string strategy;       ///< "" = default compile config
        compiler::KsPassOptions ks; ///< keyswitch options of the plan
        std::size_t sim_group = 0;  ///< chips per stream, sim timing
    };
    PlanChoice planFor(Workload workload);

    void workerLoop(std::size_t worker);
    Response process(const Request &request, std::size_t worker);

    /**
     * Batched worker loop (batch_max_streams > 1): forms compatible
     * batches through the BatchFormer, leases one chip group per
     * member, and executes them as one multi-stream program.
     */
    void batchedWorkerLoop(std::size_t worker);
    void processBatch(std::vector<Request> batch, std::size_t worker);

    /**
     * Health-probe loop: periodically re-admits quarantined groups
     * whose repair time elapsed. Runs only when faults are enabled.
     */
    void healthProbeLoop();

    /**
     * The end-to-end emulator probe; returns the output hash. Any
     * wall-clock ms spent compiling the probe is added to *compile_ms.
     * `fault` (may be null) is injected into this attempt; the probe's
     * phase spans go on `worker`'s track.
     */
    uint64_t runProbe(const Request &request, std::size_t worker,
                      double *compile_ms,
                      const faults::FaultDecision *fault,
                      const std::string &strategy);

    const fhe::CkksContext *ctx_;
    ServeOptions options_;
    std::unique_ptr<WorkloadCatalog> catalog_;
    std::unique_ptr<workloads::BenchmarkRunner> runner_;
    std::unique_ptr<PlanCache> plans_;
    std::unique_ptr<PlanTuner> tuner_;
    std::unique_ptr<RequestQueue> queue_;
    std::unique_ptr<BatchFormer> batcher_;
    std::unique_ptr<ChipGroupScheduler> scheduler_;
    std::unique_ptr<fhe::Encoder> encoder_;
    /**
     * Recycles emulator arenas across probe requests (all workers
     * share it; acquire/release are thread-safe).
     */
    std::unique_ptr<isa::EmulatorCache> emu_cache_;
    /** Tenants' keys across requests (thread-safe). */
    std::unique_ptr<isa::KeyCache> key_cache_;
    /** Non-null iff options_.faults.enabled(); shared, stateless. */
    std::unique_ptr<faults::FaultPlan> fault_plan_;

    std::vector<std::thread> workers_;
    TraceRecorder trace_;

    /** Health-probe lifecycle (thread runs start → drainAndStop). */
    std::thread health_probe_;
    std::mutex probe_mutex_;
    std::condition_variable probe_cv_;
    bool probe_stop_ = false;

    /**
     * Guards the run lifecycle fields below: stats() reads them from
     * arbitrary threads while start()/drainAndStop() write them.
     */
    mutable std::mutex state_mutex_;
    bool started_ = false;
    Clock::time_point start_time_{};
    double wall_seconds_ = 0.0; ///< fixed at drainAndStop

    mutable std::mutex responses_mutex_;
    std::vector<Response> responses_;
    std::size_t submitted_ = 0;
    uint64_t next_id_ = 1;
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_SERVER_H_
