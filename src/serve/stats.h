/**
 * @file
 * Serving statistics: the report a deployment would put on a
 * dashboard — throughput, queue wait, latency percentiles (wall-clock
 * and simulated on-accelerator seconds), compile/sim cache hit rate,
 * admission-control counters, and per-chip-group utilization.
 */

#ifndef CINNAMON_SERVE_STATS_H_
#define CINNAMON_SERVE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/sharded_cache.h"
#include "serve/request.h"

namespace cinnamon::serve {

/**
 * Linear-interpolated percentile of an unsorted sample, p in [0, 100].
 * Returns 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** Aggregated over one serving run. */
struct ServeStats
{
    // Request accounting. Final fates partition the admitted set:
    // completed + expired + failed + rejected == submitted (Retried
    // responses are intermediate rows, counted separately below).
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0; ///< bounced at admission (full + closed)
    std::size_t expired = 0;  ///< deadline passed in queue
    std::size_t failed = 0;

    // Admission rejections split by cause: capacity backpressure is
    // the load balancer's signal; shutdown-time rejections are
    // expected during drain and must not pollute it. Assigned by the
    // owner of the queue (fromResponses only knows the sum).
    std::size_t rejected_full = 0;   ///< queue at capacity
    std::size_t rejected_closed = 0; ///< submitted after close()

    // Resilience accounting.
    std::size_t retried = 0;  ///< faulted attempts that were requeued
    /** Retries caused by a chip loss / quarantined machine. */
    std::size_t requeued = 0;
    /** Rejections the caller may retry (backpressure, not shutdown). */
    std::size_t rejected_retryable = 0;
    /** Failed requests whose last error was a transient fault. */
    std::size_t failed_retryable = 0;

    double wall_seconds = 0.0; ///< first submit → drain complete
    double throughput_rps = 0.0; ///< completed / wall_seconds

    // Wall-clock latency (ms) over completed requests.
    double queue_ms_mean = 0.0;
    double latency_ms_p50 = 0.0;
    double latency_ms_p95 = 0.0;
    double latency_ms_p99 = 0.0;

    // Simulated on-accelerator seconds over completed requests.
    double sim_seconds_p50 = 0.0;
    double sim_seconds_p99 = 0.0;
    double sim_seconds_total = 0.0;

    CacheStats cache; ///< compile + sim cache hits/misses
    /**
     * Serving-tier plan cache (content-fingerprint + compiler-config
     * keyed CompiledPrograms). Steady state should show ~100% hits:
     * every compile after the first for a given (program, config) is
     * amortized away. Assigned by the owner of the PlanCache.
     */
    CacheStats plan_cache;
    /**
     * Plan-tuner decision cache (autotune only). One miss per
     * distinct (workload, chips, hardware) point ever tuned; every
     * later request of that kind hits. Assigned by the PlanTuner's
     * owner.
     */
    CacheStats tuner_cache;
    /**
     * Tenant key cache (secret + evaluation keys per seed). Repeat
     * tenants hit from their third request; unique seeds never do.
     * Assigned by the owner of the KeyCache.
     */
    CacheStats key_cache;
    std::size_t key_cache_bytes = 0; ///< resident at report time

    // Continuous batching (fromResponses derives these from the
    // per-response batch_streams field).
    /** Completed requests that shared a multi-stream batch (>1). */
    std::size_t batched_completed = 0;
    /** Mean members per executed batch over completed requests. */
    double batch_occupancy_mean = 0.0;
    /** Largest batch any completed request rode in. */
    std::size_t batch_occupancy_max = 0;

    /** Busy fraction of each chip group over wall_seconds. */
    std::vector<double> group_utilization;

    // Per-group placement accounting (indexed by chip group). The
    // aggregates above say *how much* was served; these say *where*
    // — the signal needed to debug placement skew and to see which
    // groups are sitting in quarantine right now.
    /** Requests completed by each group. */
    std::vector<std::size_t> group_completed;
    /** Attempts each group served that ended in a retry/requeue. */
    std::vector<std::size_t> group_retried;
    /** Whether each group is quarantined at report time. */
    std::vector<uint8_t> group_quarantined;

    /**
     * Compute the derived fields from a set of responses.
     *
     * @param group_quarantined current per-group quarantine state
     *        (scheduler snapshot); may be empty when the caller has
     *        no scheduler.
     */
    static ServeStats fromResponses(
        const std::vector<Response> &responses, std::size_t submitted,
        std::size_t rejected, double wall_seconds,
        const CacheStats &cache,
        const std::vector<double> &group_busy_seconds,
        const std::vector<uint8_t> &group_quarantined = {});

    /** Multi-line human-readable report. */
    std::string report() const;
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_STATS_H_
