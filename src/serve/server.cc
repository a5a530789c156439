#include "serve/server.h"

#include "exec/backend.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "compiler/runtime.h"
#include "compiler/strategy.h"
#include "fhe/evaluator.h"

namespace cinnamon::serve {

namespace {

/** pid of the server's track in the request trace. */
constexpr uint32_t kServerPid = 0;

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

} // namespace

Server::Server(const fhe::CkksContext &ctx, ServeOptions options)
    : ctx_(&ctx), options_(options)
{
    options_.hw.n = ctx.n();
    CINN_FATAL_UNLESS(options_.workers >= 1,
                      "the worker pool needs at least one thread");
    catalog_ = std::make_unique<WorkloadCatalog>(ctx);
    runner_ = std::make_unique<workloads::BenchmarkRunner>(ctx);
    plans_ = std::make_unique<PlanCache>(ctx);
    tuner_ = std::make_unique<PlanTuner>(*runner_);
    queue_ = std::make_unique<RequestQueue>(options_.queue_capacity);
    scheduler_ = std::make_unique<ChipGroupScheduler>(
        options_.chips, options_.group_size);
    // A batch cannot span more chip groups than the machine has.
    options_.batch_max_streams =
        std::max<std::size_t>(1, std::min(options_.batch_max_streams,
                                          scheduler_->numGroups()));
    batcher_ = std::make_unique<BatchFormer>(*queue_,
                                             options_.batch_linger_ms);
    encoder_ = std::make_unique<fhe::Encoder>(ctx);
    emu_cache_ = std::make_unique<isa::EmulatorCache>(ctx);
    key_cache_ = isa::KeyCache::forTier();
    if (options_.faults.enabled())
        fault_plan_ =
            std::make_unique<faults::FaultPlan>(options_.faults);
    if (options_.trace) {
        trace_.setProcessName(kServerPid, "cinnamon-serve");
        for (std::size_t w = 0; w < options_.workers; ++w)
            trace_.setThreadName(kServerPid, static_cast<uint32_t>(w),
                                 "worker " + std::to_string(w));
        if (fault_plan_)
            trace_.setThreadName(
                kServerPid, static_cast<uint32_t>(options_.workers),
                "health-probe");
    }
}

Server::~Server()
{
    bool started;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        started = started_;
    }
    if (started)
        drainAndStop();
}

void
Server::start()
{
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        CINN_ASSERT(!started_, "server already started");
        started_ = true;
        start_time_ = Clock::now();
    }
    // The serving tier owns the deployment shape, so it sizes the
    // shared execution pool once, before any request is in flight.
    // 0 leaves the pool at its CINNAMON_WORKERS / hardware default.
    if (options_.exec_workers != 0)
        TaskPool::global().resize(options_.exec_workers);
    workers_.reserve(options_.workers);
    const bool batched = options_.batch_max_streams > 1;
    for (std::size_t w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this, w, batched] {
            batched ? batchedWorkerLoop(w) : workerLoop(w);
        });
    if (fault_plan_) {
        {
            std::lock_guard<std::mutex> lock(probe_mutex_);
            probe_stop_ = false;
        }
        health_probe_ = std::thread([this] { healthProbeLoop(); });
    }
}

bool
Server::submit(Workload workload, uint64_t seed,
               std::chrono::milliseconds deadline)
{
    Request r;
    r.workload = workload;
    r.seed = seed;
    r.deadline = deadline;
    r.born = Clock::now();
    {
        std::lock_guard<std::mutex> lock(responses_mutex_);
        r.id = next_id_++;
        ++submitted_;
    }
    auto &metrics = MetricsRegistry::global();
    metrics.counter("serve.requests.submitted").add();
    const uint64_t id = r.id;
    const bool admitted = queue_->submit(std::move(r));
    if (!admitted) {
        metrics.counter("serve.requests.rejected").add();
        // Tell the caller whether this rejection is worth retrying:
        // a queue-full bounce clears as the queue drains; a submit
        // after shutdown began never will.
        Response resp;
        resp.id = id;
        resp.workload = workload;
        resp.status = RequestStatus::Rejected;
        resp.retryable = !queue_->closed();
        resp.error = resp.retryable
                         ? "queue full (backpressure): retry later"
                         : "server draining: submit elsewhere";
        if (resp.retryable)
            metrics.counter("serve.requests.rejected_retryable")
                .add();
        std::lock_guard<std::mutex> lock(responses_mutex_);
        responses_.push_back(std::move(resp));
    }
    return admitted;
}

void
Server::drainAndStop()
{
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        CINN_ASSERT(started_, "server not started");
    }
    queue_->close();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    // The consumers are gone: seal the queue so any straggling
    // requeue attempt (e.g. from a caller holding a stale handle)
    // fails loudly instead of stranding a request nobody will drain.
    queue_->seal();
    // Stop the health probe only after the workers are gone: a drain
    // stuck on an all-quarantined machine needs the probe to re-admit
    // repaired groups for the final retries to complete.
    if (health_probe_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(probe_mutex_);
            probe_stop_ = true;
        }
        probe_cv_.notify_all();
        health_probe_.join();
    }
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        wall_seconds_ =
            std::chrono::duration<double>(Clock::now() - start_time_)
                .count();
        started_ = false;
    }
}

void
Server::workerLoop(std::size_t worker)
{
    while (auto request = queue_->pop()) {
        Response resp = process(*request, worker);
        std::lock_guard<std::mutex> lock(responses_mutex_);
        responses_.push_back(std::move(resp));
    }
}

void
Server::batchedWorkerLoop(std::size_t worker)
{
    while (true) {
        auto batch = batcher_->next(options_.batch_max_streams);
        if (batch.empty())
            return; // closed and drained
        processBatch(std::move(batch), worker);
    }
}

void
Server::processBatch(std::vector<Request> batch, std::size_t worker)
{
    auto &metrics = MetricsRegistry::global();
    TraceRecorder *trace = options_.trace ? &trace_ : nullptr;
    const auto tid = static_cast<uint32_t>(worker);

    auto push = [&](Response resp) {
        std::lock_guard<std::mutex> lock(responses_mutex_);
        responses_.push_back(std::move(resp));
    };

    // Per-member state: the request, its response under construction,
    // and its fault decision (pure in (fault seed, request seed,
    // attempt) — identical to what the unbatched path would draw, so
    // batching never changes a request's fate schedule).
    struct Member
    {
        Request req;
        Response resp;
        faults::FaultDecision fault;
    };
    std::vector<Member> members;
    members.reserve(batch.size());
    for (auto &req : batch) {
        Member m;
        m.resp.id = req.id;
        m.resp.workload = req.workload;
        m.resp.attempt = req.attempt;
        m.resp.queue_ms = msSince(req.admitted);
        m.fault = fault_plan_ != nullptr
                      ? fault_plan_->decide(req.seed, req.attempt)
                      : faults::FaultDecision{};
        m.req = std::move(req);
        members.push_back(std::move(m));
    }

    const auto deadline_ms = [](const Request &r) {
        return static_cast<double>(r.deadline.count());
    };
    const auto over_deadline = [&](const Request &r) {
        return r.deadline.count() > 0 &&
               msSince(r.born) > deadline_ms(r);
    };
    auto expire = [&](Member &m, bool after_lease) {
        m.resp.status = RequestStatus::Expired;
        m.resp.total_ms = m.resp.queue_ms + m.resp.service_ms;
        metrics.counter("serve.requests.expired").add();
        if (after_lease)
            metrics.counter("serve.requests.expired_after_lease")
                .add();
        push(std::move(m.resp));
    };
    auto fail = [&](Member &m) {
        m.resp.status = RequestStatus::Failed;
        m.resp.total_ms = m.resp.queue_ms + m.resp.service_ms;
        metrics.counter("serve.requests.failed").add();
        push(std::move(m.resp));
    };

    // Shed members whose latency budget was spent in the queue —
    // same rule as the single-request path.
    {
        std::vector<Member> live;
        live.reserve(members.size());
        for (auto &m : members) {
            if (over_deadline(m.req))
                expire(m, /*after_lease=*/false);
            else
                live.push_back(std::move(m));
        }
        members = std::move(live);
    }
    if (members.empty())
        return;

    const auto service_start = Clock::now();

    // Retry-or-finalize for members whose attempt aborted; mirrors
    // the single-request catch block member by member (per-member
    // backoff and deadline math), but sleeps once for the whole set
    // — the members shared one attempt, they share one backoff.
    auto settle_aborted = [&](std::vector<Member> aborted,
                              const std::string &error, bool retryable,
                              bool requeued_flag,
                              double delay_floor_ms) {
        double max_delay_ms = 0.0;
        std::vector<Member> retries;
        for (auto &m : aborted) {
            m.resp.service_ms = msSince(service_start);
            m.resp.retryable = retryable;
            m.resp.error = error;
            if (!retryable) {
                fail(m);
                continue;
            }
            const bool attempts_left =
                m.req.attempt + 1 < options_.retry.max_attempts;
            double delay_ms = faults::backoffMs(
                m.req.seed, m.req.attempt,
                options_.retry.backoff_base_ms,
                options_.retry.backoff_mult,
                options_.retry.backoff_max_ms,
                options_.retry.backoff_jitter);
            delay_ms = std::max(delay_ms, delay_floor_ms);
            const bool deadline_allows =
                m.req.deadline.count() == 0 ||
                msSince(m.req.born) + delay_ms <= deadline_ms(m.req);
            if (attempts_left && deadline_allows) {
                max_delay_ms = std::max(max_delay_ms, delay_ms);
                retries.push_back(std::move(m));
            } else if (!deadline_allows) {
                // The fault burned the rest of the budget: shed, not
                // lost.
                expire(m, /*after_lease=*/false);
            } else {
                fail(m);
            }
        }
        if (retries.empty())
            return;
        {
            ScopedSpan s(trace, "backoff", "serve", kServerPid, tid);
            s.arg("members", static_cast<double>(retries.size()));
            s.arg("delay_ms", max_delay_ms);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    max_delay_ms));
        }
        for (auto &m : retries) {
            Request next = m.req;
            ++next.attempt;
            if (!queue_->requeue(std::move(next))) {
                m.resp.error += " (retry refused: queue sealed)";
                metrics.counter("serve.requeue_refused").add();
                fail(m);
                continue;
            }
            m.resp.status = RequestStatus::Retried;
            m.resp.requeued = requeued_flag;
            metrics.counter("serve.retries").add();
            if (requeued_flag)
                metrics.counter("serve.requeued").add();
            push(std::move(m.resp));
        }
    };

    try {
        BatchLease lease;
        {
            ScopedSpan s(trace, "acquire", "serve", kServerPid, tid);
            s.arg("members", static_cast<double>(members.size()));
            lease = scheduler_->acquireUpTo(members.size());
        }

        // Surplus members beyond the lease go back to the queue —
        // not a retry, so the attempt counter is untouched and no
        // response row is emitted; they will be served by a later
        // batch.
        while (members.size() > lease.size()) {
            Member m = std::move(members.back());
            members.pop_back();
            if (!queue_->requeue(std::move(m.req))) {
                m.resp.service_ms = msSince(service_start);
                m.resp.error = "batch overflow: queue sealed";
                metrics.counter("serve.requeue_refused").add();
                fail(m);
            }
        }

        // Re-check deadlines after the (possibly long) wait for
        // hardware, then return any groups the shed members held.
        {
            std::vector<Member> live;
            live.reserve(members.size());
            for (auto &m : members) {
                if (over_deadline(m.req)) {
                    m.resp.service_ms = msSince(service_start);
                    expire(m, /*after_lease=*/true);
                } else {
                    live.push_back(std::move(m));
                }
            }
            members = std::move(live);
            if (members.empty())
                return; // lease destructor releases everything
            lease.shrinkTo(members.size());
        }

        const std::size_t k = members.size();
        for (std::size_t i = 0; i < k; ++i) {
            members[i].resp.group = lease.group(i);
            members[i].resp.batch_streams = k;
        }

        // Quarantine every chip-fault victim's group *before*
        // executing, exactly like the single-request path: the
        // injected EmulatorError unwinds through the lease destructor
        // and release() must already know those groups are poisoned.
        // The emulator can only arm one victim chip per run; the
        // first chip-fault member supplies it (the whole batch aborts
        // either way).
        std::size_t fault_member = k; // k = no chip fault in batch
        faults::FaultDecision batch_fault{};
        for (std::size_t i = 0; i < k; ++i) {
            const auto &f = members[i].fault;
            if (f.chip_fails) {
                const auto [lo, hi] =
                    scheduler_->chipsOf(lease.group(i));
                const std::size_t victim =
                    lo + f.chip_offset % options_.group_size;
                (void)hi;
                metrics.counter("faults.injected.chip").add();
                metrics.counter("serve.quarantines").add();
                scheduler_->markChipFailed(victim);
                if (trace != nullptr) {
                    TraceEvent e;
                    e.name = "quarantine";
                    e.category = "faults";
                    e.pid = kServerPid;
                    e.tid = tid;
                    e.ts_us = trace->nowUs();
                    e.num_args.emplace_back(
                        "chip", static_cast<double>(victim));
                    e.num_args.emplace_back(
                        "group",
                        static_cast<double>(lease.group(i)));
                    e.num_args.emplace_back(
                        "rid",
                        static_cast<double>(members[i].req.id));
                    trace->complete(std::move(e));
                }
                if (fault_member == k) {
                    fault_member = i;
                    batch_fault = f;
                }
            }
            if (f.transient)
                metrics.counter("faults.injected.transient").add();
            if (f.link_dilation > 1.0)
                metrics.counter("faults.injected.link").add();
        }

        // Per-member sim timing on its own group (shared cache: the
        // first member of a kind compiles, the rest hit). A member
        // with a degraded link times under the dilated config.
        // One plan for the whole batch: batch compatibility requires
        // a shared workload, so every member gets the same choice.
        const PlanChoice choice = planFor(members[0].req.workload);
        {
            ScopedSpan s(trace, "simulate", "serve", kServerPid, tid);
            s.arg("members", static_cast<double>(k));
            for (auto &m : members) {
                sim::HardwareConfig hw = options_.hw;
                if (m.fault.link_dilation > 1.0)
                    hw.link_dilation = m.fault.link_dilation;
                const auto &bench =
                    catalog_->benchmark(m.req.workload);
                const auto timing =
                    runner_->run(bench, options_.group_size, hw,
                                 choice.sim_group, choice.ks);
                m.resp.sim_seconds = timing.seconds;
                m.resp.compile_ms = timing.compile_ms;
            }
        }

        // One multi-stream program for the whole batch: member i's
        // stream lands on the chips of lease.group(i). Digests are
        // bit-identical to each member's unbatched run (per-member
        // seeded keys; the compiled layout keeps every stream's chip
        // digits identical to the single-stream plan).
        if (options_.emulate && ctx_->n() <= options_.emulate_max_n) {
            ScopedSpan s(trace, "probe", "serve", kServerPid, tid);
            s.arg("members", static_cast<double>(k));
            double probe_compile_ms = 0.0;
            compiler::CompilerConfig cfg;
            cfg.chips = k * options_.group_size;
            cfg.num_streams = static_cast<int>(k);
            cfg.phys_regs = options_.hw.phys_regs;
            cfg.strategy = choice.strategy;
            const auto &plan = plans_->get(catalog_->batchedProbe(k),
                                           cfg, &probe_compile_ms);
            std::vector<uint64_t> seeds;
            seeds.reserve(k);
            for (const auto &m : members)
                seeds.push_back(m.req.seed);
            // workers=0: take the shared pool's full parallelism —
            // idle capacity slices limb planes, results unchanged.
            exec::PhaseSpans spans;
            spans.trace = trace;
            spans.pid = kServerPid;
            spans.tid = tid;
            spans.args.emplace_back("members", static_cast<double>(k));
            auto reports = exec::EmulateBackend::executeSeededBatch(
                *ctx_, *encoder_, catalog_->probe(), plan, seeds, 0,
                fault_member < k ? &batch_fault : nullptr,
                fault_member, emu_cache_.get(), key_cache_.get(),
                &spans);
            for (std::size_t i = 0; i < k; ++i) {
                members[i].resp.output_hash = reports[i].digest;
                members[i].resp.compile_ms += probe_compile_ms;
            }
        } else if (fault_member < k) {
            const std::size_t victim =
                lease.group(fault_member) * options_.group_size +
                batch_fault.chip_offset % options_.group_size;
            throw faults::ChipFailedError(
                victim, "injected chip failure: chip " +
                            std::to_string(victim) +
                            " lost mid-run (sim abort)");
        }

        // Model device occupancy once for the whole batch: every
        // leased group runs concurrently, so the host thread dwells
        // for the slowest member only.
        if (options_.time_dilation > 0.0) {
            ScopedSpan s(trace, "dwell", "serve", kServerPid, tid);
            double max_sim = 0.0;
            for (const auto &m : members)
                max_sim = std::max(max_sim, m.resp.sim_seconds);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                max_sim * options_.time_dilation));
        }

        // Transient faults are per-member: the batch ran, but a
        // transient member's result is spuriously lost and the member
        // retries alone. Split them out before completing the rest.
        std::vector<Member> transients, completed;
        for (auto &m : members) {
            if (m.fault.transient) {
                m.resp.output_hash = 0; // the result was lost
                transients.push_back(std::move(m));
            } else {
                completed.push_back(std::move(m));
            }
        }
        members = std::move(completed);

        for (auto &m : members) {
            m.resp.status = RequestStatus::Completed;
            m.resp.service_ms = msSince(service_start);
            m.resp.total_ms = m.resp.queue_ms + m.resp.service_ms;
            metrics.counter("serve.requests.completed").add();
            metrics.histogram("serve.queue_ms")
                .observe(m.resp.queue_ms);
            metrics.histogram("serve.service_ms")
                .observe(m.resp.service_ms);
            metrics.histogram("serve.total_ms")
                .observe(m.resp.total_ms);
            metrics.histogram("serve.compile_ms")
                .observe(m.resp.compile_ms);
            push(std::move(m.resp));
        }

        if (!transients.empty()) {
            lease.release(); // don't hold hardware through backoff
            settle_aborted(std::move(transients),
                           "injected transient execution fault",
                           /*retryable=*/true, /*requeued_flag=*/false,
                           /*delay_floor_ms=*/0.0);
        }
    } catch (const std::exception &e) {
        // The whole attempt aborted — injected chip death unwinding
        // out of the emulator, or a fully-quarantined machine. Every
        // member shares the abort; each retries (or finalizes) under
        // its own backoff/deadline math.
        const bool no_healthy =
            dynamic_cast<const NoHealthyGroupsError *>(&e) != nullptr;
        bool any_fault = false;
        bool any_chip = false;
        for (const auto &m : members) {
            any_fault = any_fault || m.fault.any();
            any_chip = any_chip || m.fault.chip_fails;
        }
        const bool retryable = no_healthy || any_fault;
        // A full outage clears no sooner than the repair time; wait
        // at least one repair + probe window before retrying.
        const double delay_floor_ms =
            no_healthy ? options_.faults.chip_repair_ms +
                             options_.health_probe_interval_ms
                       : 0.0;
        settle_aborted(std::move(members), e.what(), retryable,
                       /*requeued_flag=*/any_chip || no_healthy,
                       delay_floor_ms);
    }
}

void
Server::healthProbeLoop()
{
    auto &metrics = MetricsRegistry::global();
    const auto interval = std::chrono::duration<double, std::milli>(
        options_.health_probe_interval_ms);
    std::unique_lock<std::mutex> lock(probe_mutex_);
    while (!probe_stop_) {
        probe_cv_.wait_for(lock, interval,
                           [&] { return probe_stop_; });
        if (probe_stop_)
            return;
        lock.unlock();
        const auto readmitted = scheduler_->readmitRecovered(
            options_.faults.chip_repair_ms);
        for (const std::size_t group : readmitted) {
            metrics.counter("serve.readmissions").add();
            if (options_.trace) {
                TraceEvent e;
                e.name = "readmit";
                e.category = "faults";
                e.pid = kServerPid;
                e.tid = static_cast<uint32_t>(options_.workers);
                e.ts_us = trace_.nowUs();
                e.num_args.emplace_back(
                    "group", static_cast<double>(group));
                trace_.complete(std::move(e));
            }
        }
        lock.lock();
    }
}

Response
Server::process(const Request &request, std::size_t worker)
{
    TraceRecorder *trace = options_.trace ? &trace_ : nullptr;
    const auto tid = static_cast<uint32_t>(worker);
    auto span = [&](const char *name) {
        ScopedSpan s(trace, name, "serve", kServerPid, tid);
        s.arg("rid", static_cast<double>(request.id));
        s.arg("workload", workloadName(request.workload));
        return s;
    };

    auto &metrics = MetricsRegistry::global();
    Response resp;
    resp.id = request.id;
    resp.workload = request.workload;
    resp.attempt = request.attempt;
    resp.queue_ms = msSince(request.admitted);
    if (trace != nullptr) {
        TraceEvent e;
        e.name = "queue";
        e.category = "serve";
        e.pid = kServerPid;
        e.tid = tid;
        e.ts_us = trace->toUs(request.admitted);
        e.dur_us = resp.queue_ms * 1e3;
        e.num_args.emplace_back("rid",
                                static_cast<double>(request.id));
        e.str_args.emplace_back("workload",
                                workloadName(request.workload));
        trace->complete(std::move(e));
    }

    auto expire = [&] {
        resp.status = RequestStatus::Expired;
        resp.total_ms = resp.queue_ms + resp.service_ms;
        metrics.counter("serve.requests.expired").add();
    };

    // The deadline budget is measured from first admission (`born`),
    // so a retried attempt inherits whatever its earlier attempts
    // already spent — retries never reset the clock.
    const auto budget_ms = [&] { return msSince(request.born); };
    const auto deadline_ms =
        static_cast<double>(request.deadline.count());

    // A request whose latency budget was spent in the queue is shed
    // here: running it would only push the requests behind it past
    // their own deadlines.
    if (request.deadline.count() > 0 && budget_ms() > deadline_ms) {
        expire();
        return resp;
    }

    // The faults this attempt suffers — a pure function of
    // (fault seed, request seed, attempt), fixed before execution so
    // the catch block below can classify what it sees.
    const faults::FaultDecision fault =
        fault_plan_ != nullptr
            ? fault_plan_->decide(request.seed, request.attempt)
            : faults::FaultDecision{};

    const auto service_start = Clock::now();
    try {
        GroupLease lease;
        {
            auto s = span("acquire");
            lease = scheduler_->acquire();
        }
        resp.group = lease.group();

        // Re-check after the (possibly long) wait for a chip group: a
        // request whose deadline lapsed while other tenants held the
        // machine must be shed, not run — otherwise it occupies the
        // group for work nobody can use and delays everyone behind it.
        if (request.deadline.count() > 0 &&
            budget_ms() > deadline_ms) {
            resp.service_ms = msSince(service_start);
            expire();
            metrics.counter("serve.requests.expired_after_lease")
                .add();
            return resp;
        }

        // Quarantine the victim's group *before* executing: the
        // injected EmulatorError unwinds through the lease destructor,
        // and release() must already know the group is poisoned so it
        // parks it instead of freeing it.
        std::size_t victim = 0;
        if (fault.chip_fails) {
            const auto [lo, hi] = scheduler_->chipsOf(lease.group());
            victim = lo + fault.chip_offset % options_.group_size;
            (void)hi;
            metrics.counter("faults.injected.chip").add();
            metrics.counter("serve.quarantines").add();
            scheduler_->markChipFailed(victim);
            if (trace != nullptr) {
                TraceEvent e;
                e.name = "quarantine";
                e.category = "faults";
                e.pid = kServerPid;
                e.tid = tid;
                e.ts_us = trace->nowUs();
                e.num_args.emplace_back(
                    "chip", static_cast<double>(victim));
                e.num_args.emplace_back(
                    "group", static_cast<double>(lease.group()));
                e.num_args.emplace_back(
                    "rid", static_cast<double>(request.id));
                trace->complete(std::move(e));
            }
        }
        if (fault.transient)
            metrics.counter("faults.injected.transient").add();
        if (fault.link_dilation > 1.0)
            metrics.counter("faults.injected.link").add();

        // Time the workload's kernels on this group (shared cache:
        // the first request of a kind compiles, the rest hit). A
        // degraded link stretches every collective in the timing
        // model; the dilated config has its own cache key.
        const PlanChoice choice = planFor(request.workload);
        {
            auto s = span("simulate");
            sim::HardwareConfig hw = options_.hw;
            if (fault.link_dilation > 1.0) {
                hw.link_dilation = fault.link_dilation;
                s.arg("link_dilation", fault.link_dilation);
            }
            const auto &bench = catalog_->benchmark(request.workload);
            const auto timing =
                runner_->run(bench, options_.group_size, hw,
                             choice.sim_group, choice.ks);
            resp.sim_seconds = timing.seconds;
            resp.compile_ms = timing.compile_ms;
        }

        // End-to-end functional execution at small parameter sets;
        // chip and transient faults are injected into the emulated
        // attempt. When the probe is skipped (large n) the same
        // faults surface directly as a sim-side abort.
        if (options_.emulate && ctx_->n() <= options_.emulate_max_n) {
            auto s = span("probe");
            resp.output_hash =
                runProbe(request, worker, &resp.compile_ms,
                         fault.any() ? &fault : nullptr,
                         choice.strategy);
        } else if (fault.chip_fails) {
            throw faults::ChipFailedError(
                victim, "injected chip failure: chip " +
                            std::to_string(victim) +
                            " lost mid-run (sim abort)");
        } else if (fault.transient) {
            throw faults::TransientFaultError(
                "injected transient execution fault");
        }

        // Model the accelerator group's real occupancy: the host
        // thread waits on the device for the simulated duration
        // (scaled), keeping the group leased the whole time.
        if (options_.time_dilation > 0.0) {
            auto s = span("dwell");
            const auto dwell = std::chrono::duration<double>(
                resp.sim_seconds * options_.time_dilation);
            std::this_thread::sleep_for(dwell);
        }
        resp.status = RequestStatus::Completed;
    } catch (const std::exception &e) {
        resp.service_ms = msSince(service_start);
        // Injected faults and a fully-quarantined machine are
        // transient infrastructure conditions: the attempt is
        // retryable. Anything else is a permanent program error.
        const bool no_healthy =
            dynamic_cast<const NoHealthyGroupsError *>(&e) != nullptr;
        const bool retryable = fault.any() || no_healthy;
        resp.retryable = retryable;
        resp.error = e.what();

        const bool attempts_left =
            request.attempt + 1 < options_.retry.max_attempts;
        double delay_ms = faults::backoffMs(
            request.seed, request.attempt,
            options_.retry.backoff_base_ms, options_.retry.backoff_mult,
            options_.retry.backoff_max_ms,
            options_.retry.backoff_jitter);
        // A full outage clears no sooner than the repair time, so
        // retrying faster would only burn the attempt budget; wait
        // at least one repair + probe window.
        if (no_healthy)
            delay_ms = std::max(
                delay_ms, options_.faults.chip_repair_ms +
                              options_.health_probe_interval_ms);
        // Deadline-aware: a retry is scheduled only if its backoff
        // still fits inside the budget. Never retry past the deadline.
        const bool deadline_allows =
            request.deadline.count() == 0 ||
            budget_ms() + delay_ms <= deadline_ms;

        if (retryable && attempts_left && deadline_allows) {
            resp.status = RequestStatus::Retried;
            resp.total_ms = resp.queue_ms + resp.service_ms;
            metrics.counter("serve.retries").add();
            resp.requeued = fault.chip_fails || no_healthy;
            if (resp.requeued)
                metrics.counter("serve.requeued").add();
            {
                auto s = span("backoff");
                s.arg("attempt",
                      static_cast<double>(request.attempt));
                s.arg("delay_ms", delay_ms);
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        delay_ms));
            }
            Request next = request;
            ++next.attempt;
            if (!queue_->requeue(std::move(next))) {
                // The queue was sealed while we backed off: nothing
                // will ever drain the retry, so accepting it would
                // strand the request. Finalize as Failed instead —
                // request conservation over a silent loss.
                resp.status = RequestStatus::Failed;
                resp.error += " (retry refused: queue sealed)";
                metrics.counter("serve.requests.failed").add();
                metrics.counter("serve.requeue_refused").add();
            }
            return resp;
        }
        if (retryable && !deadline_allows) {
            // The fault burned the rest of the budget: the request
            // expires rather than fails — it was shed, not lost.
            expire();
            return resp;
        }
        resp.status = RequestStatus::Failed;
        metrics.counter("serve.requests.failed").add();
        resp.total_ms = resp.queue_ms + resp.service_ms;
        return resp;
    }
    resp.service_ms = msSince(service_start);
    resp.total_ms = resp.queue_ms + resp.service_ms;
    if (resp.status == RequestStatus::Completed) {
        metrics.counter("serve.requests.completed").add();
        metrics.histogram("serve.queue_ms").observe(resp.queue_ms);
        metrics.histogram("serve.service_ms").observe(resp.service_ms);
        metrics.histogram("serve.total_ms").observe(resp.total_ms);
        metrics.histogram("serve.compile_ms").observe(resp.compile_ms);
    }
    return resp;
}

Server::PlanChoice
Server::planFor(Workload workload)
{
    PlanChoice choice;
    choice.sim_group = options_.group_size;
    if (!options_.strategy.empty()) {
        const auto &strat =
            compiler::StrategyRegistry::global().at(options_.strategy);
        choice.strategy = strat.name;
        choice.ks = strat.ks;
    } else if (options_.autotune) {
        // Decide on the *undilated* hardware model: the decision must
        // be a pure function of (workload, machine) so an injected
        // link degradation can never change what gets compiled — and
        // thereby a retried request's digest.
        const auto &bench = catalog_->benchmark(workload);
        const TunedPlan &plan =
            tuner_->plan(bench, options_.group_size, options_.hw);
        const auto &strat =
            compiler::StrategyRegistry::global().at(plan.strategy);
        choice.strategy = strat.name;
        choice.ks = strat.ks;
        choice.sim_group = plan.group;
    }
    return choice;
}

uint64_t
Server::runProbe(const Request &request, std::size_t worker,
                 double *compile_ms, const faults::FaultDecision *fault,
                 const std::string &strategy)
{
    double probe_compile_ms = 0.0;
    compiler::CompilerConfig cfg;
    cfg.chips = options_.group_size;
    cfg.num_streams = 1;
    cfg.phys_regs = options_.hw.phys_regs;
    cfg.strategy = strategy;
    const auto &compiled =
        plans_->get(catalog_->probe(), cfg, &probe_compile_ms);
    *compile_ms += probe_compile_ms;

    // All randomness is derived from the request seed, so the output
    // hash is a pure function of (seed, catalog, parameters) — never
    // of worker count, scheduling order or key-cache state. An
    // all-clear fault decision executes identically to none.
    exec::PhaseSpans spans;
    spans.trace = options_.trace ? &trace_ : nullptr;
    spans.pid = kServerPid;
    spans.tid = static_cast<uint32_t>(worker);
    spans.args.emplace_back("rid", static_cast<double>(request.id));
    auto report = exec::EmulateBackend::executeSeeded(
        *ctx_, *encoder_, catalog_->probe(), compiled, request.seed,
        0, fault, emu_cache_.get(), key_cache_.get(), &spans);
    return report.digest;
}

std::vector<Response>
Server::responses() const
{
    std::lock_guard<std::mutex> lock(responses_mutex_);
    return responses_;
}

ServeStats
Server::stats() const
{
    std::vector<Response> resp;
    std::size_t submitted;
    {
        std::lock_guard<std::mutex> lock(responses_mutex_);
        resp = responses_;
        submitted = submitted_;
    }
    double wall;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        wall = started_
                   ? std::chrono::duration<double>(Clock::now() -
                                                   start_time_)
                         .count()
                   : wall_seconds_;
    }
    auto s = ServeStats::fromResponses(resp, submitted,
                                       queue_->rejected(), wall,
                                       runner_->cacheStats(),
                                       scheduler_->busySeconds(),
                                       scheduler_->quarantinedMask());
    s.plan_cache = plans_->stats();
    s.tuner_cache = tuner_->stats();
    const auto keys = key_cache_->stats();
    s.key_cache.hits = keys.hits;
    s.key_cache.misses = keys.misses;
    s.key_cache_bytes = keys.bytes;
    s.rejected_full = queue_->rejectedFull();
    s.rejected_closed = queue_->rejectedClosed();
    return s;
}

} // namespace cinnamon::serve
