/**
 * @file
 * The repository benchmark binary.
 *
 *   perfbench --workload <serve_tenants|serve_loopback> --seed <n>
 *             --seconds <s> --trace <0|1>
 *
 * One run sets up the three phases (bench.h) kSetups times and keeps
 * the last set-up, then measures serve and paper, with a block of
 * emulation before, between and after them. --seconds splits across
 * the serving and emulation phases; the paper phase always
 * regenerates exactly one cold Table 2 grid.
 *
 * Output: a fingerprint line, a detail line, and as the last line
 *   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
 * holding the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1). The traced run also writes its spans as
 * Chrome trace JSON under .perfbench/. Exit codes: 0 all checks
 * passed, 1 a check or the run failed, 2 bad arguments.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include "bench.h"
#include "common/task_pool.h"
#include "layers.h"
#include "rns/kernels.h"

using namespace perfbench;

namespace {

const std::vector<std::string> kWorkloads = {"serve_tenants",
                                             "serve_loopback"};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

/** The gated metrics of an untraced run (BENCHMARK.json end_to_end). */
const std::set<std::string> kEndToEnd = {
    "setup_s",        "throughput_rps", "latency_p50_ms",
    "latency_p90_ms", "suite_s",        "run_ms_1chip",
    "run_ms_8chip",   "peak_rss_mb",
};

/** Layers whose self time the traced run reports. */
const std::vector<std::string> kLayers = {
    "bench", "setup", "serve", "exec", "fhe",      "isa",
    "rns",   "net",   "sim",   "compiler", "workloads",
};

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : fallback;
}

std::string
fingerprintLine()
{
    JsonWriter j;
    j.beginObject().key("fingerprint").beginObject();
    j.key("nproc").integer(
        static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    j.key("pool_parallelism")
        .integer(cinnamon::TaskPool::global().parallelism());
    j.key("rns_backend").string(cinnamon::rns::kernelBackendName());
    j.key("build_type").string(PERFBENCH_BUILD_TYPE);
    j.key("git_commit").string(envOr("PERFBENCH_GIT_COMMIT", "unknown"));
    j.key("source_digest")
        .string(envOr("PERFBENCH_SOURCE_DIGEST", "unknown"));
    j.key("serve").string("n=2^12 levels=16 chips=8 (2x4)");
    j.key("emulate").string("n=2^15 levels=12 chips=1,8");
    j.key("paper").string("n=2^16 levels=52 Cinnamon-M/4/8/12");
    j.endObject().endObject();
    return j.str();
}

/**
 * Wall ms of a fixed single-threaded integer workload (median of 3).
 * Printed on the detail line at the start and end of a run as a
 * reference for host-speed drift between runs; no metric uses it.
 */
double
hostCalibrationMs()
{
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
        uint64_t state = 1, acc = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < 10'000'000; ++i)
            acc += splitmix64(state) >> 60;
        ms.push_back(msSince(t0));
        volatile uint64_t sink = acc;
        (void)sink;
    }
    return median(ms);
}

double
peakRssMb(double worker_processes)
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // Linux reports KiB; a child's figure is the largest child, so
    // the worker processes count at that peak each.
    return (static_cast<double>(self.ru_maxrss) +
            worker_processes * static_cast<double>(children.ru_maxrss)) /
           1024.0;
}

int
run(const Args &args)
{
    SpanLog spans(args.trace != 0);
    if (spans.enabled())
        mkdir(".perfbench", 0755);
    Result res;
    res.detail["host.calib_start_ms"] = hostCalibrationMs();
    Budget budget;
    budget.open_s = 0.5 * args.seconds;
    budget.closed_s = 0.15 * args.seconds;
    budget.emulate_s = 0.075 * args.seconds;

    ServePtr serve;
    EmulatePtr emulate;
    PaperPtr paper;
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
        serve.reset();
        emulate.reset();
        paper.reset();
        const auto t0 = Clock::now();
        serve = makeServeFixture(args, &spans);
        emulate = makeEmulateFixture(args, &spans);
        paper = makePaperFixture(&spans);
        setup_s.push_back(msSince(t0) / 1e3);
    }
    res.metric("setup_s", median(setup_s), "s");

    measureEmulate(*emulate, budget.emulate_s / 3, &spans);
    runServe(*serve, args, budget, &spans, res);
    serve.reset();
    measureEmulate(*emulate, budget.emulate_s / 3, &spans);
    runPaper(*paper, args, &spans, res);
    paper.reset();
    measureEmulate(*emulate, budget.emulate_s / 3, &spans);
    finishEmulate(*emulate, &spans, res);
    emulate.reset();

    res.metric("peak_rss_mb",
               peakRssMb(res.detail["serve.worker_processes"]), "MB");
    res.detail["setup.repeats"] = kSetups;
    res.detail["host.calib_end_ms"] = hostCalibrationMs();

    if (spans.enabled()) {
        poolMetrics(res);
        const auto all = spans.spans();
        const auto self = selfTimeByLayer(all);
        for (const auto &layer : kLayers) {
            auto it = self.find(layer);
            res.metric("self_ms." + layer,
                       it == self.end() ? 0.0 : it->second, "ms");
        }
        res.metric("trace.spans", static_cast<double>(all.size()),
                   "count");
        const std::string path = ".perfbench/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) +
                                 ".json";
        std::ofstream out(path);
        out << spans.chromeJson();
        res.check(static_cast<bool>(out), "cannot write " + path);
    }

    for (const auto &name : kEndToEnd)
        res.check(res.metrics.count(name) != 0,
                  "metric " + name + " was not measured");

    std::printf("%s\n", fingerprintLine().c_str());
    JsonWriter detail;
    detail.beginObject().key("detail").beginObject();
    for (const auto &[k, v] : res.detail)
        detail.key(k).number(v);
    detail.endObject().key("failures").beginObject();
    for (std::size_t i = 0; i < res.failures.size(); ++i)
        detail.key(std::to_string(i)).string(res.failures[i]);
    detail.endObject().endObject();
    std::printf("%s\n", detail.str().c_str());
    for (const auto &f : res.failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());

    const bool correct = res.failures.empty() && res.failed == 0;
    JsonWriter j;
    j.beginObject();
    j.key("correct").boolean(correct);
    j.key("attempted").integer(res.attempted);
    // Every failed check counts as at least one failed operation.
    j.key("failed").integer(
        std::max<uint64_t>(res.failed, res.failures.size()));
    j.key("metrics").beginObject();
    for (const auto &[name, m] : res.metrics) {
        if ((kEndToEnd.count(name) != 0) == spans.enabled())
            continue;
        j.key(name).beginObject();
        j.key("value").number(m.value);
        j.key("unit").string(m.unit);
        j.endObject();
    }
    j.endObject().endObject();
    if (!j.ok() || !detail.ok()) {
        std::fprintf(stderr, "refusing to print invalid JSON: %s\n",
                     (j.ok() ? detail : j).error().c_str());
        return 1;
    }
    std::printf("%s\n", j.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    const std::string err = parseArgs(argc, argv, kWorkloads, &args);
    if (!err.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }
    try {
        if (args.worker)
            return runLoopbackWorker(args);
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }
}
