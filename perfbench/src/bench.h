/**
 * @file
 * Shared types of the benchmark binary: the run's result ledger and
 * the three measured phases every run executes.
 *
 * A run sets up all three phases, then measures them in turn:
 *
 *   serve    the workload's own serving path (in-process Server for
 *            serve_tenants, RemoteFrontEnd + worker processes for
 *            serve_loopback) under an open-loop Poisson phase and a
 *            closed-loop saturation phase;
 *   emulate  bit-exact execution of the compiled keyswitch kernel at
 *            n=2^15 on 1 and on 8 chips;
 *   paper    the Table 2 grid regenerated from a fresh
 *            BenchmarkRunner at paper parameters.
 *
 * Every run therefore reports every end-to-end metric; the two
 * workloads differ in the serving path and in whether tenants repeat.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/** Metrics, checks and counts of one run. */
struct Result
{
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;
    /** Extra numbers printed on the detail line (not gated). */
    std::map<std::string, double> detail;
    std::vector<std::string> failures;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    metric(const std::string &name, double value,
           const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Record an output check; a failed one fails the run. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }

    /** Count operations: `n` attempted of which `bad` failed. */
    void
    ops(uint64_t n, uint64_t bad)
    {
        attempted += n;
        failed += bad;
    }
};

/** Time shares of one run, derived from --seconds. */
struct Budget
{
    double open_s = 0.0;   ///< open-loop serving phase
    double closed_s = 0.0; ///< closed-loop saturation phase
    double emulate_s = 0.0;
};

// ------------------------------------------------------------- serve

class ServeFixture;
struct ServeFixtureDeleter
{
    void operator()(ServeFixture *fx) const;
};
using ServePtr = std::unique_ptr<ServeFixture, ServeFixtureDeleter>;

/** Set up the serving phase (context, server/front-end, warm-up). */
ServePtr makeServeFixture(const Args &args, SpanLog *spans);

/** Drive the open- and closed-loop phases and check the outputs. */
void runServe(ServeFixture &fx, const Args &args, const Budget &budget,
              SpanLog *spans, Result &res);

/** Worker-process entry of serve_loopback. */
int runLoopbackWorker(const Args &args);

// ----------------------------------------------------------- emulate

class EmulateFixture;
struct EmulateFixtureDeleter
{
    void operator()(EmulateFixture *fx) const;
};
using EmulatePtr =
    std::unique_ptr<EmulateFixture, EmulateFixtureDeleter>;

EmulatePtr makeEmulateFixture(const Args &args, SpanLog *spans);
/** One block of timed executions, alternating the two shapes. */
void measureEmulate(EmulateFixture &fx, double seconds, SpanLog *spans);
/** Metrics over every block so far, then the output checks. */
void finishEmulate(EmulateFixture &fx, SpanLog *spans, Result &res);

// ------------------------------------------------------------- paper

class PaperFixture;
struct PaperFixtureDeleter
{
    void operator()(PaperFixture *fx) const;
};
using PaperPtr = std::unique_ptr<PaperFixture, PaperFixtureDeleter>;

PaperPtr makePaperFixture(SpanLog *spans);
void runPaper(PaperFixture &fx, const Args &args, SpanLog *spans,
              Result &res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
