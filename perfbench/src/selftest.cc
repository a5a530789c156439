/**
 * @file
 * Self-tests of the benchmark's helpers: the percentile rule,
 * schedule determinism, self-time arithmetic, strict argument
 * parsing and non-finite JSON rejection. perfbench/run.py runs this
 * before every benchmark run; any failure aborts the run.
 *
 *   perfbench_selftest      (exit 0 = all passed)
 */

#include <cmath>
#include <cstdio>
#include <limits>

#include "harness.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentileRule()
{
    // p90 needs n·0.1 ≥ 10, i.e. n ≥ 100.
    expect(!percentileSupported(99, 90), "p90 unsupported at n=99");
    expect(percentileSupported(100, 90), "p90 supported at n=100");
    expect(percentileSupported(20, 50), "p50 supported at n=20");
    expect(!percentileSupported(19, 50), "p50 unsupported at n=19");
    expect(percentileSupported(1000, 99), "p99 supported at n=1000");
    expect(!percentileSupported(999, 99), "p99 unsupported at n=999");
    expect(highestSupportedPercentile(19) == 0.0, "none below 20");
    expect(highestSupportedPercentile(40) == 75.0, "p75 at n=40");
    expect(highestSupportedPercentile(110) == 90.0, "p90 at n=110");
    expect(highestSupportedPercentile(250) == 95.0, "p95 at n=250");
    expect(highestSupportedPercentile(10000) == 99.9, "p99.9 at 10k");

    expect(near(quantile({3, 1, 2}, 0.5), 2.0), "median of 3");
    expect(near(quantile({1, 2, 3, 4}, 0.5), 2.5), "median of 4");
    expect(near(quantile({0, 10}, 0.9), 9.0), "interpolated p90");
    expect(near(quantile({7}, 0.9), 7.0), "single sample");
}

void
testSchedule()
{
    const auto a = poissonSchedule(42, 8.0, 10.0, 110);
    const auto b = poissonSchedule(42, 8.0, 10.0, 110);
    const auto c = poissonSchedule(43, 8.0, 10.0, 110);
    expect(a == b, "same seed gives the same schedule");
    expect(a != c, "another seed gives another schedule");
    expect(a.size() >= 110, "minimum count honoured");
    bool sorted = true;
    for (std::size_t i = 1; i < a.size(); ++i)
        sorted &= a[i] > a[i - 1];
    expect(sorted && a.front() > 0.0, "arrivals strictly increase");
    // Over a long schedule the empirical rate approaches the target.
    const auto l = poissonSchedule(7, 8.0, 2000.0, 0);
    const double rate = static_cast<double>(l.size()) / l.back();
    expect(std::fabs(rate - 8.0) < 0.4, "empirical rate near 8/s");
}

void
testSelfTime()
{
    // root [0,100] with children [10,30] and [20,50] (overlapping)
    // and [60,70]; grandchild [12,18] under the first child.
    std::vector<Span> s(5);
    s[0] = {0, -1, "root", "a", 0, 0, 0, 100e3};
    s[1] = {1, 0, "c1", "b", 0, 0, 10e3, 30e3};
    s[2] = {2, 0, "c2", "b", 0, 0, 20e3, 50e3};
    s[3] = {3, 0, "c3", "c", 0, 0, 60e3, 70e3};
    s[4] = {4, 1, "g", "c", 0, 0, 12e3, 18e3};
    const auto self = selfTimeByLayer(s);
    // root: 100 − |[10,50] ∪ [60,70]| = 100 − 50 = 50 ms.
    expect(near(self.at("a"), 50.0), "root self time");
    // b: c1 (20 − 6) + c2 (30) = 44 ms.
    expect(near(self.at("b"), 44.0), "child self time");
    // c: c3 10 + g 6 = 16 ms.
    expect(near(self.at("c"), 16.0), "leaf self time");
    double total = 0;
    for (const auto &[layer, ms] : self)
        total += ms;
    // Self times tile the root when children stay inside it —
    // except the overlap of c1 and c2, which both count.
    expect(near(total, 110.0), "self times add up");

    SpanLog log(true);
    {
        SpanLog::Scope outer(&log, "outer", "x", 7);
        SpanLog::Scope inner(&log, "inner", "y", 7);
    }
    const auto spans = log.spans();
    expect(spans.size() == 2, "two spans recorded");
    expect(spans[0].name == "inner" && spans[0].parent == spans[1].id,
           "nested scope records its parent");
    SpanLog off(false);
    {
        SpanLog::Scope s1(&off, "nothing", "x");
    }
    expect(off.spans().empty(), "a disabled log records nothing");
}

void
testJson()
{
    JsonWriter ok;
    ok.beginObject().key("a").number(1.5).key("b").integer(3);
    ok.key("s").string("q\"x").endObject();
    expect(ok.ok() && ok.str() == "{\"a\": 1.5, \"b\": 3, \"s\": "
                                  "\"q\\\"x\"}",
           "valid document");
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::nan("")}) {
        JsonWriter j;
        j.beginObject().key("v").number(bad).endObject();
        expect(!j.ok(), "non-finite number refused");
        expect(j.str().find("inf") == std::string::npos &&
                   j.str().find("nan") == std::string::npos,
               "no inf/nan token written");
    }
}

void
testArgs()
{
    const std::vector<std::string> w = {"a", "b"};
    Args a;
    const char *good[] = {"x", "--workload", "a", "--seed", "3",
                          "--seconds", "2.5", "--trace", "1"};
    expect(parseArgs(9, good, w, &a).empty() && a.seed == 3 &&
               a.seconds == 2.5 && a.trace == 1,
           "valid command line");
    auto bad = [&](std::vector<const char *> v, const char *what) {
        Args x;
        expect(!parseArgs(static_cast<int>(v.size()), v.data(), w, &x)
                    .empty(),
               what);
    };
    bad({"x", "--help"}, "--help is an unknown flag");
    bad({"x", "--workload", "a", "--seed", "3", "--seconds", "1",
         "--trace"},
        "missing value");
    bad({"x", "--workload", "c", "--seed", "3", "--seconds", "1",
         "--trace", "0"},
        "unknown workload");
    bad({"x", "--workload", "a", "--seed", "3x", "--seconds", "1",
         "--trace", "0"},
        "non-numeric seed");
    bad({"x", "--workload", "a", "--seed", "-1", "--seconds", "1",
         "--trace", "0"},
        "negative seed");
    bad({"x", "--workload", "a", "--seed", "1", "--seconds", "0",
         "--trace", "0"},
        "zero seconds");
    bad({"x", "--workload", "a", "--seed", "1", "--seconds", "inf",
         "--trace", "0"},
        "infinite seconds");
    bad({"x", "--workload", "a", "--seed", "1", "--seconds", "1",
         "--trace", "2"},
        "trace level 2");
    bad({"x", "--workload", "a", "--seed", "1", "--seconds", "1"},
        "missing --trace");
    bad({"x", "--role", "worker", "--port", "0", "--exec-workers",
         "1"},
        "worker port 0");
    bad({"x", "--role", "worker", "--port", "5", "--exec-workers",
         "0"},
        "worker pool of 0");
}

} // namespace

int
main()
{
    testPercentileRule();
    testSchedule();
    testSelfTime();
    testJson();
    testArgs();
    if (failures != 0) {
        std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::fprintf(stderr, "selftest: all passed\n");
    return 0;
}
