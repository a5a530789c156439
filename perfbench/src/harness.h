/**
 * @file
 * Program-independent helpers of the repository benchmark: strict
 * argument parsing, the percentile rule, the open-loop arrival
 * schedule, a JSON writer that refuses non-finite numbers, and an
 * in-memory span log with per-layer self time and Chrome trace
 * export. perfbench_selftest checks each of them.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `t0`. */
double msSince(Clock::time_point t0);

// ---------------------------------------------------------------- args

/** Command line of one benchmark run (or of a spawned worker). */
struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = 0;

    /** Hidden worker role used by serve_loopback's own re-exec. */
    bool worker = false;
    uint16_t port = 0;
    uint64_t worker_id = 0;
    std::size_t exec_workers = 0;
};

/**
 * Parse argv strictly. Every flag takes exactly one value; unknown
 * flags, missing or non-numeric values, a zero or negative duration
 * and a trace level other than 0/1 are errors.
 *
 * @return "" on success, otherwise the reason (exit code 2).
 */
std::string parseArgs(int argc, const char *const *argv,
                      const std::vector<std::string> &workloads,
                      Args *out);

/** Strict unsigned decimal; false on sign, junk, or overflow. */
bool parseUint(const std::string &s, uint64_t *out);

/** Strict finite decimal/float; false on junk or inf/nan. */
bool parseDouble(const std::string &s, double *out);

// ---------------------------------------------------------- statistics

/**
 * The q-quantile (0 ≤ q ≤ 1) by linear interpolation between order
 * statistics (the "inclusive" rule of Python's statistics module).
 * Requires a non-empty sample.
 */
double quantile(std::vector<double> values, double q);

/** quantile(values, 0.5). */
double median(std::vector<double> values);

/**
 * Whether percentile `p` (e.g. 90) of `n` samples has at least
 * `tail` samples strictly beyond it: n·(1 − p/100) ≥ tail.
 */
bool percentileSupported(std::size_t n, double p,
                         std::size_t tail = 10);

/**
 * The highest of {50, 75, 90, 95, 99, 99.9} that
 * percentileSupported() accepts, or 0 when none is (n < 20).
 */
double highestSupportedPercentile(std::size_t n,
                                  std::size_t tail = 10);

// ------------------------------------------------------------ schedule

/** splitmix64: the benchmark's one source of seeded randomness. */
uint64_t splitmix64(uint64_t &state);

/** Uniform double in [0, 1) from splitmix64. */
double uniform01(uint64_t &state);

/**
 * Open-loop Poisson arrivals: offsets in seconds from the start of
 * the phase, exponentially spaced at `rate_per_s`, until both
 * `duration_s` has been covered and `min_count` arrivals were drawn.
 * A pure function of its arguments.
 */
std::vector<double> poissonSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s,
                                    std::size_t min_count);

// ---------------------------------------------------------------- json

/**
 * Minimal JSON writer. Numbers must be finite: a non-finite value
 * marks the writer failed (and writes null in its place) so callers
 * can refuse to print an invalid document.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &key(const std::string &k);
    JsonWriter &number(double v);
    JsonWriter &integer(uint64_t v);
    JsonWriter &boolean(bool v);
    JsonWriter &string(const std::string &v);

    bool ok() const { return ok_; }
    /** The first non-finite value's key path ("" when ok). */
    const std::string &error() const { return error_; }
    const std::string &str() const { return out_; }

  private:
    void separate();

    std::string out_;
    std::vector<bool> first_;
    bool after_key_ = false;
    std::string last_key_;
    bool ok_ = true;
    std::string error_;
};

/** A JSON string literal (quoted, escaped). */
std::string jsonQuote(const std::string &s);

// --------------------------------------------------------------- spans

/** One completed span: a timed call across a layer boundary. */
struct Span
{
    int64_t id = 0;
    int64_t parent = -1; ///< -1 = root
    std::string name;
    std::string layer;
    uint64_t rid = 0; ///< request / operation id (0 = none)
    uint32_t tid = 0;
    double start_us = 0.0;
    double end_us = 0.0;
};

/**
 * In-memory span log. Spans nest per thread: a span opened while
 * another is open on the same thread becomes its child. A disabled
 * log records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled = false);

    bool enabled() const { return enabled_; }

    /** RAII span; records on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string name, std::string layer,
              uint64_t rid = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        Span span_;
        int64_t saved_parent_ = -1;
    };

    std::vector<Span> spans() const;

    /** Chrome trace-event JSON ("X" events, µs timestamps). */
    std::string chromeJson() const;

  private:
    void add(Span span);
    double nowUs() const;

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    int64_t next_id_ = 0;
};

/**
 * Self time per layer in ms: each span's duration minus the part of
 * its interval covered by its children (the union of their
 * intervals, clipped to the parent), summed per layer.
 */
std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
