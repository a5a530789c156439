#include "harness.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------- args

bool
parseUint(const std::string &s, uint64_t *out)
{
    if (s.empty() || s.size() > 20)
        return false;
    uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t d = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

bool
parseDouble(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::string
parseArgs(int argc, const char *const *argv,
          const std::vector<std::string> &workloads, Args *out)
{
    Args a;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    static const char *const kFlags[] = {
        "--workload", "--seed", "--seconds",   "--trace",
        "--role",     "--port", "--worker-id", "--exec-workers"};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (std::find(std::begin(kFlags), std::end(kFlags), flag) ==
            std::end(kFlags))
            return "unknown flag '" + flag + "'";
        if (i + 1 >= argc)
            return "flag " + flag + " needs a value";
        const std::string value = argv[++i];
        uint64_t u = 0;
        if (flag == "--workload") {
            if (std::find(workloads.begin(), workloads.end(), value) ==
                workloads.end()) {
                std::string known;
                for (const auto &w : workloads)
                    known += (known.empty() ? "" : ", ") + w;
                return "unknown workload '" + value + "' (known: " +
                       known + ")";
            }
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUint(value, &a.seed))
                return "--seed needs an unsigned integer, got '" +
                       value + "'";
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseDouble(value, &a.seconds) || a.seconds <= 0.0)
                return "--seconds needs a positive number, got '" +
                       value + "'";
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return "--trace needs 0 or 1, got '" + value + "'";
            a.trace = value == "1" ? 1 : 0;
            have_trace = true;
        } else if (flag == "--role") {
            if (value != "worker")
                return "--role only accepts 'worker'";
            a.worker = true;
        } else if (flag == "--port") {
            if (!parseUint(value, &u) || u == 0 || u > 65535)
                return "--port needs 1..65535, got '" + value + "'";
            a.port = static_cast<uint16_t>(u);
        } else if (flag == "--worker-id") {
            if (!parseUint(value, &a.worker_id))
                return "--worker-id needs an unsigned integer";
        } else if (flag == "--exec-workers") {
            if (!parseUint(value, &u) || u == 0 || u > 1024)
                return "--exec-workers needs 1..1024, got '" + value +
                       "'";
            a.exec_workers = static_cast<std::size_t>(u);
        }
    }
    if (a.worker) {
        if (a.port == 0 || a.exec_workers == 0)
            return "--role worker needs --port and --exec-workers";
    } else if (!have_workload || !have_seed || !have_seconds ||
               !have_trace) {
        return "usage: --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>";
    }
    *out = a;
    return "";
}

// ---------------------------------------------------------- statistics

double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values[0];
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

bool
percentileSupported(std::size_t n, double p, std::size_t tail)
{
    // Integer-exact form of n·(1 − p/100) ≥ tail for p given to 0.1.
    const auto p10 = static_cast<uint64_t>(std::llround(p * 10.0));
    return static_cast<uint64_t>(n) * (1000 - p10) >=
           static_cast<uint64_t>(tail) * 1000;
}

double
highestSupportedPercentile(std::size_t n, std::size_t tail)
{
    double best = 0.0;
    for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
        if (percentileSupported(n, p, tail))
            best = p;
    return best;
}

// ------------------------------------------------------------ schedule

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
uniform01(uint64_t &state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::vector<double>
poissonSchedule(uint64_t seed, double rate_per_s, double duration_s,
                std::size_t min_count)
{
    std::vector<double> at;
    uint64_t state = seed ^ 0x5eed0f0a11ull;
    double t = 0.0;
    while (true) {
        t += -std::log1p(-uniform01(state)) / rate_per_s;
        if (t > duration_s && at.size() >= min_count)
            break;
        at.push_back(t);
    }
    return at;
}

// ---------------------------------------------------------------- json

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!first_.empty()) {
        if (!first_.back())
            out_ += ", ";
        first_.back() = false;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += "{";
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += "}";
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    out_ += jsonQuote(k) + ": ";
    after_key_ = true;
    last_key_ = k;
    return *this;
}

JsonWriter &
JsonWriter::number(double v)
{
    separate();
    if (!std::isfinite(v)) {
        if (ok_)
            error_ = "non-finite value for '" + last_key_ + "'";
        ok_ = false;
        out_ += "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::integer(uint64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::boolean(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::string(const std::string &v)
{
    separate();
    out_ += jsonQuote(v);
    return *this;
}

// --------------------------------------------------------------- spans

namespace {

/** Innermost open span per thread (by log); -1 = none. */
thread_local const SpanLog *tl_log = nullptr;
thread_local int64_t tl_open = -1;

uint32_t
threadTag()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        0xffff);
}

} // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

SpanLog::Scope::Scope(SpanLog *log, std::string name, std::string layer,
                      uint64_t rid)
    : log_(log != nullptr && log->enabled() ? log : nullptr)
{
    if (log_ == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(log_->mutex_);
        span_.id = log_->next_id_++;
    }
    span_.name = std::move(name);
    span_.layer = std::move(layer);
    span_.rid = rid;
    span_.tid = threadTag();
    saved_parent_ = tl_log == log_ ? tl_open : -1;
    span_.parent = saved_parent_;
    tl_log = log_;
    tl_open = span_.id;
    span_.start_us = log_->nowUs();
}

SpanLog::Scope::~Scope()
{
    if (log_ == nullptr)
        return;
    span_.end_us = log_->nowUs();
    tl_open = saved_parent_;
    log_->add(std::move(span_));
}

void
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
SpanLog::chromeJson() const
{
    const auto all = spans();
    std::string out = "{\"traceEvents\": [\n";
    char buf[128];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out += "{\"name\": " + jsonQuote(s.name) +
               ", \"cat\": " + jsonQuote(s.layer) + ", \"ph\": \"X\"";
        std::snprintf(buf, sizeof(buf),
                      ", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                      "\"dur\": %.3f",
                      s.tid, s.start_us, s.end_us - s.start_us);
        out += buf;
        std::snprintf(buf, sizeof(buf),
                      ", \"args\": {\"id\": %lld, \"parent\": %lld, "
                      "\"rid\": %llu}}",
                      static_cast<long long>(s.id),
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.rid));
        out += buf;
        out += i + 1 < all.size() ? ",\n" : "\n";
    }
    return out + "]}\n";
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::map<int64_t, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans)
        if (s.parent >= 0)
            children[s.parent].emplace_back(s.start_us, s.end_us);

    std::map<std::string, double> self;
    for (const Span &s : spans) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto iv = it->second;
            std::sort(iv.begin(), iv.end());
            double cur_lo = 0.0, cur_hi = -1.0;
            bool open = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start_us);
                hi = std::min(hi, s.end_us);
                if (hi <= lo)
                    continue;
                if (open && lo <= cur_hi) {
                    cur_hi = std::max(cur_hi, hi);
                } else {
                    if (open)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                    open = true;
                }
            }
            if (open)
                covered += cur_hi - cur_lo;
        }
        self[s.layer] += (s.end_us - s.start_us - covered) / 1e3;
    }
    return self;
}

} // namespace perfbench
