/**
 * @file
 * Shared pieces of the naq benchmark binary: run configuration, the
 * per-run outcome (checks + metrics), seeded input randomness, timing
 * statistics, and the in-memory span log the traced runs record.
 *
 * The benchmark calls the library only through its public headers; every
 * timing here is taken by the benchmark around those calls, never by
 * the library's own tracer or metrics registry (both stay disarmed).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace naqbench {

using Clock = std::chrono::steady_clock;

/** Seconds from `a` to `b`. */
double seconds_between(Clock::time_point a, Clock::time_point b);

/** Nanoseconds since the process started (span timestamps). */
int64_t now_ns();

/** Median of `v` (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * Nearest-rank quantile, `q` in [0, 1] (0 for an empty vector): the
 * smallest sample with at least `q` of the samples at or below it.
 */
double quantile(std::vector<double> v, double q);

/**
 * Quantile `q` over items of each item's median time across repeated
 * runs: `runs[r][i]` is item i's time in run r (every run covers the
 * same items). Separates run-to-run noise, which the per-item median
 * absorbs, from the spread over items the quantile describes.
 */
double item_quantile(const std::vector<std::vector<double>> &runs, double q);

/** 64-bit FNV-1a, chainable through `h` (input digests, output hashes). */
uint64_t fnv1a(std::string_view s, uint64_t h = 0xcbf29ce484222325ull);

/** "%016llx" rendering of a digest. */
std::string hex64(uint64_t v);

/**
 * SplitMix64 stream for input generation. The benchmark draws its
 * inputs from its own generator so the library sees only finished
 * programs, and a seed names the same inputs whatever the library's
 * own RNG does.
 */
class InputRng
{
  public:
    explicit InputRng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [lo, hi]. */
    uint64_t between(uint64_t lo, uint64_t hi);
    /** Exponential gap with mean 1 / rate. */
    double exponential(double rate);

  private:
    uint64_t state_;
};

/** Peak resident set (VmHWM) of this process in MB. */
double peak_rss_mb();

/** The online processor count (host stamp, pool accounting). */
unsigned nproc();

/**
 * Worker threads of every timed section: one. On a shared host a
 * section on nproc workers measured the scheduler, not the program —
 * a batch waits for its slowest worker, and a core lent to another
 * tenant stalls it — and its time swung threefold between runs. The
 * pool layer is measured at nproc workers in the traced runs.
 */
constexpr unsigned kTimedWorkers = 1;

/** What one invocation was asked to do. */
struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrink every input (self-test): same code paths, tiny sizes. */
    bool tiny = false;
    /** Directory (inside the checkout) for sink files and spans. */
    std::string out_dir = ".bench_build/naqbench-out";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Checks and measurements of one run. */
struct Outcome
{
    size_t attempted = 0; ///< Operations checked.
    size_t failed = 0;    ///< Operations that failed a check.
    std::vector<std::string> failures; ///< First few failure messages.
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    /** Count one failed operation (attempted is counted separately). */
    void fail(const std::string &what);
    void set(const std::string &name, double value, const std::string &unit);
    void note(const std::string &line) { notes.push_back(line); }
};

/** One recorded span: a timed call into a layer. */
struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root.
    uint64_t item = 0;   ///< Program, request or point the span serves.
    unsigned worker = 0; ///< ThreadPool worker id (0 = calling thread).
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    double seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

/**
 * In-memory span store for traced runs; thread-safe appends, written
 * as one JSON file when the run ends. Disabled logs drop everything.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Fresh span id (also usable before the span's end is known). */
    uint64_t next_id();

    /** Record a finished span; returns its id (0 when disabled). */
    uint64_t add(const char *name, uint64_t parent, uint64_t item,
                 unsigned worker, int64_t start_ns, int64_t end_ns,
                 uint64_t id = 0);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /**
     * Sum over spans named `name` of their self time: duration minus
     * the durations of their direct children, in seconds.
     */
    double self_seconds(std::string_view name) const;

    /** Write `{"header":{...},"spans":[...]}`; false on I/O failure. */
    bool write(const std::string &path,
               const std::string &header_json) const;

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint64_t next_ = 1;
};

/**
 * Pool accounting over the item spans of one parallel region
 * [`start_ns`, `end_ns`] run on `workers` threads: busy is the summed
 * item time, idle the time before a worker's first item and after its
 * last (the whole region for a worker that ran nothing). The gaps
 * between consecutive items on one worker are neither.
 */
struct PoolAccount
{
    double busy_s = 0.0;
    double idle_s = 0.0;
    /** Time from the first worker running dry to the region's end. */
    double tail_s = 0.0;
    double busy_ratio = 0.0;
};

PoolAccount account_pool(const std::vector<Span> &items, int64_t start_ns,
                         int64_t end_ns, unsigned workers);

/** The two workloads. */
Outcome run_corpus(const Config &cfg, SpanLog &spans);
Outcome run_loss_sweep(const Config &cfg, SpanLog &spans);

/**
 * The serve layer's per-layer metrics (serve.*, gen.lag_ms, memo.*),
 * measured by corpus's traced run on one `serve::Server` session; its
 * checks count into `out`.
 */
void measure_serve_layer(const Config &cfg, SpanLog &spans, Outcome &out);

} // namespace naqbench
