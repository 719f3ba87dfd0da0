/**
 * @file
 * Workload `loss-sweep`: the paper's Fig. 12/13 loss-coping experiment
 * run the way `naqc sweep --spec` runs it — a `StandardSpec` grid
 * (five benchmarks x three sizes, as QASM files, x MID {3, 4} x all six
 * strategies x two trials) on a 10x10 device, each point a 100-shot
 * loop, with the compile memo on and the rows written through the
 * sweep engine's CSV and JSON sinks, on kTimedWorkers (one) worker. The
 * programs are fixed; the seed drives the shot loops. One untimed
 * evaluation on nproc workers must reproduce the rows; the traced run
 * accounts the sweep's thread pool and the memo's concurrent duplicate
 * compiles on it. The only workload that runs `loss` and `sweep`; its
 * compiles are thousands of small recompiles on loss-masked devices.
 * MID 2 is left out: the compile-small strategies refuse it.
 *
 * The traced run replays every point once through `make_strategy` +
 * `run_shots` with a timing decorator around the `LossStrategy`, and
 * requires each replayed `ShotSummary` to reproduce its grid row.
 * Every compile the replay triggers (a memo miss in `prepare`, a fresh
 * recompile in `on_loss`) is repeated on a compiler carrying the
 * benchmark's stage markers, which yields decompose/map/route times
 * for the grid's compile work without instrumenting the library.
 */
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.h"
#include "core/compile_memo.h"
#include "core/device_analysis.h"
#include "qasm/qasm.h"
#include "inputs.h"
#include "loss/shot_engine.h"
#include "loss/strategies.h"
#include "stages.h"
#include "sweep/runner.h"
#include "sweep/sink.h"
#include "sweep/standard.h"
#include "util/thread_pool.h"

namespace naqbench {

namespace {

using naq::sweep::PointResult;
using naq::sweep::SweepPoint;
using naq::sweep::SweepRun;

/** One timed evaluation of the grid. */
struct Grid
{
    SweepRun run;
    std::string csv;
    double setup_s = 0.0, wall_s = 0.0;
    int64_t t_start = 0, t_end = 0;
    std::vector<Span> points; ///< Per-point timing (name "point").
    size_t memo_hits = 0, memo_misses = 0, memo_keys = 0;
};

Grid
run_grid(const std::string &spec_text, const std::string &out_dir,
         size_t jobs_override)
{
    Grid g;
    // Set-up: everything before the first point can run — parsing the
    // spec and building the experiment (memo, duplicate-key table).
    const auto s0 = Clock::now();
    naq::sweep::StandardSpec spec =
        naq::sweep::parse_standard_spec(spec_text);
    if (jobs_override)
        spec.sweep.jobs = jobs_override;
    const auto memo =
        std::make_shared<naq::CompileMemo>(spec.memo_capacity);
    const naq::sweep::SweepRunner::PointFn fn =
        naq::sweep::standard_experiment(spec, memo);
    g.setup_s = seconds_between(s0, Clock::now());

    g.points.resize(spec.sweep.num_points());
    const auto timed = [&](const SweepPoint &p, PointResult &res) {
        const int64_t t0 = now_ns();
        fn(p, res);
        g.points[p.index] = {"point", 0, 0, p.index,
                             naq::ThreadPool::current_worker_id(), t0,
                             now_ns()};
    };
    const auto start = Clock::now();
    g.t_start = now_ns();
    g.run = naq::sweep::SweepRunner(spec.sweep).run(timed);
    naq::sweep::CsvFileSink(out_dir + "/loss-sweep.csv").write(g.run);
    naq::sweep::JsonFileSink(out_dir + "/loss-sweep.json").write(g.run);
    g.t_end = now_ns();
    g.wall_s = seconds_between(start, Clock::now());
    g.memo_hits = memo->hits();
    g.memo_misses = memo->misses();
    g.memo_keys = memo->entries().size();
    return g;
}

/** Times one compile on a marker-carrying compiler (replay only). */
struct Replica
{
    StageMarks marks;
    double gates = 0; ///< Scheduled gates of the timed compiles.
    size_t compiles = 0;

    void
    compile(const naq::Circuit &logical, const naq::GridTopology &topo,
            double mid, SpanLog &spans, uint64_t parent, uint64_t item)
    {
        naq::Compiler c = naq::Compiler::for_device(topo);
        c.with(naq::CompilerOptions::neutral_atom(mid));
        add_stage_marks(c, marks);
        marks.reset(1);
        const naq::CompileResult r = c.compile(logical);
        if (!marks.complete(0))
            return;
        const auto &at = marks.at[0];
        const uint64_t id =
            spans.add("replica.compile", parent, item, 0, at[0], at[3]);
        spans.add("decompose", id, item, 0, at[0], at[1]);
        spans.add("map", id, item, 0, at[1], at[2]);
        spans.add("route", id, item, 0, at[2], at[3]);
        gates += double(r.compiled.schedule.size());
        ++compiles;
    }
};

/**
 * Timing decorator: forwards every call to the real strategy, records
 * prepare and adapt spans, and replays each compile the strategy made
 * on the replica compiler (outside the recorded spans).
 */
class TimedStrategy final : public naq::LossStrategy
{
  public:
    TimedStrategy(std::unique_ptr<naq::LossStrategy> inner,
                  const naq::StrategyOptions &sopts, SpanLog &spans,
                  Replica &replica, uint64_t parent, uint64_t item)
        : inner_(std::move(inner)), sopts_(sopts), spans_(spans),
          replica_(replica), parent_(parent), item_(item)
    {
    }

    bool
    prepare(const naq::Circuit &logical, naq::GridTopology &topo) override
    {
        logical_ = &logical;
        const size_t misses = sopts_.compile_memo->misses();
        const int64_t t0 = now_ns();
        const bool ok = inner_->prepare(logical, topo);
        const int64_t t1 = now_ns();
        prepare_s = double(t1 - t0) * 1e-9;
        spans_.add("loss.prepare", parent_, item_, 0, t0, t1);
        if (sopts_.compile_memo->misses() != misses)
            replica_.compile(logical, topo,
                             naq::strategy_compile_mid(sopts_.kind,
                                                       sopts_.device_mid),
                             spans_, parent_, item_);
        return ok;
    }

    void on_reload(naq::GridTopology &topo) override
    {
        inner_->on_reload(topo);
    }

    naq::AdaptResult
    on_loss(naq::Site s, naq::GridTopology &topo) override
    {
        const size_t compiles = inner_->compile_count();
        const int64_t t0 = now_ns();
        const naq::AdaptResult r = inner_->on_loss(s, topo);
        const int64_t t1 = now_ns();
        ++adapts;
        spans_.add("loss.adapt", parent_, item_, 0, t0, t1);
        if (inner_->compile_count() != compiles)
            replica_.compile(*logical_, topo, sopts_.device_mid, spans_,
                             parent_, item_);
        return r;
    }

    bool site_in_use(naq::Site s) const override
    {
        return inner_->site_in_use(s);
    }
    const naq::CompiledCircuit &compiled() const override
    {
        return inner_->compiled();
    }
    size_t fixup_swaps() const override { return inner_->fixup_swaps(); }
    size_t compile_count() const override
    {
        return inner_->compile_count();
    }
    size_t cache_hits() const override { return inner_->cache_hits(); }

    double prepare_s = 0.0;
    size_t adapts = 0;

  private:
    std::unique_ptr<naq::LossStrategy> inner_;
    naq::StrategyOptions sopts_;
    SpanLog &spans_;
    Replica &replica_;
    uint64_t parent_, item_;
    const naq::Circuit *logical_ = nullptr;
};

bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Per-layer totals of the replay. */
struct Replay
{
    Replica replica;
    std::vector<double> prepare_ms;
    size_t adapts = 0, recompiles = 0, cache_hits = 0;
};

/**
 * Replay every point of `grid` sequentially with the timing decorator;
 * a replayed summary that disagrees with its row is a failure.
 */
Replay
replay(const std::string &spec_text, const Grid &grid, SpanLog &spans,
       Outcome &out)
{
    Replay rp;
    const naq::sweep::StandardSpec spec =
        naq::sweep::parse_standard_spec(spec_text);
    const auto memo =
        std::make_shared<naq::CompileMemo>(spec.memo_capacity);
    const uint64_t root = spans.next_id();
    const int64_t r0 = now_ns();
    for (const SweepPoint &p : grid.run.points) {
        ++out.attempted;
        const PointResult &row = grid.run.results[p.index];
        const auto skind = naq::strategy_from_name(p.as_str("strategy"));
        if (!skind) {
            out.fail("replay: point " + std::to_string(p.index) +
                     " names an unknown strategy");
            continue;
        }
        const std::string &path = p.as_str("qasm");
        const naq::Circuit logical = naq::read_qasm_file(path);
        naq::StrategyOptions sopts;
        sopts.kind = *skind;
        sopts.device_mid = p.as_num("mid");
        sopts.compile_memo = memo;
        sopts.program_key = "qasm:" + path;
        const uint64_t point = spans.next_id();
        const int64_t t0 = now_ns();
        TimedStrategy strategy(naq::make_strategy(sopts), sopts, spans,
                               rp.replica, point, p.index);
        naq::GridTopology topo(spec.rows, spec.cols);
        std::string why;
        if (!strategy.prepare(logical, topo)) {
            why = "strategy refused the point";
        } else {
            // The row's gates/depth describe the prepared program.
            const naq::CompiledStats stats = strategy.current_stats();
            naq::ShotEngineOptions engine;
            engine.max_shots = spec.shots;
            engine.seed = p.seed;
            const int64_t s0 = now_ns();
            const naq::ShotSummary sum =
                naq::run_shots(strategy, topo, engine);
            spans.add("loss.shots", point, p.index, 0, s0, now_ns());
            const std::pair<const char *, double> expect[] = {
                {"gates", double(stats.total())},
                {"depth", double(stats.depth)},
                {"ok_shots", double(sum.shots_successful)},
                {"reloads", double(sum.reloads)},
                {"recompiles", double(sum.recompiles)},
                {"cache_hits", double(sum.recompile_cache_hits)},
                {"losses", double(sum.losses)},
                {"overhead_s", sum.overhead_s()},
                {"total_s", sum.total_s()},
            };
            for (const auto &[name, value] : expect) {
                const double *got = row.metrics.find(name);
                if (!got || !same_bits(*got, value))
                    why = std::string("replayed ") + name +
                          " differs from the row";
            }
            rp.recompiles += strategy.compile_count() - 1;
            rp.cache_hits += strategy.cache_hits();
        }
        spans.add("replay.point", root, p.index, 0, t0, now_ns(), point);
        rp.prepare_ms.push_back(strategy.prepare_s * 1e3);
        rp.adapts += strategy.adapts;
        if (!why.empty())
            out.fail("replay: point " + std::to_string(p.index) + ": " + why);
    }
    spans.add("replay", 0, 0, 0, r0, now_ns(), root);
    return rp;
}

double
sum_metric(const SweepRun &run, const char *name)
{
    double total = 0.0;
    for (const PointResult &r : run.results)
        if (const double *v = r.metrics.find(name))
            total += *v;
    return total;
}

/** Rows of `csv` that differ from `reference` (header included). */
size_t
count_row_diffs(const std::string &csv, const std::string &reference)
{
    const auto lines = [](const std::string &s) {
        std::vector<std::string> out;
        size_t start = 0, nl;
        while ((nl = s.find('\n', start)) != std::string::npos) {
            out.push_back(s.substr(start, nl - start));
            start = nl + 1;
        }
        return out;
    };
    const std::vector<std::string> a = lines(csv), b = lines(reference);
    size_t diffs = a.size() > b.size() ? a.size() - b.size()
                                       : b.size() - a.size();
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        diffs += a[i] != b[i];
    return diffs;
}

} // namespace

Outcome
run_loss_sweep(const Config &cfg, SpanLog &spans)
{
    Outcome out;
    const unsigned jobs = kTimedWorkers;
    // The grid's programs, written fresh each run: a stale file would
    // join the spec's glob.
    const std::string qasm_dir = cfg.out_dir + "/loss-programs";
    std::filesystem::remove_all(qasm_dir);
    std::filesystem::create_directories(qasm_dir);
    const std::string spec_text =
        make_loss_spec(cfg.seed, jobs, cfg.tiny, qasm_dir);
    uint64_t digest = fnv1a(spec_text);
    for (const CorpusFile &f : make_loss_programs(cfg.tiny)) {
        std::ofstream(qasm_dir + "/" + f.name) << f.qasm;
        digest = fnv1a(f.qasm, fnv1a(f.name, digest));
    }
    const size_t num_points =
        naq::sweep::parse_standard_spec(spec_text).sweep.num_points();
    out.note("inputs: loss-sweep points=" + std::to_string(num_points) +
             " device=10x10 jobs=" + std::to_string(jobs) +
             " digest=" + hex64(digest));

    // ------------------------------------------------------ timed loop
    std::vector<double> setup_s, wall_s, traced_wall_s, traced_point_ms;
    std::vector<std::vector<double>> point_ms; // [grid][point]
    std::vector<double> remainder_s, hit_ratio, wasted;
    // Warm-up grid (untimed): its rows are the reference every timed
    // grid must reproduce byte for byte.
    Grid first = run_grid(spec_text, cfg.out_dir, 0);
    first.csv = naq::sweep::to_csv(first.run);
    size_t grids = 0;
    const auto loop_start = Clock::now();
    while (true) {
        const bool trace_this = cfg.trace && grids % 2 == 1;
        Grid g = run_grid(spec_text, cfg.out_dir, 0);
        ++grids;
        setup_s.push_back(g.setup_s);
        (trace_this ? traced_wall_s : wall_s).push_back(g.wall_s);
        std::vector<double> ms;
        for (const Span &s : g.points)
            ms.push_back(s.seconds() * 1e3);
        if (trace_this) {
            traced_point_ms.insert(traced_point_ms.end(), ms.begin(),
                                   ms.end());
        } else {
            point_ms.push_back(std::move(ms));
        }
        hit_ratio.push_back(double(g.memo_hits) /
                            double(std::max<size_t>(
                                g.memo_hits + g.memo_misses, 1)));
        wasted.push_back(double(g.memo_misses - g.memo_keys));
        if (trace_this) {
            const uint64_t root = spans.next_id();
            for (const Span &s : g.points)
                spans.add("point", root, s.item, s.worker, s.start_ns,
                          s.end_ns);
            spans.add("grid", 0, 0, 0, g.t_start, g.t_end, root);
            const unsigned workers =
                unsigned(std::min<size_t>(jobs, num_points));
            const PoolAccount acc =
                account_pool(g.points, g.t_start, g.t_end, workers);
            remainder_s.push_back(g.wall_s - (acc.busy_s + acc.idle_s) /
                                                 double(workers));
        }

        g.csv = naq::sweep::to_csv(g.run);
        for (const PointResult &r : g.run.results) {
            ++out.attempted;
            if (!r.ok)
                out.fail("grid " + std::to_string(grids) + " point " +
                         std::to_string(r.index) + " not ok: " + r.note);
        }
        if (const size_t d = count_row_diffs(g.csv, first.csv))
            out.fail("grid " + std::to_string(grids) + ": " +
                     std::to_string(d) + " rows differ from the warm-up");
        const double elapsed = seconds_between(loop_start, Clock::now());
        const size_t min_grids = cfg.trace ? 4 : 3;
        if (grids >= min_grids && elapsed >= cfg.seconds)
            break;
    }
    const double rss_mb = peak_rss_mb();

    // ---------------------------------------------------------- checks
    const unsigned pool_workers =
        unsigned(std::min<size_t>(nproc(), num_points));
    const Grid parallel = run_grid(spec_text, cfg.out_dir, pool_workers);
    out.attempted += parallel.run.results.size();
    if (const size_t d =
            count_row_diffs(naq::sweep::to_csv(parallel.run), first.csv))
        out.fail("jobs=" + std::to_string(pool_workers) + " evaluation: " +
                 std::to_string(d) + " rows differ from the jobs=1 grids");
    out.note("checks: " + std::to_string(grids) + " grids + one jobs=" +
             std::to_string(pool_workers) +
             " evaluation byte-identical, every point ok");

    if (!cfg.trace) {
        out.note("loss-sweep: grids=" + std::to_string(grids) +
                 " grid_s min/median/max=" +
                 std::to_string(quantile(wall_s, 0.0)) + "/" +
                 std::to_string(median(wall_s)) + "/" +
                 std::to_string(quantile(wall_s, 1.0)) + " points/s=" +
                 std::to_string(double(num_points) / median(wall_s)) +
                 "; point ms (each its median over grids) p50=" +
                 std::to_string(item_quantile(point_ms, 0.50)) +
                 " p99=" + std::to_string(item_quantile(point_ms, 0.99)) +
                 "; memo hit ratio=" + std::to_string(median(hit_ratio)) +
                 " wasted compiles=" + std::to_string(median(wasted)));
        out.set("setup_s", median(setup_s), "s");
        out.set("wall_s", median(wall_s), "s");
        out.set("gates", sum_metric(first.run, "gates"), "count");
        out.set("depth", sum_metric(first.run, "depth"), "count");
        out.set("overhead_s", sum_metric(first.run, "overhead_s"), "s");
        out.set("peak_rss_mb", rss_mb, "MB");
        return out;
    }

    // ----------------------------------------------- per-layer metrics
    const Replay rp = replay(spec_text, first, spans, out);
    std::vector<double> analysis_s;
    const naq::GridTopology topo(10, 10);
    for (int i = 0; i < 9; ++i) {
        const auto t0 = Clock::now();
        const naq::DeviceAnalysis an(topo, 3.0);
        analysis_s.push_back(seconds_between(t0, Clock::now()));
    }
    // Pool layer: the parallel evaluation's points on nproc workers.
    const PoolAccount pool = account_pool(parallel.points, parallel.t_start,
                                          parallel.t_end, pool_workers);
    {
        const uint64_t region = spans.next_id();
        for (const Span &s : parallel.points)
            spans.add("pool.point", region, s.item, s.worker, s.start_ns,
                      s.end_ns);
        spans.add("pool.grid", 0, 0, 0, parallel.t_start, parallel.t_end,
                  region);
    }
    // Self times from the span tree: duration minus child spans.
    const double route_s = spans.self_seconds("route");
    out.set("decompose.self_s", spans.self_seconds("decompose"), "s");
    out.set("map.self_s", spans.self_seconds("map"), "s");
    out.set("route.self_s", route_s, "s");
    out.set("route.ns_per_gate",
            route_s * 1e9 / std::max(rp.replica.gates, 1.0), "ns");
    out.set("analysis.build_s", median(analysis_s), "s");
    out.set("pool.busy_ratio", pool.busy_ratio, "ratio");
    out.set("pool.tail_s", pool.tail_s, "s");
    out.set("pool.idle_s", pool.idle_s, "s");
    // Memo layer on the parallel evaluation too: on one worker no two
    // points ever compile the same key at once.
    out.set("memo.hit_ratio",
            double(parallel.memo_hits) /
                double(std::max<size_t>(
                    parallel.memo_hits + parallel.memo_misses, 1)),
            "ratio");
    out.set("memo.wasted_compiles",
            double(parallel.memo_misses - parallel.memo_keys), "count");
    out.set("sweep.point_p50_ms", quantile(traced_point_ms, 0.50), "ms");
    out.set("sweep.point_p99_ms", quantile(traced_point_ms, 0.99), "ms");
    double prepare_ms = 0.0;
    for (double ms : rp.prepare_ms)
        prepare_ms += ms;
    out.set("loss.prepare_ms",
            prepare_ms / double(std::max<size_t>(rp.prepare_ms.size(), 1)),
            "ms");
    out.set("loss.adapt_us",
            spans.self_seconds("loss.adapt") * 1e6 /
                double(std::max<size_t>(rp.adapts, 1)),
            "us");
    out.set("loss.recompiles", double(rp.recompiles), "count");
    out.set("loss.cache_hit_ratio",
            double(rp.cache_hits) /
                double(std::max<size_t>(rp.cache_hits + rp.recompiles, 1)),
            "ratio");
    out.set("trace.wall_s", median(traced_wall_s), "s");
    out.set("trace.remainder_s", median(remainder_s), "s");
    out.set("trace.overhead_s", median(traced_wall_s) - median(wall_s), "s");
    out.note("replay: " + std::to_string(first.run.points.size()) +
             " points reproduced their rows; " +
             std::to_string(rp.replica.compiles) +
             " compiles re-timed on the marker compiler");
    return out;
}

} // namespace naqbench
