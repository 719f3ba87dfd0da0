/**
 * @file
 * Workload `corpus`: a seeded QASMBench-shaped corpus compiled text to
 * text on a 32x32 device at MID 3 (the largest grid `DeviceAnalysis`
 * still tabulates). One timed batch is `read_qasm` on every file,
 * `Compiler::compile_all` on kTimedWorkers (one) worker, and `write_qasm`
 * on every result; batches repeat until the run's time is spent. No memo
 * is involved: every program is unique.
 *
 * Traced batches run a second compiler with the benchmark's stage
 * markers spliced in (stages.h), so per-program decompose/map/route
 * spans and worker ids come from inside the real `compile_all`. The
 * traced run then compiles a few batches on nproc workers, markers on,
 * to account `compile_all`'s thread pool, and measures the serve layer
 * (serve.cpp) — compilation as a service, the same job one request at
 * a time — whose memo lookups are the only ones on this workload.
 */
#include <exception>
#include <optional>
#include <utility>

#include "bench.h"
#include "checks.h"
#include "core/pipeline.h"
#include "inputs.h"
#include "stages.h"
#include "loss/time_model.h"
#include "qasm/qasm.h"

namespace naqbench {

namespace {

using naq::Circuit;
using naq::CompileResult;

constexpr int kGrid = 32;
constexpr double kMid = 3.0;
constexpr int kSetups = 25;
/** Batches the traced run compiles on nproc workers (pool accounting). */
constexpr int kPoolBatches = 3;

/** One batch's products plus its timings. */
struct Batch
{
    std::vector<Circuit> programs;
    std::vector<CompileResult> results;
    std::vector<std::string> emitted;
    double wall_s = 0.0;
    int64_t t_start = 0, t_parsed = 0, t_compiled = 0, t_end = 0;
    std::vector<std::pair<int64_t, int64_t>> parse_at, emit_at;
};

void
run_batch(const std::vector<CorpusFile> &corpus, naq::Compiler &compiler,
          bool timed_items, Batch &b)
{
    const size_t n = corpus.size();
    b.programs.reserve(n);
    b.emitted.reserve(n);
    if (timed_items) {
        b.parse_at.reserve(n);
        b.emit_at.reserve(n);
    }
    const auto start = Clock::now();
    b.t_start = now_ns();
    for (const CorpusFile &f : corpus) {
        const int64_t t0 = timed_items ? now_ns() : 0;
        try {
            b.programs.push_back(naq::read_qasm(f.qasm));
        } catch (const std::exception &) {
            b.programs.emplace_back(0); // Reported by the checks.
        }
        b.programs.back().set_name(f.name);
        if (timed_items)
            b.parse_at.emplace_back(t0, now_ns());
    }
    b.t_parsed = now_ns();
    b.results = compiler.compile_all(b.programs);
    b.t_compiled = now_ns();
    for (const CompileResult &r : b.results) {
        const int64_t t0 = timed_items ? now_ns() : 0;
        std::string text;
        if (r.success) {
            try {
                text = naq::write_qasm(r.compiled.to_circuit());
            } catch (const std::exception &) {
                text.clear(); // Reported by the checks.
            }
        }
        b.emitted.push_back(std::move(text));
        if (timed_items)
            b.emit_at.emplace_back(t0, now_ns());
    }
    b.t_end = now_ns();
    b.wall_s = seconds_between(start, Clock::now());
}

/**
 * The program spans of a marked batch — one per program that ran all
 * four stages, named `name` under `parent` — without recording them.
 */
std::vector<Span>
program_spans(const StageMarks &marks, const char *name, uint64_t parent,
              SpanLog &spans)
{
    std::vector<Span> programs;
    for (size_t i = 0; i < marks.at.size(); ++i) {
        if (!marks.complete(i))
            continue; // The program failed before routing finished.
        programs.push_back({name, spans.next_id(), parent, i,
                            marks.worker[i], marks.at[i][0],
                            marks.at[i][3]});
    }
    return programs;
}

/**
 * Record one traced batch as spans — batch > {qasm.parse, compile_all >
 * program > {decompose, map, route}, qasm.emit} — and account the
 * compile_all region from the program spans.
 */
PoolAccount
record_spans(const std::vector<CorpusFile> &corpus, const Batch &b,
             const StageMarks &marks, unsigned workers, SpanLog &spans)
{
    const uint64_t batch = spans.next_id();
    const uint64_t compile_all = spans.next_id();
    for (size_t i = 0; i < corpus.size(); ++i) {
        spans.add("qasm.parse", batch, i, 0, b.parse_at[i].first,
                  b.parse_at[i].second);
        spans.add("qasm.emit", batch, i, 0, b.emit_at[i].first,
                  b.emit_at[i].second);
    }
    const std::vector<Span> programs =
        program_spans(marks, "program", compile_all, spans);
    for (const Span &p : programs) {
        const auto &at = marks.at[p.item];
        spans.add("program", compile_all, p.item, p.worker, at[0], at[3],
                  p.id);
        spans.add("decompose", p.id, p.item, p.worker, at[0], at[1]);
        spans.add("map", p.id, p.item, p.worker, at[1], at[2]);
        spans.add("route", p.id, p.item, p.worker, at[2], at[3]);
    }
    spans.add("compile_all", batch, 0, 0, b.t_parsed, b.t_compiled,
              compile_all);
    spans.add("batch", 0, 0, 0, b.t_start, b.t_end, batch);
    return account_pool(programs, b.t_parsed, b.t_compiled, workers);
}

double
mean_of(const std::vector<PoolAccount> &accounts, double PoolAccount::*field)
{
    double total = 0.0;
    for (const PoolAccount &a : accounts)
        total += a.*field;
    return total / double(std::max<size_t>(accounts.size(), 1));
}

} // namespace

Outcome
run_corpus(const Config &cfg, SpanLog &spans)
{
    Outcome out;
    const unsigned jobs = kTimedWorkers;
    const std::vector<CorpusFile> corpus = make_corpus(cfg.seed, cfg.tiny);
    {
        uint64_t digest = fnv1a("corpus");
        size_t bytes = 0, tiers[3] = {0, 0, 0};
        for (const CorpusFile &f : corpus) {
            digest = fnv1a(f.qasm, fnv1a(f.name, digest));
            bytes += f.qasm.size();
            tiers[f.name[0] == 's' ? 0 : f.name[0] == 'm' ? 1 : 2]++;
        }
        out.note("inputs: corpus files=" + std::to_string(corpus.size()) +
                 " small=" + std::to_string(tiers[0]) +
                 " medium=" + std::to_string(tiers[1]) +
                 " large=" + std::to_string(tiers[2]) +
                 " bytes=" + std::to_string(bytes) +
                 " device=32x32 mid=3 jobs=" + std::to_string(jobs) +
                 " digest=" + hex64(digest));
    }

    const naq::GridTopology topo(kGrid, kGrid);
    naq::CompilerOptions opts = naq::CompilerOptions::neutral_atom(kMid);
    opts.jobs = jobs;
    const unsigned workers = unsigned(std::min<size_t>(jobs, corpus.size()));

    // Set-up: what a user pays before the first compile — building the
    // compiler and its device analysis (1,024 sites) — several times.
    std::vector<double> setup_s;
    std::optional<naq::Compiler> compiler;
    for (int i = 0; i < kSetups; ++i) {
        compiler.reset();
        const auto t0 = Clock::now();
        naq::Compiler c = naq::Compiler::for_device(topo);
        c.with(opts);
        c.prepare();
        setup_s.push_back(seconds_between(t0, Clock::now()));
        compiler.emplace(std::move(c));
    }

    StageMarks marks;
    std::optional<naq::Compiler> traced;
    if (cfg.trace) {
        for (size_t i = 0; i < corpus.size(); ++i)
            marks.slot.emplace(corpus[i].name, i);
        naq::Compiler c = naq::Compiler::for_device(topo);
        c.with(opts);
        add_stage_marks(c, marks);
        c.prepare();
        traced.emplace(std::move(c));
    }

    // ------------------------------------------------------ timed loop
    std::vector<double> wall_s, traced_wall_s;
    std::vector<std::vector<double>> program_ms; // [batch][program]
    std::vector<PoolAccount> regions; // compile_all of the traced batches
    std::vector<uint64_t> first_hashes;
    size_t batches = 0;
    Batch last;
    // Warm-up batch (untimed): first-touch allocation and cold caches
    // are a one-time cost, not the steady state of a batch user. Its
    // outputs are the reference every timed batch must reproduce.
    {
        Batch warm;
        run_batch(corpus, *compiler, false, warm);
        for (const std::string &text : warm.emitted)
            first_hashes.push_back(fnv1a(text));
    }
    // Every batch must reproduce the warm-up batch's outputs.
    const auto check_outputs = [&](const Batch &b, const std::string &what) {
        for (size_t i = 0; i < b.emitted.size(); ++i) {
            ++out.attempted;
            if (fnv1a(b.emitted[i]) != first_hashes[i])
                out.fail(what + ": " + corpus[i].name +
                         " output differs from the warm-up batch");
        }
    };
    const auto loop_start = Clock::now();
    while (true) {
        const bool trace_this = cfg.trace && batches % 2 == 1;
        last = Batch{};
        if (trace_this)
            marks.reset(corpus.size());
        run_batch(corpus, trace_this ? *traced : *compiler, trace_this,
                  last);
        ++batches;
        if (trace_this) {
            traced_wall_s.push_back(last.wall_s);
            regions.push_back(
                record_spans(corpus, last, marks, workers, spans));
        } else {
            wall_s.push_back(last.wall_s);
            std::vector<double> ms;
            for (const CompileResult &r : last.results)
                ms.push_back(r.report.total_ms);
            program_ms.push_back(std::move(ms));
        }
        check_outputs(last, "batch " + std::to_string(batches));
        const double elapsed = seconds_between(loop_start, Clock::now());
        const size_t min_batches = cfg.trace ? 4 : 3;
        if (batches >= min_batches && elapsed >= cfg.seconds)
            break;
    }
    const double rss_mb = peak_rss_mb();

    // ---------------------------------------------------------- checks
    size_t gates = 0, depth = 0, ideal_depth = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
        const CompileResult &r = last.results[i];
        std::string why;
        if (!r.success)
            why = std::string("compile failed: ") + r.failure_reason;
        if (why.empty())
            why = check_schedule(r.compiled, topo, opts);
        if (why.empty())
            why = check_gates_preserved(last.programs[i], r.compiled, opts);
        if (why.empty())
            why = check_reparse(last.emitted[i], r.compiled);
        if (!why.empty()) {
            out.fail(corpus[i].name + ": " + why);
            continue;
        }
        gates += r.compiled.counts().cx_equivalent();
        depth += r.compiled.num_timesteps;
        ideal_depth += decomposed_reference(last.programs[i], opts).depth();
    }
    out.note("checks: " + std::to_string(corpus.size()) +
             " schedules replayed (MID reach, site exclusivity, zone "
             "disjointness, gates preserved, QASM re-parse); " +
             std::to_string(batches) + " batches output-identical");

    if (!cfg.trace) {
        out.note("corpus: batches=" + std::to_string(wall_s.size()) +
                 " batch_s min/median/max=" +
                 std::to_string(quantile(wall_s, 0.0)) + "/" +
                 std::to_string(median(wall_s)) + "/" +
                 std::to_string(quantile(wall_s, 1.0)) + " programs/s=" +
                 std::to_string(double(corpus.size()) / median(wall_s)) +
                 "; per-program compile ms (each its median over "
                 "batches) p50=" +
                 std::to_string(item_quantile(program_ms, 0.50)) +
                 " p99=" + std::to_string(item_quantile(program_ms, 0.99)));
        out.set("setup_s", median(setup_s), "s");
        out.set("wall_s", median(wall_s), "s");
        out.set("gates", double(gates), "count");
        out.set("depth", double(depth), "count");
        out.set("overhead_s",
                double(depth - std::min(depth, ideal_depth)) *
                    naq::TimeModel{}.gate_time_s,
                "s");
        out.set("peak_rss_mb", rss_mb, "MB");
        return out;
    }

    // ----------------------------------------------- per-layer metrics
    std::vector<double> analysis_s;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        const naq::DeviceAnalysis an(topo, kMid);
        analysis_s.push_back(seconds_between(t0, Clock::now()));
    }
    // Pool layer: the batch on nproc workers, markers on; each batch's
    // compile_all region is accounted from its program spans.
    std::vector<PoolAccount> pools;
    const unsigned pool_workers =
        unsigned(std::min<size_t>(nproc(), corpus.size()));
    {
        naq::CompilerOptions popts = opts;
        popts.jobs = pool_workers;
        naq::Compiler c = naq::Compiler::for_device(topo);
        c.with(popts);
        add_stage_marks(c, marks);
        c.prepare();
        for (int k = 0; k < kPoolBatches; ++k) {
            marks.reset(corpus.size());
            Batch b;
            run_batch(corpus, c, false, b);
            check_outputs(b, "pool batch " + std::to_string(k + 1));
            const uint64_t region = spans.next_id();
            const std::vector<Span> programs =
                program_spans(marks, "pool.program", region, spans);
            for (const Span &p : programs)
                spans.add(p.name, region, p.item, p.worker, p.start_ns,
                          p.end_ns, p.id);
            spans.add("pool.compile_all", 0, 0, 0, b.t_parsed, b.t_compiled,
                      region);
            pools.push_back(account_pool(programs, b.t_parsed, b.t_compiled,
                                         pool_workers));
        }
    }
    // Per-batch means over the traced batches; self times come from the
    // span tree (duration minus child spans), so the layers, pool idle
    // and the remainder add up to the traced wall time.
    const double n = double(traced_wall_s.size());
    const double parse_s = spans.self_seconds("qasm.parse") / n;
    const double emit_s = spans.self_seconds("qasm.emit") / n;
    const double decompose_s = spans.self_seconds("decompose") / n;
    const double map_s = spans.self_seconds("map") / n;
    const double route_s = spans.self_seconds("route") / n;
    const double idle_s = mean_of(regions, &PoolAccount::idle_s);
    double wall = 0.0;
    for (double w : traced_wall_s)
        wall += w / n;
    const double remainder_s =
        wall - parse_s - emit_s -
        (decompose_s + map_s + route_s + idle_s) / double(workers);
    double parse_bytes = 0, emit_bytes = 0, routed_gates = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
        parse_bytes += double(corpus[i].qasm.size());
        emit_bytes += double(last.emitted[i].size());
        routed_gates += double(last.results[i].compiled.schedule.size());
    }
    out.set("qasm.parse_s", parse_s, "s");
    out.set("qasm.parse_mb_s", parse_bytes / 1e6 / std::max(parse_s, 1e-12),
            "MB/s");
    out.set("qasm.emit_s", emit_s, "s");
    out.set("qasm.emit_mb_s", emit_bytes / 1e6 / std::max(emit_s, 1e-12),
            "MB/s");
    out.set("decompose.self_s", decompose_s, "s");
    out.set("map.self_s", map_s, "s");
    out.set("route.self_s", route_s, "s");
    out.set("route.ns_per_gate", route_s * 1e9 / std::max(routed_gates, 1.0),
            "ns");
    out.set("analysis.build_s", median(analysis_s), "s");
    out.set("pool.busy_ratio", mean_of(pools, &PoolAccount::busy_ratio),
            "ratio");
    out.set("pool.tail_s", mean_of(pools, &PoolAccount::tail_s), "s");
    out.set("pool.idle_s", mean_of(pools, &PoolAccount::idle_s), "s");
    measure_serve_layer(cfg, spans, out);
    out.set("trace.wall_s", wall, "s");
    out.set("trace.remainder_s", remainder_s, "s");
    out.set("trace.overhead_s", median(traced_wall_s) - median(wall_s), "s");
    out.note("accounting (mean traced batch, wall-equivalent s): wall " +
             std::to_string(wall) + " = parse " + std::to_string(parse_s) +
             " + emit " + std::to_string(emit_s) + " + (decompose " +
             std::to_string(decompose_s) + " + map " +
             std::to_string(map_s) + " + route " + std::to_string(route_s) +
             " + compile_all idle " + std::to_string(idle_s) + ") / " +
             std::to_string(workers) + " worker + remainder " +
             std::to_string(remainder_s) + "; pool on " +
             std::to_string(pool_workers) + " workers: busy ratio " +
             std::to_string(mean_of(pools, &PoolAccount::busy_ratio)) +
             ", tail " + std::to_string(mean_of(pools, &PoolAccount::tail_s)) +
             " s");
    return out;
}

} // namespace naqbench
