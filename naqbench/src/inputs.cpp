#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.h"
#include "benchmarks/benchmarks.h"
#include "qasm/qasm.h"

namespace naqbench {

namespace {

using naq::benchmarks::Kind;

const char *
short_name(Kind kind)
{
    switch (kind) {
      case Kind::BV: return "bv";
      case Kind::CNU: return "cnu";
      case Kind::Cuccaro: return "cuccaro";
      case Kind::QFTAdder: return "qftadder";
      case Kind::QAOA: return "qaoa";
    }
    return "?";
}

struct TierSpec
{
    const char *tier;
    Kind kind;
    std::vector<size_t> sizes;
};

/**
 * The corpus shape. Sizes are fixed so every seed compiles a corpus of
 * the same scale; the seed draws the QAOA graphs. The large tier is
 * sized so its largest program is about a fifth of the sequential
 * compile time of the whole corpus: big enough that pool scheduling
 * shows, small enough not to pin the batch's wall time.
 */
std::vector<TierSpec>
corpus_shape(bool tiny)
{
    const std::vector<size_t> small{4, 5, 6, 7, 8, 9, 10};
    const std::vector<size_t> medium{12, 16, 20, 24, 32, 40, 48, 64};
    if (tiny) {
        return {{"small", Kind::BV, {4, 6}},
                {"small", Kind::QAOA, {6, 8}},
                {"medium", Kind::Cuccaro, {12}},
                {"medium", Kind::QFTAdder, {12}}};
    }
    std::vector<TierSpec> shape;
    for (Kind kind : naq::benchmarks::all_kinds()) {
        shape.push_back({"small", kind, small});
        shape.push_back({"medium", kind, medium});
    }
    shape.push_back({"large", Kind::BV, {128, 192, 256}});
    shape.push_back({"large", Kind::CNU, {128, 192, 256}});
    shape.push_back({"large", Kind::Cuccaro, {130, 194, 258}});
    shape.push_back({"large", Kind::QFTAdder, {96, 112, 128, 144}});
    shape.push_back({"large", Kind::QAOA, {100, 140, 180, 220, 260}});
    return shape;
}

const std::vector<std::string> &
tier_order()
{
    static const std::vector<std::string> order{"small", "medium",
                                                "large"};
    return order;
}

} // namespace

std::vector<CorpusFile>
make_corpus(uint64_t seed, bool tiny)
{
    InputRng rng(seed ^ 0xc0c0c0c0c0c0c0c0ull);
    std::vector<CorpusFile> files;
    std::set<uint64_t> seen;
    for (const std::string &tier : tier_order()) {
        std::vector<CorpusFile> in_tier;
        for (const TierSpec &spec : corpus_shape(tiny)) {
            if (spec.tier != tier)
                continue;
            for (size_t size : spec.sizes) {
                if (size < naq::benchmarks::kind_min_size(spec.kind))
                    continue;
                const naq::Circuit program =
                    naq::benchmarks::make(spec.kind, size, rng.next());
                std::string text = naq::write_qasm(program);
                if (!seen.insert(fnv1a(text)).second)
                    continue; // Same program as a smaller size request.
                in_tier.push_back(
                    {tier + "/" + short_name(spec.kind) + "_n" +
                         std::to_string(program.num_qubits()) + ".qasm",
                     std::move(text)});
            }
        }
        std::sort(in_tier.begin(), in_tier.end(),
                  [](const CorpusFile &a, const CorpusFile &b) {
                      return a.name < b.name;
                  });
        for (CorpusFile &f : in_tier)
            files.push_back(std::move(f));
    }
    return files;
}

namespace {

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 16);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
request_line(const std::string &id, const std::string &qasm)
{
    return "{\"id\":\"" + id + "\",\"qasm\":\"" + json_escape(qasm) +
           "\"}";
}

struct Shape
{
    Kind kind;
    size_t size;
};

/** Every (kind, size) pair of `sizes` that the kind accepts. */
std::vector<Shape>
shapes(const std::vector<size_t> &sizes)
{
    std::vector<Shape> out;
    for (Kind kind : naq::benchmarks::all_kinds())
        for (size_t size : sizes)
            if (size >= naq::benchmarks::kind_min_size(kind))
                out.push_back({kind, size});
    return out;
}

template <typename T>
void
shuffle(std::vector<T> &v, InputRng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.between(0, i - 1)]);
}

/**
 * The hot set: registry programs at a few small sizes. It depends on
 * the seed alone, so every phase of a run shares it; QAOA members get
 * seeded graphs.
 */
std::vector<std::string>
hot_programs(uint64_t seed, bool tiny)
{
    InputRng rng(seed ^ 0x5e5e5e5e5e5e5e5eull);
    std::vector<std::string> hot;
    for (const Shape &s : shapes(tiny ? std::vector<size_t>{8}
                                      : std::vector<size_t>{8, 12, 16, 20}))
        hot.push_back(naq::write_qasm(
            naq::benchmarks::make(s.kind, s.size, rng.next())));
    return hot;
}

} // namespace

std::vector<ServeRequest>
make_warmup_requests(uint64_t seed, bool tiny)
{
    std::vector<ServeRequest> out;
    for (const std::string &qasm : hot_programs(seed, tiny)) {
        ServeRequest r;
        r.id = "w" + std::to_string(out.size());
        r.line = request_line(r.id, qasm);
        r.program = fnv1a(qasm);
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<ServeRequest>
make_serve_requests(uint64_t seed, size_t count, const std::string &prefix,
                    bool tiny)
{
    const std::vector<std::string> hot = hot_programs(seed, tiny);

    // Fixed composition, seeded order: 2% malformed lines, 2% QASM
    // parse errors, ~56% fresh programs covering every fresh shape
    // equally often, the rest (~40%) hot. Fast replies (hits and
    // refusals) stay below half, so the median falls inside the
    // compile-time distribution rather than on the edge between them.
    // Only the order, the QAOA graphs and the unique angles change with
    // the seed, so every seed offers the same amount of work.
    enum Slot : uint8_t { Bad, ParseErr, Fresh, Hot };
    const std::vector<Shape> fresh_shapes = shapes(
        tiny ? std::vector<size_t>{10, 12}
             : std::vector<size_t>{10, 12, 14, 16, 18, 20, 22, 24, 26, 28,
                                   30, 32, 34, 36, 38, 40});
    const size_t refusals = count / 50;
    const size_t rounds = size_t(0.56 * double(count)) / fresh_shapes.size();
    const size_t fresh = rounds > 0 ? rounds * fresh_shapes.size()
                                    : size_t(0.56 * double(count));
    std::vector<Slot> slots(count, Hot);
    for (size_t i = 0; i < refusals; ++i)
        slots[i] = Bad, slots[refusals + i] = ParseErr;
    for (size_t i = 0; i < fresh; ++i)
        slots[2 * refusals + i] = Fresh;
    InputRng rng(seed ^ fnv1a(prefix));
    shuffle(slots, rng);
    std::vector<Shape> fresh_order;
    for (size_t i = 0; i < fresh; ++i)
        fresh_order.push_back(fresh_shapes[i % fresh_shapes.size()]);
    shuffle(fresh_order, rng);

    std::vector<ServeRequest> out;
    out.reserve(count);
    size_t next_fresh = 0;
    for (size_t i = 0; i < count; ++i) {
        ServeRequest r;
        r.id = prefix + std::to_string(i);
        switch (slots[i]) {
          case Bad: {
            // Malformed but id-bearing lines, so the refusal can still
            // be matched to its request.
            static const char *const forms[] = {
                "{\"id\":\"%s\",\"qasm\":\"OPENQASM 2.0;\",\"priority\":1}",
                "{\"id\":\"%s\",\"qasm\":42}",
                "{\"id\":\"%s\"}",
                "{\"id\":\"%s\",\"qasm\":\"x\",\"in\":\"y.qasm\"}",
            };
            char buf[160];
            std::snprintf(buf, sizeof buf, forms[rng.between(0, 3)],
                          r.id.c_str());
            r.line = buf;
            r.expect = Expect::BadRequest;
            break;
          }
          case ParseErr: {
            const std::string qasm =
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n"
                "h q[0];\ncx q[0], q[1];\nnot_a_gate_" +
                std::to_string(rng.next() % 1000000) + " q[2];\n";
            r.line = request_line(r.id, qasm);
            r.expect = Expect::ParseError;
            r.program = fnv1a(qasm);
            break;
          }
          case Fresh: {
            // A unique trailing rotation makes every fresh program a
            // distinct memo key, as parameterized workloads are.
            const Shape &s = fresh_order[next_fresh++];
            naq::Circuit program =
                naq::benchmarks::make(s.kind, s.size, rng.next());
            program.add(naq::Gate::rz(
                naq::QubitId(rng.between(0, program.num_qubits() - 1)),
                1e-3 * double(rng.next() % 1000000 + 1)));
            const std::string qasm = naq::write_qasm(program);
            r.line = request_line(r.id, qasm);
            r.program = fnv1a(qasm);
            break;
          }
          case Hot: {
            const std::string &qasm = hot[rng.between(0, hot.size() - 1)];
            r.line = request_line(r.id, qasm);
            r.program = fnv1a(qasm);
                break;
          }
        }
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<double>
make_arrivals(uint64_t seed, size_t count, double rate)
{
    InputRng rng(seed ^ 0xa771a771a771a771ull);
    std::vector<double> due(count);
    double t = 0.0;
    for (size_t i = 0; i < count; ++i) {
        t += rng.exponential(rate);
        due[i] = t;
    }
    return due;
}

std::vector<CorpusFile>
make_loss_programs(bool tiny)
{
    std::vector<CorpusFile> files;
    for (Kind kind : naq::benchmarks::all_kinds()) {
        if (tiny && kind != Kind::BV && kind != Kind::QAOA)
            continue;
        for (size_t size : tiny ? std::vector<size_t>{10}
                                : std::vector<size_t>{20, 25, 30}) {
            // The paper's arXiv date as the fixed QAOA graph seed.
            const naq::Circuit program =
                naq::benchmarks::make(kind, size, 20211111);
            files.push_back({std::string(short_name(kind)) + "_n" +
                                 std::to_string(program.num_qubits()) +
                                 ".qasm",
                             naq::write_qasm(program)});
        }
    }
    return files;
}

std::string
make_loss_spec(uint64_t seed, unsigned jobs, bool tiny,
               const std::string &qasm_dir)
{
    std::string spec = "name = naqbench-loss-sweep\n"
                       "seed = " + std::to_string(seed) + "\n" +
                       "jobs = " + std::to_string(jobs) + "\n" +
                       "rows = 10\ncols = 10\nmemo = 256\n" +
                       "qasm = " + qasm_dir + "/*.qasm\n";
    if (tiny) {
        spec += "shots = 20\nmid = 3\n"
                "strategy = reload, recompile, reroute\ntrial = 2\n";
    } else {
        // 100 shots: a grid takes ~2 s on one worker, so a run times
        // about twenty grids.
        spec += "shots = 100\nmid = 3, 4\n"
                "strategy = reload, recompile, remap, reroute, small, "
                "small+reroute\ntrial = 2\n";
    }
    return spec;
}

} // namespace naqbench
