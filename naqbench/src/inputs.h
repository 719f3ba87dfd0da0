/**
 * @file
 * Seeded input generators: nothing is downloaded, and one seed always
 * names the same inputs. Each generator also yields the digest the
 * binary prints, so two runs can show they used identical inputs.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace naqbench {

/** One OpenQASM file of the generated corpus. */
struct CorpusFile
{
    std::string name; ///< "<tier>/<program>_n<qubits>.qasm"
    std::string qasm;
};

/**
 * A QASMBench-shaped corpus in QASMBench order (tier by tier, file
 * names sorted within a tier): small (<= 10 qubits), medium (11-64)
 * and large (~100-260) programs from the registry generators at many
 * sizes, every QAOA program on a fresh graph drawn from `seed`.
 * Duplicate programs are dropped, so every file is unique.
 */
std::vector<CorpusFile> make_corpus(uint64_t seed, bool tiny);

/** What the server must answer for a request. */
enum class Expect
{
    Ok,
    BadRequest,  ///< Malformed request line.
    ParseError,  ///< Well-formed request, QASM that must not parse.
};

struct ServeRequest
{
    std::string id;
    std::string line; ///< The request line, without the newline.
    Expect expect = Expect::Ok;
    /** Identity of the program text (equal texts share a memo key). */
    uint64_t program = 0;
};

/**
 * The serve mix: about half from a small hot set of registry programs
 * (memo hits after their first compile), the rest fresh small-to-
 * medium programs with a unique rotation angle (memo misses), and a
 * few percent that must be refused — malformed lines and QASM parse
 * errors. The composition is fixed and the seed draws the order, the
 * QAOA graphs and the angles, so every seed offers the same work.
 * `prefix` names the ids ("o17").
 */
std::vector<ServeRequest> make_serve_requests(uint64_t seed, size_t count,
                                              const std::string &prefix,
                                              bool tiny);

/**
 * One request per hot-set program: a long-running server's memo is
 * warm, so the timed phases start after these are answered.
 */
std::vector<ServeRequest> make_warmup_requests(uint64_t seed, bool tiny);

/** Poisson arrival offsets (seconds from phase start) at `rate`/s. */
std::vector<double> make_arrivals(uint64_t seed, size_t count,
                                  double rate);

/**
 * The loss-coping grid's programs: the five benchmarks at sizes 20, 25
 * and 30 as OpenQASM files ("<program>_n<qubits>.qasm"). They do not
 * depend on the seed — one fixed QAOA graph — so the grid's gate and
 * depth sums are the same for every seed and only the shot loops vary.
 */
std::vector<CorpusFile> make_loss_programs(bool tiny);

/**
 * The loss-coping grid in the `naqc sweep` spec-file format over the
 * programs written to `qasm_dir`: MID {3, 4} x all six strategies x 2
 * trials on a 10x10 device, 100-shot loops, memo on, `jobs` workers;
 * `seed` is the master seed every point's shot seed derives from.
 */
std::string make_loss_spec(uint64_t seed, unsigned jobs, bool tiny,
                           const std::string &qasm_dir);

} // namespace naqbench
