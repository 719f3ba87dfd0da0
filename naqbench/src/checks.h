/**
 * @file
 * Output checks, independent of the code under test: every verdict
 * here is computed by replaying the compiler's output against the
 * device model (`GridTopology` distances, Euclidean `make_zone` /
 * `zones_conflict`), never by asking the router or the pipeline.
 * All checks run outside the timed sections.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "core/compiled_circuit.h"
#include "core/options.h"
#include "topology/grid.h"

namespace naqbench {

/**
 * Replay a schedule timestep by timestep: interactions within the MID,
 * no site used twice in one timestep, restriction zones pairwise
 * disjoint, every site on the device and active. Empty on success,
 * else the first violation.
 */
std::string check_schedule(const naq::CompiledCircuit &compiled,
                           const naq::GridTopology &topo,
                           const naq::CompilerOptions &opts);

/**
 * `logical` as decomposition leaves it under `opts` (multi-qubit gates
 * the MID cannot host natively are broken down); throws when the
 * decomposition fails. Its `depth()` is the dependency-limited depth a
 * schedule of the program cannot beat.
 */
naq::Circuit decomposed_reference(const naq::Circuit &logical,
                                  const naq::CompilerOptions &opts);

/**
 * The non-routing scheduled gates, mapped back to program qubits by
 * replaying the routing SWAPs from the initial mapping, are exactly the
 * gates of the decomposed input, in the input's order on every qubit;
 * and the replayed mapping ends at `final_mapping`. Empty on success.
 */
std::string check_gates_preserved(const naq::Circuit &logical,
                                  const naq::CompiledCircuit &compiled,
                                  const naq::CompilerOptions &opts);

/**
 * Emitted OpenQASM re-parses, into as many gates as the schedule
 * flattens to (CCZ is emitted as three statements). Empty on success.
 */
std::string check_reparse(const std::string &qasm,
                          const naq::CompiledCircuit &compiled);

/** A parsed JSON value (the serve responses are read with this). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    /** Field `key` of an object, or nullptr. */
    const JsonValue *get(const std::string &key) const;
};

/** Parse one JSON document; false with `error` set on malformed text. */
bool parse_json(const std::string &text, JsonValue &out,
                std::string &error);

} // namespace naqbench
