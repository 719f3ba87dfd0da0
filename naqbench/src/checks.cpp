#include "checks.h"

#include <algorithm>
#include <cstring>
#include <exception>

#include "bench.h"
#include "decompose/decompose.h"
#include "qasm/qasm.h"
#include "topology/zone.h"

namespace naqbench {

using naq::CompiledCircuit;
using naq::Gate;
using naq::GateKind;
using naq::ScheduledGate;
using naq::Site;

std::string
check_schedule(const CompiledCircuit &compiled,
               const naq::GridTopology &topo,
               const naq::CompilerOptions &opts)
{
    std::vector<std::vector<const ScheduledGate *>> steps(
        compiled.num_timesteps);
    for (const ScheduledGate &sg : compiled.schedule) {
        if (sg.timestep >= compiled.num_timesteps)
            return "gate at timestep " + std::to_string(sg.timestep) +
                   " past the schedule end";
        for (Site s : sg.gate.qubits) {
            if (s >= topo.num_sites() || !topo.is_active(s))
                return "gate on missing or inactive site " +
                       std::to_string(s);
        }
        steps[sg.timestep].push_back(&sg);
    }
    std::vector<uint8_t> busy(topo.num_sites(), 0);
    for (size_t t = 0; t < steps.size(); ++t) {
        std::fill(busy.begin(), busy.end(), 0);
        std::vector<naq::RestrictionZone> zones;
        for (const ScheduledGate *sg : steps[t]) {
            const std::string where = " at timestep " + std::to_string(t) +
                                      " (" + sg->gate.to_string() + ")";
            if (sg->gate.is_interaction() &&
                !topo.within_distance(sg->gate.qubits,
                                      opts.max_interaction_distance))
                return "interaction beyond the MID" + where;
            for (Site s : sg->gate.qubits) {
                if (busy[s])
                    return "site " + std::to_string(s) + " used twice" +
                           where;
                busy[s] = 1;
            }
            naq::RestrictionZone zone =
                naq::make_zone(topo, sg->gate.qubits, opts.zone);
            for (const naq::RestrictionZone &other : zones) {
                if (naq::zones_conflict(topo, other, zone))
                    return "restriction zones overlap" + where;
            }
            zones.push_back(std::move(zone));
        }
    }
    return "";
}

namespace {

/** Identity of one gate over program qubits (kind, operands, angle). */
uint64_t
gate_key(GateKind kind, const std::vector<naq::QubitId> &qubits,
         double param)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &param, sizeof bits);
    std::string raw;
    raw.push_back(char(kind));
    for (naq::QubitId q : qubits)
        raw.append(reinterpret_cast<const char *>(&q), sizeof q);
    raw.append(reinterpret_cast<const char *>(&bits), sizeof bits);
    return fnv1a(raw);
}

} // namespace

naq::Circuit
decomposed_reference(const naq::Circuit &logical,
                     const naq::CompilerOptions &opts)
{
    const size_t arity = logical.max_arity();
    if (arity >= 3 &&
        (!opts.native_multiqubit ||
         naq::min_distance_for_arity(arity) >
             opts.max_interaction_distance + naq::kDistanceEps))
        return naq::decompose_multiqubit(logical);
    return logical;
}

std::string
check_gates_preserved(const naq::Circuit &logical,
                      const CompiledCircuit &compiled,
                      const naq::CompilerOptions &opts)
{
    naq::Circuit reference;
    try {
        reference = decomposed_reference(logical, opts);
    } catch (const std::exception &e) {
        return std::string("reference decomposition failed: ") + e.what();
    }
    const size_t width = reference.num_qubits();
    if (compiled.initial_mapping.size() != width ||
        compiled.final_mapping.size() != width)
        return "mapping width differs from the program width";

    std::vector<std::vector<uint64_t>> expected(width), got(width);
    for (const Gate &g : reference.gates()) {
        if (g.kind == GateKind::Barrier)
            continue;
        const uint64_t key = gate_key(g.kind, g.qubits, g.param);
        for (naq::QubitId q : g.qubits)
            expected[q].push_back(key);
    }

    std::vector<const ScheduledGate *> order;
    order.reserve(compiled.schedule.size());
    for (const ScheduledGate &sg : compiled.schedule)
        order.push_back(&sg);
    std::stable_sort(order.begin(), order.end(),
                     [](const ScheduledGate *a, const ScheduledGate *b) {
                         return a->timestep < b->timestep;
                     });

    std::vector<int64_t> occupant(compiled.num_sites, -1);
    for (size_t q = 0; q < width; ++q) {
        const Site s = compiled.initial_mapping[q];
        if (s >= compiled.num_sites || occupant[s] != -1)
            return "initial mapping is not injective onto the device";
        occupant[s] = int64_t(q);
    }
    std::vector<naq::QubitId> program_qubits;
    for (const ScheduledGate *sg : order) {
        const Gate &g = sg->gate;
        for (Site s : g.qubits) {
            if (s >= compiled.num_sites)
                return "scheduled gate on a site past the device";
        }
        if (g.is_routing) {
            if (g.kind != GateKind::Swap || g.arity() != 2)
                return "routing gate that is not a SWAP";
            std::swap(occupant[g.qubits[0]], occupant[g.qubits[1]]);
            continue;
        }
        program_qubits.clear();
        for (Site s : g.qubits) {
            if (occupant[s] < 0)
                return "gate " + g.to_string() + " on an empty site";
            program_qubits.push_back(naq::QubitId(occupant[s]));
        }
        const uint64_t key = gate_key(g.kind, program_qubits, g.param);
        for (naq::QubitId q : program_qubits)
            got[q].push_back(key);
    }
    for (size_t q = 0; q < width; ++q) {
        if (occupant[compiled.final_mapping[q]] != int64_t(q))
            return "final mapping disagrees with the SWAP replay for "
                   "qubit " + std::to_string(q);
        if (expected[q] != got[q])
            return "gates on qubit " + std::to_string(q) +
                   " differ from the decomposed input (" +
                   std::to_string(got[q].size()) + " scheduled vs " +
                   std::to_string(expected[q].size()) + " expected)";
    }
    return "";
}

std::string
check_reparse(const std::string &qasm, const CompiledCircuit &compiled)
{
    size_t expected = 0;
    for (const ScheduledGate &sg : compiled.schedule)
        expected += sg.gate.kind == GateKind::CCZ ? 3 : 1;
    try {
        const naq::Circuit back = naq::read_qasm(qasm);
        if (back.size() != expected)
            return "re-parsed " + std::to_string(back.size()) +
                   " gates, schedule has " + std::to_string(expected);
    } catch (const std::exception &e) {
        return std::string("emitted QASM does not re-parse: ") + e.what();
    }
    return "";
}

// ------------------------------------------------------------------ JSON

const JsonValue *
JsonValue::get(const std::string &key) const
{
    for (const auto &[k, v] : fields) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

struct Reader
{
    const std::string &s;
    size_t pos = 0;
    std::string error;

    bool
    fail(const char *what)
    {
        if (error.empty())
            error = std::string(what) + " at offset " + std::to_string(pos);
        return false;
    }

    void
    ws()
    {
        while (pos < s.size() && std::strchr(" \t\r\n", s[pos]) &&
               s[pos] != '\0')
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (s.compare(pos, n, word) != 0)
            return fail("bad literal");
        pos += n;
        return true;
    }

    static void
    utf8(unsigned long cp, std::string &out)
    {
        if (cp < 0x80) {
            out.push_back(char(cp));
        } else if (cp < 0x800) {
            out.push_back(char(0xc0 | (cp >> 6)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out.push_back(char(0xe0 | (cp >> 12)));
            out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(char(0xf0 | (cp >> 18)));
            out.push_back(char(0x80 | ((cp >> 12) & 0x3f)));
            out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(char(0x80 | (cp & 0x3f)));
        }
    }

    bool
    hex4(unsigned long &cp)
    {
        if (pos + 4 > s.size())
            return fail("short \\u escape");
        cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = s[pos++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= unsigned(c - 'A' + 10);
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return fail("expected string");
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            const char c = s[pos++];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= s.size())
                return fail("dangling escape");
            const char e = s[pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                unsigned long cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xd800 && cp < 0xdc00 && pos + 1 < s.size() &&
                    s[pos] == '\\' && s[pos + 1] == 'u') {
                    pos += 2;
                    unsigned long lo = 0;
                    if (!hex4(lo))
                        return false;
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                }
                utf8(cp, out);
                break;
              }
              default: return fail("unknown escape");
            }
        }
        if (pos >= s.size())
            return fail("unterminated string");
        ++pos;
        return true;
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > 16)
            return fail("nesting too deep");
        ws();
        if (pos >= s.size())
            return fail("unexpected end");
        const char c = s[pos];
        if (c == '{') {
            out.kind = JsonValue::Kind::Object;
            ++pos;
            ws();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                ws();
                std::string key;
                if (!string(key))
                    return false;
                ws();
                if (pos >= s.size() || s[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                JsonValue v;
                if (!value(v, depth + 1))
                    return false;
                out.fields.emplace_back(std::move(key), std::move(v));
                ws();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            out.kind = JsonValue::Kind::Array;
            ++pos;
            ws();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!value(v, depth + 1))
                    return false;
                out.items.push_back(std::move(v));
                ws();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.text);
        }
        if (c == 't' || c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = c == 't';
            return literal(c == 't' ? "true" : "false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        char *end = nullptr;
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(s.c_str() + pos, &end);
        if (end == s.c_str() + pos)
            return fail("bad value");
        pos = size_t(end - s.c_str());
        return true;
    }
};

} // namespace

bool
parse_json(const std::string &text, JsonValue &out, std::string &error)
{
    Reader r{text, 0, {}};
    out = JsonValue{};
    if (!r.value(out, 0)) {
        error = r.error;
        return false;
    }
    r.ws();
    if (r.pos != text.size()) {
        error = "trailing text at offset " + std::to_string(r.pos);
        return false;
    }
    return true;
}

} // namespace naqbench
