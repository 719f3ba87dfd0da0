/**
 * @file
 * Benchmark-owned marker passes spliced at the four public `PassSlot`s
 * of a `Compiler`: they timestamp each program on entry, after
 * decomposition, after placement and after routing, and note the pool
 * worker that ran it — per-program decompose/map/route spans taken
 * from inside the library's own pipeline without touching it.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"

namespace naqbench {

/** Stage timestamps (`now_ns`) per program slot. */
struct StageMarks
{
    /** Circuit name -> slot; when empty every compile uses slot 0. */
    std::unordered_map<std::string, size_t> slot;
    /** Entry, decomposed, placed, routed; 0 = not reached. */
    std::vector<std::array<int64_t, 4>> at;
    std::vector<unsigned> worker;

    void
    reset(size_t slots)
    {
        at.assign(slots, {0, 0, 0, 0});
        worker.assign(slots, 0);
    }

    /** True when slot `i` ran all four stages. */
    bool complete(size_t i) const { return at[i][0] != 0 && at[i][3] != 0; }
};

/**
 * Splice the four marker passes into `compiler`. Concurrent compiles
 * must use distinct slots (each slot is written by one thread only).
 */
void add_stage_marks(naq::Compiler &compiler, StageMarks &marks);

} // namespace naqbench
