#include "stages.h"

#include <memory>
#include <utility>

#include "bench.h"
#include "util/thread_pool.h"

namespace naqbench {

namespace {

class StageMark final : public naq::Pass
{
  public:
    StageMark(const char *name, int stage, StageMarks &marks)
        : name_(name), stage_(stage), marks_(marks)
    {
    }

    std::string_view name() const override { return name_; }

    void
    run(naq::CompileContext &ctx) override
    {
        size_t i = 0;
        if (!marks_.slot.empty()) {
            // Const access: a mutable circuit() would bump the revision
            // and make routing rebuild the DAG.
            const auto it =
                marks_.slot.find(std::as_const(ctx).circuit().name());
            if (it == marks_.slot.end())
                return;
            i = it->second;
        }
        marks_.at[i][stage_] = now_ns();
        if (stage_ == 0)
            marks_.worker[i] = naq::ThreadPool::current_worker_id();
    }

  private:
    const char *name_;
    int stage_;
    StageMarks &marks_;
};

} // namespace

void
add_stage_marks(naq::Compiler &compiler, StageMarks &marks)
{
    compiler.add_pass(std::make_shared<StageMark>("mark.entry", 0, marks),
                      naq::PassSlot::Source);
    compiler.add_pass(
        std::make_shared<StageMark>("mark.decomposed", 1, marks),
        naq::PassSlot::PreMapping);
    compiler.add_pass(std::make_shared<StageMark>("mark.placed", 2, marks),
                      naq::PassSlot::PreRouting);
    compiler.add_pass(std::make_shared<StageMark>("mark.routed", 3, marks),
                      naq::PassSlot::Emit);
}

} // namespace naqbench
