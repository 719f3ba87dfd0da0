#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

namespace naqbench {

namespace {

const Clock::time_point g_start = Clock::now();

} // namespace

double
seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_start)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * double(v.size()));
    const size_t idx = rank < 1.0 ? 0 : size_t(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
item_quantile(const std::vector<std::vector<double>> &runs, double q)
{
    if (runs.empty())
        return 0.0;
    std::vector<double> per_item(runs.front().size());
    std::vector<double> samples(runs.size());
    for (size_t i = 0; i < per_item.size(); ++i) {
        for (size_t r = 0; r < runs.size(); ++r)
            samples[r] = runs[r][i];
        per_item[i] = median(samples);
    }
    return quantile(std::move(per_item), q);
}

uint64_t
fnv1a(std::string_view s, uint64_t h)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
InputRng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
InputRng::uniform()
{
    return double(next() >> 11) * 0x1.0p-53;
}

uint64_t
InputRng::between(uint64_t lo, uint64_t hi)
{
    return lo + next() % (hi - lo + 1);
}

double
InputRng::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

unsigned
nproc()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n < 1 ? 1u : unsigned(n);
}

void
Outcome::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

void
Outcome::set(const std::string &name, double value,
             const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

uint64_t
SpanLog::next_id()
{
    std::lock_guard<std::mutex> lock(mu_);
    return next_++;
}

uint64_t
SpanLog::add(const char *name, uint64_t parent, uint64_t item,
             unsigned worker, int64_t start_ns, int64_t end_ns,
             uint64_t id)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0)
        id = next_++;
    spans_.push_back({name, id, parent, item, worker, start_ns, end_ns});
    return id;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

double
SpanLog::self_seconds(std::string_view name) const
{
    const std::vector<Span> all = spans();
    std::unordered_map<uint64_t, double> child_s;
    for (const Span &s : all) {
        if (s.parent != 0)
            child_s[s.parent] += s.seconds();
    }
    double total = 0.0;
    for (const Span &s : all) {
        if (name != s.name)
            continue;
        const auto it = child_s.find(s.id);
        total += s.seconds() - (it == child_s.end() ? 0.0 : it->second);
    }
    return total;
}

bool
SpanLog::write(const std::string &path,
               const std::string &header_json) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"header\":%s,\"spans\":[\n", header_json.c_str());
    const std::vector<Span> all = spans();
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"item\":%llu,\"worker\":%u,\"start_ns\":%lld,"
                     "\"end_ns\":%lld}%s\n",
                     s.name, (unsigned long long)s.id,
                     (unsigned long long)s.parent,
                     (unsigned long long)s.item, s.worker,
                     (long long)s.start_ns, (long long)s.end_ns,
                     i + 1 < all.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

PoolAccount
account_pool(const std::vector<Span> &items, int64_t start_ns,
             int64_t end_ns, unsigned workers)
{
    PoolAccount acc;
    const double region_s = double(end_ns - start_ns) * 1e-9;
    std::map<unsigned, std::vector<const Span *>> by_worker;
    for (const Span &s : items)
        by_worker[s.worker].push_back(&s);
    int64_t first_dry = end_ns;
    for (auto &[worker, spans] : by_worker) {
        std::sort(spans.begin(), spans.end(),
                  [](const Span *a, const Span *b) {
                      return a->start_ns < b->start_ns;
                  });
        for (const Span *s : spans)
            acc.busy_s += s->seconds();
        acc.idle_s +=
            double(spans.front()->start_ns - start_ns) * 1e-9 +
            double(end_ns - spans.back()->end_ns) * 1e-9;
        first_dry = std::min(first_dry, spans.back()->end_ns);
    }
    // Workers that never claimed an item idled through the region.
    if (by_worker.size() < workers) {
        acc.idle_s += double(workers - by_worker.size()) * region_s;
        first_dry = start_ns;
    }
    acc.tail_s = double(end_ns - first_dry) * 1e-9;
    acc.busy_ratio =
        region_s > 0.0 ? acc.busy_s / (region_s * double(workers)) : 0.0;
    return acc;
}

} // namespace naqbench
