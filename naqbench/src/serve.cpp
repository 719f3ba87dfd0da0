/**
 * @file
 * The serve layer, measured in the corpus workload's traced run: one
 * `serve::Server` with its defaults (16x16 device, MID 3, memo on) fed
 * through pipes, with kTimedWorkers (one) compile worker and one client
 * thread that sleeps in ppoll() between sends and replies.
 *
 * After an untimed warm-up of the hot set, requests arrive open loop:
 * Poisson arrivals at one fixed offered rate (see kOpenRate), each
 * request timed from its due time to the moment its response is read,
 * so a stall also charges the requests queued behind it. The mix: ~40%
 * hot-set programs (memo hits), the rest fresh programs (misses), a few
 * percent refusals. `serve` is not a workload of its own: across ten
 * seeds its times spread up to 0.26 (IQR over median) on a 4-vCPU VM,
 * past the bound BENCHMARK.json allows.
 */
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "checks.h"
#include "inputs.h"
#include "qasm/qasm.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace naqbench {

namespace {

/**
 * Offered rate of the open-loop phase (requests per second), fixed:
 * about a third of the one-worker server's closed-loop rate on a 4-vCPU
 * host (1,200-1,700/s), so a slow spell of the host does not fill the
 * 64-deep admission queue and shed requests, which fails the run.
 */
constexpr double kOpenRate = 500.0;
/** Share of the run's seconds the open-loop phase lasts. */
constexpr double kOpenShare = 0.2;
/** Requests per latency run (chunked_quantile). */
constexpr size_t kChunkSamples = 1200;
/** A phase with no response for this long has lost requests. */
constexpr double kStallSeconds = 20.0;
/** Requests the client sends in a row before it reads replies again. */
constexpr size_t kSendBurst = 16;

/**
 * One `serve::Server` in a child process on a pipe triple, the way
 * `naqc serve` runs. The child is forked before the caller builds any
 * inputs, while this process has one thread, and is always waited for.
 */
class Session
{
  public:
    explicit Session(const naq::serve::ServerOptions &opts)
    {
        int req[2], out[2], log[2];
        if (::pipe(req) != 0 || ::pipe(out) != 0 || ::pipe(log) != 0)
            throw std::runtime_error("serve: pipe() failed");
        // Large pipes (best effort): neither side should stall because
        // the other has not read yet.
        ::fcntl(req[1], F_SETPIPE_SZ, 1 << 20);
        ::fcntl(out[1], F_SETPIPE_SZ, 1 << 20);
        start_ = Clock::now();
        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("serve: fork() failed");
        if (pid_ == 0) {
            ::close(req[1]);
            ::close(out[0]);
            ::close(log[0]);
            std::FILE *out_file = ::fdopen(out[1], "w");
            std::FILE *log_file = ::fdopen(log[1], "w");
            int code = 4;
            try {
                naq::serve::Server server(opts, req[0], out_file, log_file);
                code = server.run();
            } catch (const std::exception &e) {
                std::fprintf(log_file, "serve: exception: %s\n", e.what());
            }
            std::fflush(out_file);
            std::fflush(log_file);
            ::_exit(code);
        }
        ::close(req[0]);
        ::close(out[1]);
        ::close(log[1]);
        req_w_ = req[1];
        out_r_ = out[0];
        ::fcntl(out_r_, F_SETFL, ::fcntl(out_r_, F_GETFL) | O_NONBLOCK);
        log_r_ = log[0];
        log_thread_ = std::thread([this] { read_log(); });
    }

    ~Session() { finish(); }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Seconds from the fork until the server's "ready" log line. */
    double
    wait_ready()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return ready_ || log_closed_; });
        return ready_ ? seconds_between(start_, ready_at_) : -1.0;
    }

    /** Write one request line; false when the pipe is gone. */
    bool
    send(const std::string &line)
    {
        std::string buf = line;
        buf.push_back('\n');
        size_t done = 0;
        while (done < buf.size()) {
            const ssize_t n =
                ::write(req_w_, buf.data() + done, buf.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            done += size_t(n);
        }
        return true;
    }

    int out_fd() const { return out_r_; }

    /**
     * Close the server's input (it drains and exits), discard any
     * output nobody read, wait for the child and the log reader.
     * Returns the server's exit code; -1 if it did not exit normally.
     */
    int
    finish()
    {
        if (req_w_ >= 0)
            ::close(req_w_);
        req_w_ = -1;
        if (out_r_ >= 0) {
            ::fcntl(out_r_, F_SETFL, ::fcntl(out_r_, F_GETFL) & ~O_NONBLOCK);
            char chunk[4096];
            ssize_t n;
            while ((n = ::read(out_r_, chunk, sizeof chunk)) != 0) {
                if (n < 0 && errno != EINTR)
                    break;
                if (n > 0)
                    late_bytes_ += size_t(n);
            }
            ::close(out_r_);
            out_r_ = -1;
        }
        if (pid_ > 0) {
            int status = 0;
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
            exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            pid_ = -1;
        }
        if (log_thread_.joinable())
            log_thread_.join();
        if (log_r_ >= 0)
            ::close(log_r_);
        log_r_ = -1;
        return exit_code_;
    }

    /** Output bytes no phase read (after finish; expected 0). */
    size_t late_bytes() const { return late_bytes_; }

    std::vector<std::string>
    log_lines()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return log_;
    }

  private:
    void
    read_log()
    {
        std::string buf;
        char chunk[4096];
        while (true) {
            const ssize_t n = ::read(log_r_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            const auto now = Clock::now();
            buf.append(chunk, size_t(n));
            size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                std::lock_guard<std::mutex> lock(mu_);
                if (!ready_ && line.find(" ready ") != std::string::npos) {
                    ready_ = true;
                    ready_at_ = now;
                    cv_.notify_all();
                }
                log_.push_back(std::move(line));
            }
        }
        std::lock_guard<std::mutex> lock(mu_);
        log_closed_ = true;
        cv_.notify_all();
    }

    pid_t pid_ = -1;
    int req_w_ = -1, out_r_ = -1, log_r_ = -1;
    int exit_code_ = -1;
    size_t late_bytes_ = 0;
    Clock::time_point start_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool ready_ = false;
    bool log_closed_ = false;
    Clock::time_point ready_at_;
    std::vector<std::string> log_;
    // Last: the reader uses every member above.
    std::thread log_thread_;
};

/** A response, reduced to what the checks and metrics need. */
struct Reply
{
    int count = 0; ///< Responses seen for this id.
    Clock::time_point recv;
    std::string status;
    std::string error;
    std::string memo;
    bool ok = false;
    double latency_ms = 0.0;
    double queue_depth = 0.0;
    double gates = 0.0, timesteps = 0.0, swaps = 0.0;
    std::vector<naq::PassReport> passes;
    uint64_t qasm_hash = 0;
    std::string qasm; ///< Kept for the first ok reply of each program.
};

/** One phase's requests with their send and reply records. */
struct Phase
{
    std::vector<ServeRequest> requests;
    std::vector<Clock::time_point> due, sent;
    std::vector<Reply> replies;
    std::unordered_map<std::string, size_t> index;
    size_t received = 0;
    size_t unknown = 0; ///< Replies whose id matched no request.
    Clock::time_point begin, end;

    explicit Phase(std::vector<ServeRequest> reqs)
        : requests(std::move(reqs)), due(requests.size()),
          sent(requests.size()), replies(requests.size())
    {
        for (size_t i = 0; i < requests.size(); ++i)
            index.emplace(requests[i].id, i);
    }
};

/**
 * Record one response line. The QASM of the first ok reply of each
 * program is kept when `have_text` is given (the deep checks re-parse
 * it); otherwise only its hash.
 */
void
record_reply(Phase &ph, const std::string &line, Clock::time_point at,
             std::unordered_map<uint64_t, bool> *have_text)
{
    JsonValue v;
    std::string err;
    if (!parse_json(line, v, err) || v.kind != JsonValue::Kind::Object) {
        ++ph.unknown;
        return;
    }
    const JsonValue *id = v.get("id");
    const auto it =
        id ? ph.index.find(id->text) : ph.index.end();
    if (it == ph.index.end()) {
        ++ph.unknown;
        return;
    }
    Reply &r = ph.replies[it->second];
    if (r.count++ > 0)
        return; // Duplicate: counted, first reply kept.
    ++ph.received;
    r.recv = at;
    const auto str = [&](const char *key) {
        const JsonValue *f = v.get(key);
        return f ? f->text : std::string();
    };
    const auto num = [&](const char *key) {
        const JsonValue *f = v.get(key);
        return f ? f->number : 0.0;
    };
    r.status = str("status");
    r.error = str("error");
    r.memo = str("memo");
    const JsonValue *ok = v.get("ok");
    r.ok = ok && ok->boolean;
    r.latency_ms = num("latency_ms");
    r.queue_depth = num("queue_depth");
    r.gates = num("gates");
    r.timesteps = num("timesteps");
    r.swaps = num("swaps");
    if (const JsonValue *passes = v.get("passes")) {
        for (const JsonValue &p : passes->items) {
            naq::PassReport pr;
            if (const JsonValue *name = p.get("pass"))
                pr.pass = name->text;
            if (const JsonValue *ms = p.get("ms"))
                pr.wall_ms = ms->number;
            r.passes.push_back(std::move(pr));
        }
    }
    if (const JsonValue *qasm = v.get("qasm")) {
        r.qasm_hash = fnv1a(qasm->text);
        const uint64_t program = ph.requests[it->second].program;
        if (r.ok && have_text && !(*have_text)[program]) {
            (*have_text)[program] = true;
            r.qasm = qasm->text;
        }
    }
}

/**
 * Drive one phase from this thread alone: send each request when it is
 * due — at its scheduled time in the open loop (`outstanding` 0), as
 * soon as fewer than `outstanding` are unanswered in the closed loop —
 * and read replies in between, sleeping in ppoll() until a reply
 * arrives or the next request is due. Returns when every request is
 * answered, the server closes its output, or nothing arrives for
 * kStallSeconds.
 */
void
drive(Session &s, Phase &ph, size_t outstanding, std::string &buf,
      std::unordered_map<uint64_t, bool> *have_text)
{
    const size_t total = ph.requests.size();
    size_t next = 0;
    char chunk[1 << 16];
    auto last_progress = Clock::now();
    while (ph.received < total) {
        auto now = Clock::now();
        // At most kSendBurst sends between reads: a client that fell
        // behind must not fill the request pipe while replies pile up.
        for (size_t burst = 0;
             burst < kSendBurst && next < total &&
             (outstanding == 0 ? ph.due[next] <= now
                               : next - ph.received < outstanding);
             ++burst) {
            if (outstanding != 0)
                ph.due[next] = now;
            ph.sent[next] = now;
            if (!s.send(ph.requests[next].line))
                return;
            ++next;
            now = Clock::now();
        }
        auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(kStallSeconds));
        if (outstanding == 0 && next < total)
            wait = std::min(wait, std::max(
                std::chrono::nanoseconds(0),
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    ph.due[next] - now)));
        const timespec ts{time_t(wait.count() / 1000000000),
                          long(wait.count() % 1000000000)};
        pollfd pfd{s.out_fd(), POLLIN, 0};
        const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
        if (ready < 0 && errno != EINTR)
            return;
        if (ready <= 0) {
            if (seconds_between(last_progress, Clock::now()) > kStallSeconds)
                return;
            continue;
        }
        const ssize_t n = ::read(s.out_fd(), chunk, sizeof chunk);
        if (n == 0)
            return;
        if (n < 0) {
            if (errno != EAGAIN && errno != EINTR)
                return;
            continue;
        }
        const auto at = Clock::now();
        last_progress = at;
        buf.append(chunk, size_t(n));
        size_t start = 0, nl;
        while ((nl = buf.find('\n', start)) != std::string::npos) {
            record_reply(ph, buf.substr(start, nl - start), at, have_text);
            start = nl + 1;
        }
        buf.erase(0, start);
    }
}

naq::serve::ServerOptions
server_options()
{
    naq::serve::ServerOptions opts; // Defaults: 16x16, MID 3, memo 256.
    opts.jobs = kTimedWorkers;
    return opts;
}

/** Everything one server session measured. */
struct SessionResult
{
    std::unique_ptr<Phase> warm, open;
    int exit_code = -1;
    size_t late_bytes = 0;
    std::vector<std::string> log;
    /** Programs whose first ok reply kept its QASM text. */
    std::unordered_map<uint64_t, bool> have_text;

    std::vector<const Phase *>
    phases() const
    {
        return {warm.get(), open.get()};
    }
};

/**
 * One server session: the untimed hot-set warm-up, then an open-loop
 * phase of about `open_s` seconds.
 */
SessionResult
run_session(const Config &cfg, double open_s)
{
    SessionResult res;
    // Fork the server before building inputs, so the child starts from
    // this process's small footprint.
    Session s(server_options());
    s.wait_ready();

    const size_t open_n = std::max<size_t>(8, size_t(kOpenRate * open_s));
    res.warm = std::make_unique<Phase>(
        make_warmup_requests(cfg.seed, cfg.tiny));
    res.open = std::make_unique<Phase>(
        make_serve_requests(cfg.seed, open_n, "o", cfg.tiny));
    const std::vector<double> arrivals =
        make_arrivals(cfg.seed, open_n, kOpenRate);
    std::string buf;

    // Warm-up: one request per hot-set program, all outstanding at once.
    res.warm->begin = Clock::now();
    drive(s, *res.warm, res.warm->requests.size(), buf, &res.have_text);

    // Open loop: send on the Poisson schedule regardless of replies;
    // each request is timed from its due time.
    Phase &open = *res.open;
    open.begin = Clock::now() + std::chrono::milliseconds(20);
    for (size_t i = 0; i < open_n; ++i)
        open.due[i] = open.begin +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(arrivals[i]));
    drive(s, open, 0, buf, &res.have_text);
    open.end = Clock::now();

    res.exit_code = s.finish();
    res.late_bytes = s.late_bytes();
    res.log = s.log_lines();
    return res;
}

/** Check one phase; appends latencies (ms, shed = +inf) to `lat`. */
void
check_phase(const Phase &ph, Outcome &out, std::vector<double> *lat)
{
    if (ph.unknown > 0)
        out.fail(std::to_string(ph.unknown) +
                 " replies matched no request or did not parse");
    for (size_t i = 0; i < ph.requests.size(); ++i) {
        const ServeRequest &q = ph.requests[i];
        const Reply &r = ph.replies[i];
        ++out.attempted;
        const char *want = q.expect == Expect::Ok ? "ok"
                           : q.expect == Expect::BadRequest
                               ? "bad-request"
                               : "qasm-parse-failed";
        std::string why;
        if (r.count == 0)
            why = "no reply";
        else if (r.count > 1)
            why = std::to_string(r.count) + " replies";
        else if (r.status != want)
            why = "status " + r.status + " (" + r.error + "), expected " +
                  want;
        if (lat) {
            lat->push_back(r.count == 1 && r.status != "overloaded"
                               ? seconds_between(ph.due[i], r.recv) * 1e3
                               : std::numeric_limits<double>::infinity());
        }
        if (!why.empty())
            out.fail(q.id + ": " + why);
    }
}

/** Program identity -> its first ok reply (which kept the QASM). */
using FirstReply = std::unordered_map<uint64_t, const Reply *>;

/**
 * Check a whole session: statuses, exit code, every ok reply's QASM
 * re-parses and repeats of one program are byte-identical. Appends the
 * open-loop latencies to `open_ms`.
 */
FirstReply
verify_session(const SessionResult &res, Outcome &out,
               std::vector<double> &open_ms)
{
    check_phase(*res.warm, out, nullptr);
    check_phase(*res.open, out, &open_ms);
    if (res.exit_code != 0)
        out.fail("server exited with code " +
                 std::to_string(res.exit_code));
    if (res.late_bytes != 0)
        out.fail(std::to_string(res.late_bytes) +
                 " bytes of output arrived after the last phase");
    FirstReply first;
    for (const Phase *ph : res.phases()) {
        for (size_t i = 0; i < ph->requests.size(); ++i) {
            const Reply &r = ph->replies[i];
            if (!r.ok || r.qasm.empty())
                continue;
            first[ph->requests[i].program] = &r;
            try {
                naq::read_qasm(r.qasm);
            } catch (const std::exception &e) {
                out.fail(ph->requests[i].id +
                         ": reply QASM does not re-parse: " + e.what());
            }
        }
    }
    for (const Phase *ph : res.phases()) {
        for (size_t i = 0; i < ph->requests.size(); ++i) {
            const Reply &r = ph->replies[i];
            const auto it = first.find(ph->requests[i].program);
            if (r.ok && (it == first.end() ||
                         it->second->qasm_hash != r.qasm_hash))
                out.fail(ph->requests[i].id +
                         ": reply differs from the program's first reply");
        }
    }
    return first;
}

/**
 * Latency quantile `q` of a phase, taken per run of kChunkSamples
 * consecutive requests and reported as the median over runs: a burst of
 * contention from outside the benchmark spoils one run, not the figure.
 * A run is long enough that its p99 has at least ten samples beyond
 * it. `lat` is index-aligned with the phase's requests.
 */
double
chunked_quantile(const std::vector<double> &lat, double q)
{
    const size_t chunks = std::max<size_t>(1, lat.size() / kChunkSamples);
    const size_t per_chunk = lat.size() / chunks;
    std::vector<double> per_run;
    for (size_t k = 0; k < chunks; ++k)
        per_run.push_back(quantile(
            std::vector<double>(lat.begin() + k * per_chunk,
                                lat.begin() + (k + 1) * per_chunk),
            q));
    return median(per_run);
}

} // namespace

void
measure_serve_layer(const Config &cfg, SpanLog &spans, Outcome &out)
{
    const SessionResult session = run_session(cfg, kOpenShare * cfg.seconds);
    const Phase &open = *session.open;
    {
        uint64_t digest = fnv1a("serve");
        for (const Phase *ph : session.phases())
            for (const ServeRequest &r : ph->requests)
                digest = fnv1a(r.line, digest);
        for (const auto &due : open.due)
            digest = fnv1a(std::to_string((due - open.begin).count()),
                           digest);
        out.note("inputs: serve layer open=" +
                 std::to_string(open.requests.size()) + " @ " +
                 std::to_string(int(kOpenRate)) + "/s on 16x16, workers=" +
                 std::to_string(kTimedWorkers) + " digest=" + hex64(digest));
    }
    std::vector<double> open_ms;
    const FirstReply first = verify_session(session, out, open_ms);
    for (size_t i = 0; i < open.requests.size(); ++i) {
        // Where the open loop shed: the first thing to read when a run
        // fails.
        if (open.replies[i].status == "overloaded") {
            out.note("serve: first shed request due at +" +
                     std::to_string(seconds_between(open.begin,
                                                    open.due[i])) +
                     "s");
            break;
        }
    }
    for (const std::string &line : session.log)
        if (line.find("rx=") != std::string::npos)
            out.note(line);

    // Per request: spans, memo outcome, compile time, and a replay of the
    // protocol layer's two calls on the exchange.
    std::vector<double> wait_ms, compile_ms, lag_ms, protocol_us;
    size_t hits = 0, misses = 0, shed = 0, total = 0;
    std::map<uint64_t, size_t> miss_count;
    const uint64_t root = spans.next_id();
    const auto ns = [&](Clock::time_point t) {
        return int64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           t - session.warm->begin)
                           .count());
    };
    for (const Phase *ph : session.phases()) {
        const bool open_loop = ph == &open;
        for (size_t i = 0; i < ph->requests.size(); ++i) {
            const ServeRequest &q = ph->requests[i];
            const Reply &r = ph->replies[i];
            ++total;
            if (r.count == 0)
                continue;
            const uint64_t item = 1000000 * uint64_t(!open_loop) + i;
            const uint64_t id = spans.add("request", root, item, 0,
                                          ns(ph->due[i]), ns(r.recv));
            spans.add("gen.send", id, item, 0, ns(ph->due[i]),
                      ns(ph->sent[i]));
            if (open_loop) {
                lag_ms.push_back(
                    seconds_between(ph->due[i], ph->sent[i]) * 1e3);
                wait_ms.push_back(
                    seconds_between(ph->due[i], r.recv) * 1e3 -
                    r.latency_ms);
            }
            if (r.status == "overloaded")
                ++shed;
            if (r.memo == "hit")
                ++hits;
            if (r.memo == "miss") {
                ++misses;
                ++miss_count[q.program];
                double ms = 0;
                for (const naq::PassReport &p : r.passes)
                    ms += p.wall_ms;
                compile_ms.push_back(ms);
            }

            const auto t0 = Clock::now();
            naq::serve::Request req;
            std::string err;
            naq::serve::parse_request(q.line, req, err);
            const auto t1 = Clock::now();
            naq::serve::Response resp;
            resp.id = q.id;
            resp.ok = r.ok;
            resp.status = r.status;
            resp.error = r.error;
            resp.latency_ms = r.latency_ms;
            resp.queue_depth = size_t(r.queue_depth);
            resp.memo = r.memo;
            resp.gates = size_t(r.gates);
            resp.timesteps = size_t(r.timesteps);
            resp.swaps = size_t(r.swaps);
            resp.passes = r.passes;
            if (const auto it = first.find(q.program);
                r.ok && it != first.end())
                resp.qasm = it->second->qasm;
            const auto t2 = Clock::now();
            naq::serve::format_response(resp);
            const auto t3 = Clock::now();
            protocol_us.push_back(
                (seconds_between(t0, t1) + seconds_between(t2, t3)) * 1e6);
        }
    }
    spans.add("serve.session", 0, 0, 0, 0, ns(open.end), root);
    size_t wasted = 0;
    for (const auto &[program, n] : miss_count)
        wasted += n - 1;

    out.set("memo.hit_ratio",
            double(hits) / double(std::max<size_t>(hits + misses, 1)),
            "ratio");
    out.set("memo.wasted_compiles", double(wasted), "count");
    out.set("serve.protocol_us", median(protocol_us), "us");
    out.set("serve.open_p50_ms", chunked_quantile(open_ms, 0.50), "ms");
    out.set("serve.open_p99_ms", chunked_quantile(open_ms, 0.99), "ms");
    out.set("serve.wait_ms", median(wait_ms), "ms");
    out.set("serve.compile_ms", median(compile_ms), "ms");
    out.set("serve.shed_ratio",
            double(shed) / double(std::max<size_t>(total, 1)), "ratio");
    out.set("gen.lag_ms", quantile(lag_ms, 0.99), "ms");
}

} // namespace naqbench
