/**
 * @file
 * Serve phase: an open-loop load generator against tbd::serve over
 * loopback. One sender thread sends every request at its due time,
 * whether or not earlier ones were answered, alternating between two
 * pipelined connections; one reader thread collects the responses.
 * Latency is timed from when each request was due, so a stall counts
 * against every request queued behind it.
 *
 * Traffic (seeded): ~93% repeats of 40 paper cells, ~5% never-seen
 * CNN/Transformer configs between the model's smallest paper batch and
 * twice its largest (real simulations plus store puts, some of which
 * correctly answer 422 out of memory), ~1% NMT/Sockeye lengthCv
 * requests and ~1% malformed or unknown requests (400/404). Two fixed
 * rates, 250 and 500 requests/s, alternate in one-second chunks.
 */

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "core/suite.h"
#include "core/sweep_spec.h"
#include "dist/sim_cache.h"
#include "perf/lowering_cache.h"
#include "phases.h"
#include "serve/server.h"
#include "store/store.h"
#include "util/rng.h"

namespace e2e {

namespace {

using namespace tbd;

constexpr std::size_t kHotCells = 40;
constexpr std::size_t kLengthCvPool = 8;
constexpr double kRates[2] = {250.0, 500.0};
constexpr const char *kPhaseNames[2] = {"r250", "r500"};
/** Length of one chunk of the schedule at one rate. */
constexpr double kChunkSeconds = 1.0;

/** One distinct query of the traffic mix. */
struct Query
{
    std::string kind; ///< hot | unique | lengthcv | bad
    serve::Request request;
    std::string badLine;    ///< raw line when the request is malformed
    bool decodable = true;  ///< decodeRequest accepts the line
};

/** One scheduled send. */
struct Item
{
    double dueUs = 0.0; ///< offset from the start of its chunk
    int phase = 0;      ///< index into kRates
    std::size_t query = 0;
    std::string line;
};

/** What came back for one item. */
struct Outcome
{
    bool answered = false;
    double sendUs = 0.0; ///< offset from the schedule start
    double recvUs = 0.0;
    serve::Response response;
};

/** A blocking loopback client socket with Nagle and delayed ACKs off. */
class Conn
{
  public:
    explicit Conn(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket() failed");
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect() failed");
        }
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }

    void send(const std::string &line)
    {
        std::size_t sent = 0;
        while (sent < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + sent,
                                     line.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send() failed");
            sent += static_cast<std::size_t>(n);
        }
    }

    /**
     * Append whatever is readable; false on EOF or error. Each read
     * re-arms TCP_QUICKACK (Linux clears it again), so what arrived is
     * acknowledged at once: the server's sockets keep Nagle on, and a
     * delayed ACK would hold the rest of its response until this
     * connection's next request (see README.md, Leads).
     */
    bool readSome(std::string &buffer)
    {
        char chunk[65536];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0)
            return false;
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
        buffer.append(chunk, static_cast<std::size_t>(n));
        return true;
    }

    /** Closed-loop call: send one line, wait for one response line. */
    std::string call(const std::string &line)
    {
        send(line + '\n');
        for (;;) {
            const std::size_t eol = pending_.find('\n');
            if (eol != std::string::npos) {
                std::string out = pending_.substr(0, eol);
                pending_.erase(0, eol + 1);
                return out;
            }
            if (!readSome(pending_))
                throw std::runtime_error("server closed the connection");
        }
    }

  private:
    int fd_ = -1;
    std::string pending_;
};

serve::Request
requestOf(const core::BenchmarkRequest &r)
{
    serve::Request q;
    q.model = r.model;
    q.framework = r.framework;
    q.gpu = r.gpu;
    q.batch = r.batch;
    q.lengthCv = r.lengthCv;
    q.lengthSeed = r.lengthSeed;
    return q;
}

std::string
queryKey(const serve::Request &r)
{
    return r.model + "|" + r.framework + "|" + r.gpu + "|" +
           std::to_string(r.batch) + "|" + std::to_string(r.lengthCv) + "|" +
           std::to_string(r.lengthSeed);
}

/** A run of items at one rate, sent back to back. */
struct Chunk
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/**
 * The distinct queries and the schedule for one seed and duration:
 * chunks of kChunkSeconds that alternate between the two rates, half
 * of `seconds` at each.
 */
void
buildTraffic(std::uint64_t seed, double seconds, double chunkSeconds,
             std::vector<Query> &queries, std::vector<Item> &items,
             std::vector<Chunk> &chunks)
{
    util::Rng rng(mixSeed(seed, 10));
    std::set<std::string> used;

    // 40 hot paper cells, drawn from the figure sweep's own cells and
    // stratified by model: each model's share of the hot set is its
    // share of the sweep (largest remainder), so the cost of a hot hit
    // -- which grows with the model's kernel trace -- does not depend
    // on the seed. The seed only picks which cells of each model.
    std::vector<std::string> model_order;
    std::map<std::string, std::vector<core::BenchmarkRequest>> by_model;
    for (const auto &cell :
         core::SweepSpec().gpus({"Quadro P4000", "TITAN Xp"}).requests()) {
        if (by_model[cell.model].empty())
            model_order.push_back(cell.model);
        by_model[cell.model].push_back(cell);
    }
    std::size_t total = 0;
    for (const auto &name : model_order)
        total += by_model[name].size();
    std::vector<std::pair<double, std::string>> remainders;
    std::map<std::string, std::size_t> quota;
    std::size_t assigned = 0;
    for (const auto &name : model_order) {
        const double exact = static_cast<double>(kHotCells) *
                             static_cast<double>(by_model[name].size()) /
                             static_cast<double>(total);
        quota[name] = static_cast<std::size_t>(exact);
        assigned += quota[name];
        remainders.emplace_back(exact - static_cast<double>(quota[name]),
                                name);
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto &x, const auto &y) { return x.first > y.first; });
    for (std::size_t i = 0; assigned < kHotCells && i < remainders.size();
         ++i, ++assigned)
        ++quota[remainders[i].second];
    std::vector<std::size_t> hot;
    for (const auto &name : model_order) {
        auto &pool = by_model[name];
        for (std::size_t k = 0; k < quota[name] && !pool.empty(); ++k) {
            const auto pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(pool.size()) - 1));
            Query q{"hot", requestOf(pool[pick]), "", true};
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
            used.insert(queryKey(q.request));
            hot.push_back(queries.size());
            queries.push_back(std::move(q));
        }
    }

    // The lengthCv pool: NMT and Sockeye at their paper batches.
    std::vector<std::size_t> varied;
    const models::ModelDesc *seq_models[2] = {core::findModelDesc("NMT"),
                                              core::findModelDesc("Sockeye")};
    while (varied.size() < kLengthCvPool) {
        const models::ModelDesc *m =
            seq_models[varied.size() % 2];
        serve::Request r;
        r.model = m->name;
        r.framework = frameworks::frameworkName(m->frameworks.front());
        r.gpu = rng.uniform() < 0.5 ? "Quadro P4000" : "TITAN Xp";
        r.batch = m->batchSweep[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(m->batchSweep.size()) - 1))];
        r.lengthCv = 0.25;
        r.lengthSeed = rng.nextU64() >> 11;
        if (!used.insert(queryKey(r)).second)
            continue;
        varied.push_back(queries.size());
        queries.push_back({"lengthcv", r, "", true});
    }

    // Malformed and unknown requests.
    std::vector<std::size_t> bad;
    auto add_bad_line = [&](const std::string &line) {
        Query q{"bad", {}, line, true};
        try {
            q.request = serve::decodeRequest(line);
        } catch (const std::exception &) {
            q.decodable = false;
        }
        bad.push_back(queries.size());
        queries.push_back(std::move(q));
    };
    add_bad_line("this is not json");
    add_bad_line("{\"model\": \"ResNet-50\", \"batch\": ");
    add_bad_line("{\"model\": \"ResNet-50\", \"bacth\": 32}");
    add_bad_line("[1, 2, 3]");
    auto add_bad_request = [&](serve::Request r) {
        bad.push_back(queries.size());
        queries.push_back({"bad", std::move(r), "", true});
    };
    serve::Request r;
    r.model = "ResNet-51";
    add_bad_request(r);
    r.model = "ResNet-50";
    r.gpu = "Quadro P5000";
    add_bad_request(r);
    r.gpu = "Quadro P4000";
    r.framework = "Caffe";
    add_bad_request(r);
    r.framework = "TensorFlow";
    r.batch = 0;
    add_bad_request(r);

    // Never-seen CNN/Transformer configs, drawn on demand.
    const models::ModelDesc *cnn_models[3] = {
        core::findModelDesc("ResNet-50"), core::findModelDesc("Inception-v3"),
        core::findModelDesc("Transformer")};
    auto next_unique = [&]() {
        for (;;) {
            const models::ModelDesc *m =
                cnn_models[rng.uniformInt(0, 2)];
            serve::Request q;
            q.model = m->name;
            q.framework = frameworks::frameworkName(
                m->frameworks[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(m->frameworks.size()) - 1))]);
            q.gpu = rng.uniform() < 0.5 ? "Quadro P4000" : "TITAN Xp";
            const auto [low, top] = std::minmax_element(
                m->batchSweep.begin(), m->batchSweep.end());
            q.batch = rng.uniformInt(*low, 2 * *top);
            if (!used.insert(queryKey(q)).second)
                continue;
            queries.push_back({"unique", q, "", true});
            return queries.size() - 1;
        }
    };

    const auto chunk_count = static_cast<std::size_t>(
        std::max(2.0, 2.0 * std::round(seconds / chunkSeconds / 2.0)));
    for (std::size_t c = 0; c < chunk_count; ++c) {
        const int phase = static_cast<int>(c % 2);
        const double gap = 1e6 / kRates[phase];
        const auto count =
            static_cast<std::size_t>(chunkSeconds * kRates[phase]);
        Chunk chunk;
        chunk.begin = items.size();
        double t = 2000.0; // first request 2 ms after the chunk starts
        for (std::size_t i = 0; i < count; ++i, t += gap) {
            const double u = rng.uniform();
            std::size_t qi;
            if (u < 0.93)
                qi = hot[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(hot.size()) - 1))];
            else if (u < 0.98)
                qi = next_unique();
            else if (u < 0.99)
                qi = varied[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(varied.size()) - 1))];
            else
                qi = bad[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(bad.size()) - 1))];
            Item item;
            item.dueUs = t;
            item.phase = phase;
            item.query = qi;
            const Query &q = queries[qi];
            if (!q.badLine.empty()) {
                item.line = q.badLine;
            } else {
                serve::Request req = q.request;
                req.id = "q" + std::to_string(items.size());
                item.line = serve::encodeRequest(req);
            }
            item.line += '\n';
            items.push_back(std::move(item));
        }
        chunk.end = items.size();
        chunks.push_back(chunk);
    }
}

/** Index encoded in a response id ("q<n>"), or nullopt. */
std::optional<std::size_t>
itemOfId(const std::string &id)
{
    if (id.size() < 2 || id[0] != 'q')
        return std::nullopt;
    return static_cast<std::size_t>(std::stoull(id.substr(1)));
}

} // namespace

struct ServePhase::Impl
{
    Context &ctx;
    Mode mode;
    std::string storeDir;
    std::vector<Query> queries;
    std::vector<Item> items;
    std::vector<Chunk> chunks;
    std::vector<Outcome> outcomes; ///< per item, filled chunk by chunk
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<Conn> conns[2];
    bool injected = false;

    // Closed-loop hot rounds: the server's CPU time per cache hit.
    std::vector<std::size_t> hotQueries; ///< indices of the hot set
    std::vector<std::string> hotLines;   ///< requests, ids "h<k>"
    std::vector<std::optional<serve::Response>> hotFirst; ///< per hot query
    std::vector<double> hotCpuUs;  ///< per round: server CPU per request
    std::vector<double> hotWallMs; ///< per round: wall time
    double hotCreditMs = 0.0;      ///< hot-round time left to measure

    Impl(Context &c, double seconds)
        : ctx(c),
          mode(c.options.mode),
          storeDir(c.options.workDir + "/store-serve")
    {
        buildTraffic(c.options.seed, seconds,
                     c.options.smoke ? 0.25 : kChunkSeconds, queries, items,
                     chunks);
        outcomes.resize(items.size());
        for (std::size_t i = 0; i < queries.size(); ++i) {
            if (queries[i].kind != "hot")
                continue;
            serve::Request req = queries[i].request;
            req.id = "h" + std::to_string(hotQueries.size());
            hotLines.push_back(serve::encodeRequest(req));
            hotQueries.push_back(i);
        }
        hotFirst.resize(hotQueries.size());
    }

    void useStore()
    {
        store::setStoreEnabled(true);
        store::setStoreDir(storeDir);
    }

    void stopServer()
    {
        conns[0].reset();
        conns[1].reset();
        if (server)
            server->stop();
        server.reset();
    }

    /** Valid (decodable, simulated) queries as suite requests. */
    std::vector<core::BenchmarkRequest> simulatedQueries() const
    {
        std::vector<core::BenchmarkRequest> out;
        for (const auto &q : queries)
            if (q.kind != "bad")
                out.push_back(serve::toBenchmarkRequest(q.request));
        return out;
    }

    /**
     * Fresh memos and store (warm: filled with every query the traffic
     * will ask), a new 2-worker server, two connections, and the hot
     * set preloaded through the socket.
     */
    void startServer()
    {
        stopServer();
        perf::LoweringCache::global().clear();
        dist::clearDistMemos();
        useStore();
        freshDir(storeDir);
        if (mode == Mode::Warm) {
            // Simulate every query once so the store holds it; failures
            // (out of memory) are the server's to answer again.
            const auto requests = simulatedQueries();
            util::ThreadPool::Scope scope(ctx.pool);
            util::parallelFor(
                0, static_cast<std::int64_t>(requests.size()), 1,
                [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i) {
                        try {
                            perf::PerfSimulator().run(core::toRunConfig(
                                requests[static_cast<std::size_t>(i)]));
                        } catch (const util::FatalError &) {
                        }
                    }
                });
            perf::LoweringCache::global().clear();
        }
        serve::ServerOptions options;
        options.threads = 2;
        // Never shed load: a backlog must show up as latency.
        options.maxInflight = 1 << 30;
        server = std::make_unique<serve::Server>(options);
        server->start();
        conns[0] = std::make_unique<Conn>(server->port());
        conns[1] = std::make_unique<Conn>(server->port());
        for (const auto &q : queries) {
            if (q.kind != "hot")
                continue;
            serve::Request req = q.request;
            req.id = "preload";
            const serve::Response resp =
                serve::decodeResponse(conns[0]->call(serve::encodeRequest(req)));
            if (resp.status != serve::Status::Ok &&
                resp.status != serve::Status::SimulationError)
                ctx.report.fail("preload of " + q.request.model +
                                " answered " +
                                std::to_string(serve::statusCode(resp.status)));
        }
    }

    /**
     * Send one chunk's items open-loop and collect their responses into
     * `out` (indexed like `items`); lateness is sendUs - dueUs, both
     * offsets from the chunk's start.
     */
    void runOpenLoop(const Chunk &chunk, std::vector<Outcome> &out)
    {
        const std::size_t count = chunk.end - chunk.begin;
        std::mutex fifo_mutex;
        std::deque<std::size_t> unnamed[2]; // id-less sends, per conn
        std::atomic<std::size_t> answered{0};
        std::atomic<bool> sender_failed{false};
        const auto t0 = Clock::now();
        auto offset_us = [&t0] {
            return std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        };

        std::string reader_error;
        auto read_loop = [&] {
            std::string buffers[2];
            pollfd fds[2] = {{conns[0]->fd(), POLLIN, 0},
                             {conns[1]->fd(), POLLIN, 0}};
            const auto deadline_after_last = std::chrono::seconds(30);
            auto last_progress = Clock::now();
            while (answered.load() < count) {
                if (sender_failed.load() ||
                    Clock::now() - last_progress > deadline_after_last)
                    return;
                const int ready = ::poll(fds, 2, 100);
                if (ready <= 0)
                    continue;
                for (int c = 0; c < 2; ++c) {
                    if (!(fds[c].revents & POLLIN))
                        continue;
                    if (!conns[c]->readSome(buffers[c]))
                        return;
                    const double recv_us = offset_us();
                    last_progress = Clock::now();
                    std::size_t eol;
                    while ((eol = buffers[c].find('\n')) != std::string::npos) {
                        const std::string line = buffers[c].substr(0, eol);
                        buffers[c].erase(0, eol + 1);
                        serve::Response resp = serve::decodeResponse(line);
                        std::optional<std::size_t> idx = itemOfId(resp.id);
                        if (!idx) {
                            std::lock_guard<std::mutex> lock(fifo_mutex);
                            if (unnamed[c].empty())
                                continue;
                            idx = unnamed[c].front();
                            unnamed[c].pop_front();
                        }
                        if (*idx < chunk.begin || *idx >= chunk.end ||
                            out[*idx].answered)
                            continue;
                        out[*idx].answered = true;
                        out[*idx].recvUs = recv_us;
                        out[*idx].response = std::move(resp);
                        answered.fetch_add(1);
                    }
                }
            }
        };
        std::thread reader([&] {
            try {
                read_loop();
            } catch (const std::exception &e) {
                reader_error = e.what();
            }
        });

        try {
            for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                const Item &item = items[i];
                std::this_thread::sleep_until(
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 item.dueUs)));
                const int c = static_cast<int>(i % 2);
                if (!queries[item.query].badLine.empty()) {
                    std::lock_guard<std::mutex> lock(fifo_mutex);
                    unnamed[c].push_back(i);
                }
                out[i].sendUs = offset_us();
                conns[c]->send(item.line);
            }
        } catch (const std::exception &e) {
            sender_failed.store(true);
            ctx.report.fail(std::string("load generator: ") + e.what());
        }
        reader.join();
        if (!reader_error.empty())
            ctx.report.fail("response reader: " + reader_error);
    }

    /**
     * One closed-loop round: every hot query once, one at a time, so
     * each request costs the server the same wake-ups whatever the
     * host's scheduling; every answer is compared with the first
     * round's. Returns the server's CPU time in ms: the process's CPU
     * time over the round minus this thread's, the only client thread
     * while a round runs.
     */
    double runHotRound(double &wallMs)
    {
        const double process0 = processCpuMs();
        const double client0 = threadCpuMs();
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < hotLines.size(); ++k) {
            serve::Response resp =
                serve::decodeResponse(conns[k % 2]->call(hotLines[k]));
            ctx.report.attempt();
            if (resp.id != "h" + std::to_string(k)) {
                ctx.report.fail("hot round: answer '" + resp.id +
                                "' to request h" + std::to_string(k));
            } else if (!hotFirst[k]) {
                hotFirst[k] = std::move(resp);
            } else if (resp.status != hotFirst[k]->status ||
                       resp.result != hotFirst[k]->result) {
                ctx.report.fail("hot request " + resp.id +
                                " answered differently than in the first "
                                "round");
            }
        }
        wallMs = msSince(t0);
        return (processCpuMs() - process0) - (threadCpuMs() - client0);
    }

    /**
     * Check every outcome against a single-threaded simulateDirect
     * baseline computed with the store off and cleared memos.
     */
    void verify(std::vector<Outcome> &out)
    {
        if (ctx.options.inject == Inject::Status && !injected &&
            !out.empty()) {
            out[0].response.status = serve::Status::InternalError;
            injected = true;
        }
        std::vector<std::optional<serve::Response>> baseline(queries.size());
        std::vector<char> needed(queries.size(), 0);
        for (std::size_t i = 0; i < out.size(); ++i)
            needed[items[i].query] = 1;
        for (std::size_t k = 0; k < hotFirst.size(); ++k)
            if (hotFirst[k])
                needed[hotQueries[k]] = 1;
        store::setStoreEnabled(false);
        perf::LoweringCache::global().clear();
        {
            util::ThreadPool::Scope scope(ctx.pool);
            util::parallelFor(
                0, static_cast<std::int64_t>(queries.size()), 1,
                [&](std::int64_t b, std::int64_t e) {
                    for (std::int64_t i = b; i < e; ++i) {
                        const auto k = static_cast<std::size_t>(i);
                        if (!needed[k])
                            continue;
                        if (!queries[k].decodable) {
                            serve::Response bad;
                            bad.status = serve::Status::BadRequest;
                            baseline[k] = bad;
                        } else {
                            baseline[k] = serve::simulateDirect(queries[k].request);
                        }
                    }
                });
        }
        useStore();
        for (std::size_t k = 0; k < hotFirst.size(); ++k) {
            if (!hotFirst[k])
                continue;
            const serve::Response &want = *baseline[hotQueries[k]];
            if (hotFirst[k]->status != want.status ||
                (want.status == serve::Status::Ok &&
                 hotFirst[k]->result != want.result))
                ctx.report.fail("hot request h" + std::to_string(k) + " (" +
                                queries[hotQueries[k]].request.model +
                                ") differs from simulateDirect");
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            ctx.report.attempt();
            const Query &q = queries[items[i].query];
            const serve::Response &want = *baseline[items[i].query];
            if (!out[i].answered) {
                ctx.report.fail("request " + std::to_string(i) + " (" +
                                q.kind + ") got no response");
                continue;
            }
            const serve::Response &got = out[i].response;
            if (got.status != want.status)
                ctx.report.fail(
                    "request " + std::to_string(i) + " (" + q.kind + " " +
                    q.request.model + ") answered " +
                    std::to_string(serve::statusCode(got.status)) +
                    ", baseline " + std::to_string(serve::statusCode(want.status)));
            else if (got.status == serve::Status::Ok &&
                     got.result != want.result)
                ctx.report.fail("request " + std::to_string(i) + " (" +
                                q.kind + " " + q.request.model +
                                ") result differs from simulateDirect");
        }
    }

    /**
     * Per-rate latency percentiles and generator lateness, in the
     * notes. None is gated: on a shared host the median sits next to
     * the knee where requests start queueing behind slow hits, and it
     * swings by half or more between runs (see README.md).
     */
    void emitLatency(const std::vector<Outcome> &out)
    {
        for (int phase = 0; phase < 2; ++phase) {
            std::vector<double> latency_ms;
            std::vector<double> late_ms;
            std::map<int, std::int64_t> statuses;
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (items[i].phase != phase || !out[i].answered)
                    continue;
                latency_ms.push_back((out[i].recvUs - items[i].dueUs) / 1e3);
                late_ms.push_back((out[i].sendUs - items[i].dueUs) / 1e3);
                ++statuses[serve::statusCode(out[i].response.status)];
            }
            const std::string p = kPhaseNames[phase];
            const auto n = static_cast<std::int64_t>(latency_ms.size());
            double sum = 0.0;
            for (double v : latency_ms)
                sum += v;
            char line[256];
            std::snprintf(line, sizeof line,
                          "serve %s: %lld requests, latency p50 %.3f ms, "
                          "p90 %.3f ms, p99 %.3f ms, mean %.3f ms; generator "
                          "lateness p99 %.3f ms; statuses",
                          p.c_str(), static_cast<long long>(n),
                          quantile(latency_ms, 0.5), quantile(latency_ms, 0.9),
                          quantile(latency_ms, 0.99),
                          n > 0 ? sum / static_cast<double>(n) : 0.0,
                          quantile(late_ms, 0.99));
            std::string note = line;
            for (const auto &[code, count] : statuses)
                note += " " + std::to_string(code) + "x" + std::to_string(count);
            ctx.report.note(note);
            ctx.report.note(distribution(p + " latency_ms", latency_ms));
        }
    }
};

ServePhase::ServePhase(Context &ctx, double seconds)
    : impl_(std::make_unique<Impl>(ctx, seconds))
{
}

ServePhase::~ServePhase()
{
    impl_->stopServer();
    removeDir(impl_->storeDir);
}

void
ServePhase::setupRound()
{
    impl_->startServer();
}

std::size_t
ServePhase::chunks() const
{
    return impl_->chunks.size();
}

void
ServePhase::measureChunk(std::size_t chunk)
{
    Impl &m = *impl_;
    m.useStore();
    m.runOpenLoop(m.chunks[chunk], m.outcomes);
}

void
ServePhase::measureHotRounds(double ms)
{
    Impl &m = *impl_;
    m.useStore();
    m.hotCreditMs += ms; // as in SweepPhase::measureUnit
    while (m.hotCreditMs > 0.0 || m.hotCpuUs.empty()) {
        double wall_ms = 0.0;
        const double cpu_ms = m.runHotRound(wall_ms);
        m.hotCpuUs.push_back(cpu_ms * 1e3 /
                             static_cast<double>(m.hotLines.size()));
        m.hotWallMs.push_back(wall_ms);
        m.hotCreditMs -= wall_ms;
        if (m.ctx.options.smoke)
            break;
    }
}

void
ServePhase::finishMeasure()
{
    Impl &m = *impl_;
    m.ctx.report.metric("serve_cpu_us", median(m.hotCpuUs), "us",
                        static_cast<std::int64_t>(m.hotCpuUs.size()));
    m.ctx.report.note(distribution("hot round serve_cpu_us", m.hotCpuUs));
    m.ctx.report.note(distribution("hot round wall_ms", m.hotWallMs));
    m.emitLatency(m.outcomes);
    m.verify(m.outcomes);
}

void
ServePhase::traced(Tracer &tracer)
{
    Impl &m = *impl_;
    m.useStore();
    const std::size_t count = m.items.size();

    // 1. The open-loop run itself, for the cache and admission counts.
    const auto cs0 = m.server->cache().stats();
    const auto as0 = m.server->admission().stats();
    std::vector<Outcome> out(count);
    for (const Chunk &chunk : m.chunks)
        m.runOpenLoop(chunk, out);
    const auto cs1 = m.server->cache().stats();
    const auto as1 = m.server->admission().stats();
    m.verify(out);
    const double lookups = static_cast<double>(
        (cs1.hits - cs0.hits) + (cs1.misses - cs0.misses) +
        (cs1.coalesced - cs0.coalesced));
    const double cache_hits = static_cast<double>(cs1.hits - cs0.hits);

    // 2. Wire time: socket round trip minus in-process handle time of
    //    the same (hot) request.
    std::vector<double> wire_us;
    {
        std::size_t done = 0;
        for (std::size_t i = 0; i < count && done < 400; ++i) {
            const Query &q = m.queries[m.items[i].query];
            if (q.kind != "hot")
                continue;
            serve::Request req = q.request;
            req.id = "wire";
            const std::string line = serve::encodeRequest(req);
            const auto t0 = Clock::now();
            m.conns[0]->call(line);
            const double rtt = msSince(t0) * 1e3;
            const auto t1 = Clock::now();
            m.server->handle(req);
            wire_us.push_back(rtt - msSince(t1) * 1e3);
            ++done;
        }
    }

    // 3. In-process replay of the schedule on a fresh server, untraced
    //    and then traced, calling decodeRequest, the admission
    //    controller, Server::handle and encodeResponse directly.
    auto replay = [&](Tracer *tr, std::vector<double> *hit_us,
                      std::vector<double> *miss_ms) {
        m.startServer();
        std::set<std::string> seen;
        for (const auto &q : m.queries)
            if (q.kind == "hot")
                seen.insert(queryKey(q.request));
        const auto t0 = Clock::now();
        MaybeSpan pass(tr, "serve.replay_pass");
        for (std::size_t i = 0; i < count; ++i) {
            const auto item = static_cast<std::int64_t>(i);
            MaybeSpan request(tr, "serve.request", pass.id(), item);
            const SpanId parent = request.id();
            const std::string line =
                m.items[i].line.substr(0, m.items[i].line.size() - 1);
            serve::Request req;
            bool parsed = true;
            {
                MaybeSpan s(tr, "serve.parse", parent, item);
                try {
                    req = serve::decodeRequest(line);
                } catch (const std::exception &) {
                    parsed = false;
                }
            }
            serve::Response resp;
            if (parsed) {
                {
                    MaybeSpan s(tr, "serve.admit", parent, item);
                    serve::AdmissionController::Ticket ticket;
                    m.server->admission().admit(req.tenant, ticket);
                }
                const bool first = seen.insert(queryKey(req)).second;
                const auto h0 = Clock::now();
                {
                    MaybeSpan s(tr, "serve.handle", parent, item);
                    resp = m.server->handle(req);
                }
                const double h_ms = msSince(h0);
                const bool simulated =
                    resp.status == serve::Status::Ok ||
                    resp.status == serve::Status::SimulationError;
                if (simulated && hit_us && !first)
                    hit_us->push_back(h_ms * 1e3);
                if (simulated && miss_ms && first)
                    miss_ms->push_back(h_ms);
            } else {
                resp.status = serve::Status::BadRequest;
            }
            {
                MaybeSpan s(tr, "serve.encode", parent, item);
                const std::string wire = serve::encodeResponse(resp);
                if (wire.empty())
                    m.ctx.report.fail("empty encoded response");
            }
        }
        return msSince(t0);
    };
    std::vector<double> hit_us;
    std::vector<double> miss_ms;
    const double untraced_ms = replay(nullptr, nullptr, nullptr);
    const double traced_ms = replay(&tracer, &hit_us, &miss_ms);

    const auto roll = tracer.rollup();
    auto p50_us = [&](const char *name) {
        auto it = roll.find(name);
        return it == roll.end() ? 0.0
                                : quantile(it->second.durationsMs, 0.5) * 1e3;
    };
    auto n_of = [&](const char *name) {
        auto it = roll.find(name);
        return it == roll.end() ? std::int64_t{0} : it->second.count;
    };
    Report &r = m.ctx.report;
    r.metric("serve.parse_us", p50_us("serve.parse"), "us", n_of("serve.parse"));
    r.metric("serve.admit_us", p50_us("serve.admit"), "us", n_of("serve.admit"));
    r.metric("serve.handle_hit_us", quantile(hit_us, 0.5), "us",
             static_cast<std::int64_t>(hit_us.size()));
    r.metric("serve.handle_miss_ms", quantile(miss_ms, 0.5), "ms",
             static_cast<std::int64_t>(miss_ms.size()));
    r.metric("serve.encode_us", p50_us("serve.encode"), "us",
             n_of("serve.encode"));
    r.metric("serve.wire_us", quantile(wire_us, 0.5), "us",
             static_cast<std::int64_t>(wire_us.size()));
    r.metric("serve.cache.hit_ratio", lookups > 0 ? cache_hits / lookups : 0.0,
             "ratio", static_cast<std::int64_t>(lookups));
    r.metric("serve.cache.coalesced",
             static_cast<double>(cs1.coalesced - cs0.coalesced), "count",
             static_cast<std::int64_t>(lookups));
    r.metric("serve.rejected",
             static_cast<double>((as1.rejectedQuota - as0.rejectedQuota) +
                                 (as1.rejectedQueueFull - as0.rejectedQueueFull)),
             "count", static_cast<std::int64_t>(count));
    r.metric("trace.serve_overhead_us",
             (traced_ms - untraced_ms) * 1e3 / static_cast<double>(count), "us",
             static_cast<std::int64_t>(count));
    for (const char *name : {"serve.replay_pass", "serve.request"})
        r.note("trace: " + std::string(name) + " covered by child spans " +
               std::to_string(tracer.coverage(name)));
}

} // namespace e2e
