/**
 * @file
 * serve_mixed: an in-process MappingServer on a private Unix socket,
 * driven by two closed-loop client connections from this process. Each
 * client keeps its connection open for the whole phase and sends its
 * next newline-delimited request only after the reply to the last, so
 * the server runs one connection thread per client rather than one per
 * request (whose unjoined stacks would grow with the request count and
 * make memory and latency depend on it). Requests follow a seeded Zipf
 * mix over program x size x strategy x devices in {1, 2, 4}. Setup
 * starts a server, pre-fills a private disk tier with a quarter of the
 * keys and stops it; each measured phase restarts from that disk tier
 * with an empty memory tier, like a restarted server, so requests split
 * into memory hits, disk hits, coalesced waits and cold misses.
 *
 * A seeded 1 in 50 requests is malformed (unknown program, non-numeric
 * size, devices out of range); a refusal that leaves the listener up is
 * a success. Checked outside the measured phase: every other request is
 * answered ok, with the mapping and model time a direct compileProgram +
 * cachedRun of the same key (cache disabled, so it simulates) gives.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <numeric>
#include <thread>

#include "perfbench.h"
#include "server/json.h"
#include "server/programs.h"
#include "server/server.h"
#include "sim/evalcache.h"
#include "support/rng.h"
#include "support/trace.h"

namespace perfbench {
namespace {

using namespace npp;

const char *const kStrategies[] = {"multidim", "1d", "tbt", "warp"};
const int kDevices[] = {1, 2, 4};
constexpr int kClients = 2;
/** Requests per client that the model digest covers; every phase
 *  completes at least this many. */
constexpr int kDigestRequests = 100;
/** Zipf exponent of the key popularity: skewed, yet flat enough that a
 *  run requests nearly every key, so the cold work per run varies little
 *  with the seed. */
constexpr double kZipf = 0.6;

/** One client's persistent connection: newline-delimited requests, each
 *  answered by one line, as the server protocol defines. */
class Connection
{
  public:
    explicit Connection(std::string path) : path_(std::move(path)) {}
    ~Connection() { close(); }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send `request` and read its reply line. On a transport error the
     *  connection is closed; the next call reconnects. */
    bool
    roundTrip(const std::string &request, std::string *response,
              std::string *error)
    {
        if (fd_ < 0 && !open(error))
            return false;
        const std::string line = request + "\n";
        for (size_t off = 0; off < line.size();) {
            const ssize_t n = ::send(fd_, line.data() + off,
                                     line.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return broken("send: " + std::string(std::strerror(errno)),
                              error);
            off += static_cast<size_t>(n);
        }
        size_t pos;
        while ((pos = buffer_.find('\n')) == std::string::npos) {
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return broken("connection closed before a response arrived",
                              error);
            buffer_.append(chunk, static_cast<size_t>(n));
        }
        *response = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return true;
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        buffer_.clear();
    }

  private:
    bool
    open(std::string *error)
    {
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        if (path_.size() >= sizeof addr.sun_path) {
            *error = "socket path too long";
            return false;
        }
        std::memcpy(addr.sun_path, path_.c_str(), path_.size());
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return broken("socket: " + std::string(std::strerror(errno)),
                          error);
        if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr) != 0)
            return broken("connect: " + std::string(std::strerror(errno)),
                          error);
        return true;
    }

    bool
    broken(const std::string &why, std::string *error)
    {
        *error = why;
        close();
        return false;
    }

    std::string path_;
    int fd_ = -1;
    std::string buffer_;
};

template <typename T>
void
shuffle(std::vector<T> &v, npp::Rng &rng)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.below(i)]);
}

struct Key
{
    std::string program;
    std::map<std::string, int64_t> sizes;
    int strategy = 0;
    int devices = 1;
};

std::string
sizesJson(const std::map<std::string, int64_t> &sizes)
{
    std::string out = "{";
    for (const auto &[k, v] : sizes) {
        if (out.size() > 1)
            out += ',';
        out += '"';
        out += k;
        out += "\":";
        out += std::to_string(v);
    }
    return out + "}";
}

std::string
requestJson(const Key &key, uint64_t id)
{
    std::string req = "{\"type\":\"eval\",\"program\":\"" + key.program +
                      "\",\"sizes\":" + sizesJson(key.sizes) +
                      ",\"strategy\":\"" + kStrategies[key.strategy] + "\"";
    if (key.devices > 1)
        req += ",\"devices\":" + std::to_string(key.devices);
    return req + ",\"id\":" + std::to_string(id) + "}";
}

/** Malformed request of the given kind (0..2). */
std::string
hostileJson(const Key &key, int kind, uint64_t id)
{
    switch (kind) {
    case 0:
        return "{\"type\":\"eval\",\"program\":\"no_such_program\","
               "\"id\":" + std::to_string(id) + "}";
    case 1:
        return "{\"type\":\"eval\",\"program\":\"" + key.program +
               "\",\"sizes\":{\"rows\":\"many\"},\"id\":" +
               std::to_string(id) + "}";
    default:
        return "{\"type\":\"eval\",\"program\":\"" + key.program +
               "\",\"sizes\":" + sizesJson(key.sizes) +
               ",\"devices\":" + (id % 2 ? "0" : "33") +
               ",\"id\":" + std::to_string(id) + "}";
    }
}

/** Hash every model field of a response report (not the execution-mode
 *  diagnostics). */
void
hashJson(Digest &d, const JsonValue &v)
{
    switch (v.kind) {
    case JsonValue::Kind::Number: d.add(v.number); break;
    case JsonValue::Kind::Bool: d.add(static_cast<uint64_t>(v.boolean)); break;
    case JsonValue::Kind::String: d.add(v.string); break;
    case JsonValue::Kind::Array:
        for (const JsonValue &e : v.elements)
            hashJson(d, e);
        break;
    case JsonValue::Kind::Object:
        for (const auto &[k, m] : v.members) {
            if (k == "classed_blocks" || k == "class_reason")
                continue;
            d.add(k);
            hashJson(d, m);
        }
        break;
    case JsonValue::Kind::Null: break;
    }
}

struct Reply
{
    int client = 0;
    uint64_t seq = 0;
    int key = -1;  //!< -1: hostile request
    double ms = 0.0;
    bool transportOk = false;
    bool ok = false;
    std::string mapping;
    double totalMs = 0.0;
    uint64_t reportHash = 0;
    size_t bytes = 0;
    std::string error;
};

struct Expected
{
    std::string mapping;
    double totalMs = 0.0;
    double inputBuildMs = 0.0;
};

class ServeMixed : public Workload
{
  public:
    explicit ServeMixed(const Args &args) : args_(args)
    {
        const std::vector<double> scales =
            args.quick ? std::vector<double>{0.125, 0.25}
                       : std::vector<double>{0.25, 0.5, 1.0};
        for (const std::string &name : demoProgramNames())
            for (double r : scales)
                for (int s = 0; s < 4; s++)
                    for (int dv : kDevices)
                        keys_.push_back({name, demoSizes(name, r), s, dv});
        // Popularity: Zipf by rank. Consecutive ranks walk every
        // (program, size class, devices) combination before any repeats,
        // turning all three at once: program = rank mod 7 and (class,
        // devices) from rank mod 3C, one to one because 7 is prime to 3C.
        // The hot keys are thus spread alike over cheap and costly
        // programs, sizes and fleets, and the cost of the mix is the same
        // for every seed: a four-device request at the largest size costs
        // ten times a one-device one, so which of them are hot must not
        // be left to the seed.
        // The seed orders each combination's four strategies and draws
        // the requests.
        Rng rng(mix(args.seed ^ 0x5e4eull));
        const size_t classes = scales.size();
        const size_t programs = demoProgramNames().size();
        const size_t devices = std::size(kDevices);
        const size_t combos = programs * classes * devices;
        if (std::gcd(programs, classes * devices) != 1)
            throw std::runtime_error("serve: program count shares a factor "
                                     "with size classes x devices");
        std::vector<std::vector<int>> strategyOrder(combos, {0, 1, 2, 3});
        for (std::vector<int> &order : strategyOrder)
            shuffle(order, rng);
        for (size_t i = 0; i < keys_.size(); i++) {
            const size_t c = i % combos, m = c % (classes * devices);
            const size_t p = c % programs, cls = m % classes,
                         dv = m / classes;
            const auto s = static_cast<size_t>(strategyOrder[c][i / combos]);
            rank_.push_back(static_cast<int>(
                ((p * classes + cls) * 4 + s) * devices + dv));
        }
        double total = 0.0;
        for (size_t i = 0; i < keys_.size(); i++) {
            total += 1.0 / std::pow(static_cast<double>(i + 1), kZipf);
            cdf_.push_back(total);
        }
        for (double &c : cdf_)
            c /= total;
        // Pre-fill one strategy of every (program, size class, devices)
        // combination, a quarter of the keys, the strategies taken in
        // turn. The set is the same for every seed, so setup simulates
        // the same work whatever the seed (the strategies' simulations
        // differ in cost).
        for (size_t p = 0; p < programs; p++)
            for (size_t cls = 0; cls < classes; cls++)
                for (size_t dv = 0; dv < devices; dv++)
                    prefill_.push_back(static_cast<int>(
                        ((p * classes + cls) * 4 + (p + cls + dv) % 4) *
                            devices +
                        dv));
        socket_ = args.workDir + "/serve.sock";
        prefillDir_ = args.workDir + "/serve-prefill";
        liveDir_ = args.workDir + "/serve-live";
    }

    void
    setup() override
    {
        std::filesystem::remove_all(prefillDir_);
        std::filesystem::create_directories(prefillDir_);
        EvalCache::instance().setDiskDir(prefillDir_);
        EvalCache::instance().clear();
        {
            MappingServer server(ServeOptions{socket_, 0});
            std::string error;
            if (!server.start(&error))
                throw std::runtime_error("serve: " + error);
            for (int k : prefill_) {
                std::string resp;
                if (!serveRoundTrip(socket_, requestJson(keys_[k], 0), &resp,
                                    &error))
                    throw std::runtime_error("serve prefill: " + error);
                Reply r;
                parseReply(resp, &r);
                if (!r.ok)
                    throw std::runtime_error("serve prefill refused: " +
                                             r.error);
            }
            server.stop();
        }
        // A restarted server: the disk tier survives, memory does not.
        EvalCache::instance().clear();
        EvalCache::instance().setDiskDir("");
    }

    Phase
    measure(int seconds) override
    {
        std::filesystem::remove_all(liveDir_);
        std::filesystem::copy(prefillDir_, liveDir_);
        EvalCache::instance().setDiskDir(liveDir_);
        EvalCache::instance().clear();

        Phase phase;
        MappingServer server(ServeOptions{socket_, 0});
        std::string error;
        if (!server.start(&error))
            throw std::runtime_error("serve: " + error);

        std::mutex mu;
        std::vector<Reply> replies;
        const double cpu0 = processCpuS();
        const auto t0 = Clock::now();
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; c++)
            clients.emplace_back([&, c] {
                std::vector<Reply> mine = runClient(c, seconds, t0);
                std::lock_guard<std::mutex> lock(mu);
                replies.insert(replies.end(), mine.begin(), mine.end());
            });
        for (std::thread &t : clients)
            t.join();
        phase.timedS = msSince(t0) / 1000.0;
        phase.cpuS = processCpuS() - cpu0;
        phase.peakRssMb = peakRssMb();

        std::string pong;
        const bool listenerUp =
            serveRoundTrip(socket_, "{\"type\":\"ping\"}", &pong, &error);
        const ServerStats stats = server.stats();
        phase.layer["evalcache.bytes"] =
            static_cast<double>(EvalCache::instance().stats().bytes);
        server.stop();
        EvalCache::instance().setDiskDir("");
        if (!listenerUp)
            phase.fail("listener is down after the phase: " + error);

        // Order replies by (client, seq) so the digest and the checks
        // do not depend on how the two clients interleaved.
        std::sort(replies.begin(), replies.end(),
                  [](const Reply &a, const Reply &b) {
                      return a.client != b.client ? a.client < b.client
                                                  : a.seq < b.seq;
                  });
        Digest digest;
        double bytes = 0.0, rtt = 0.0;
        int64_t hostile = 0;
        for (const Reply &r : replies) {
            phase.attempted++;
            phase.opMs.push_back(r.ms);
            bytes += static_cast<double>(r.bytes);
            rtt += r.ms;
            if (r.seq < static_cast<uint64_t>(kDigestRequests)) {
                digest.add(static_cast<uint64_t>(r.ok));
                digest.add(r.mapping);
                digest.add(r.reportHash);
            }
            const std::string what = "client " + std::to_string(r.client) +
                                     " request " + std::to_string(r.seq);
            if (!r.transportOk) {
                phase.fail(what + ": transport: " + r.error);
                continue;
            }
            if (r.key < 0) {
                hostile++;
                if (r.ok)
                    phase.fail(what + ": malformed request was accepted");
                continue;
            }
            if (!r.ok) {
                phase.fail(what + ": refused: " + r.error);
                continue;
            }
            const Expected &want = expected(r.key);
            if (r.mapping != want.mapping || r.totalMs != want.totalMs)
                phase.fail(what + ": served " + r.mapping + " / " +
                           std::to_string(r.totalMs) + " ms, direct run " +
                           want.mapping + " / " +
                           std::to_string(want.totalMs) + " ms");
        }
        phase.digest = digest.hex();

        const double n =
            static_cast<double>(std::max<size_t>(replies.size(), 1));
        double buildMs = 0.0;
        for (const auto &[k, e] : expected_)
            buildMs += e.inputBuildMs;
        phase.layer["server.round_trip_ms"] = rtt / n;
        phase.layer["server.round_trip_p99_ms"] = percentile(phase.opMs, 0.99);
        phase.layer["server.response_bytes"] = bytes / n;
        phase.layer["server.input_build_ms"] =
            expected_.empty() ? 0.0 : buildMs / expected_.size();
        phase.layer["server.coalesced"] = static_cast<double>(stats.coalesced);
        phase.layer["server.errors"] = static_cast<double>(stats.errors);
        phase.layer["server.sim_ratio"] =
            stats.evaluations ? static_cast<double>(stats.simulations) /
                                    static_cast<double>(stats.evaluations)
                              : 0.0;
        phase.info["op_p99_ms"] = percentile(phase.opMs, 0.99);
        phase.info["op_p99_samples_beyond"] = std::floor(n * 0.01);
        phase.info["hostile_requests"] = static_cast<double>(hostile);
        phase.info["memory_hits"] = static_cast<double>(stats.memoryHits);
        phase.info["disk_hits"] = static_cast<double>(stats.diskHits);
        phase.info["simulations"] = static_cast<double>(stats.simulations);
        phase.info["coalesced"] = static_cast<double>(stats.coalesced);
        return phase;
    }

  private:
    std::vector<Reply>
    runClient(int client, int seconds, Clock::time_point t0)
    {
        Rng rng(mix(args_.seed * 31 + static_cast<uint64_t>(client) + 1));
        Connection conn(socket_);
        std::vector<Reply> out;
        uint64_t hostileAt = rng.below(50);
        for (uint64_t seq = 0;
             msSince(t0) < seconds * 1000.0 ||
             seq < static_cast<uint64_t>(kDigestRequests);
             seq++) {
            if (seq % 50 == 0 && seq > 0)
                hostileAt = seq + rng.below(50);
            Reply r;
            r.client = client;
            r.seq = seq;
            const double u = rng.uniform();
            const int rank = static_cast<int>(
                std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
            const int key = rank_[std::min<size_t>(rank, rank_.size() - 1)];
            const uint64_t id = seq * kClients + client;
            std::string req;
            if (seq == hostileAt)
                req = hostileJson(keys_[key], static_cast<int>(rng.below(3)),
                                  id);
            else {
                r.key = key;
                req = requestJson(keys_[key], id);
            }
            std::string resp;
            const auto s0 = Clock::now();
            {
                NPP_TRACE_SCOPE("bench.request");
                r.transportOk = conn.roundTrip(req, &resp, &r.error);
            }
            r.ms = msSince(s0);
            r.bytes = resp.size();
            if (r.transportOk)
                parseReply(resp, &r);
            out.push_back(std::move(r));
        }
        return out;
    }

    static void
    parseReply(const std::string &resp, Reply *r)
    {
        std::optional<JsonValue> v = parseJson(resp);
        if (!v || !v->isObject()) {
            r->transportOk = false;
            r->error = "unparseable reply";
            return;
        }
        r->ok = v->get("ok") && v->get("ok")->asBool();
        if (!r->ok) {
            r->error = v->get("error") ? v->get("error")->asString() : "";
            return;
        }
        r->mapping = v->get("mapping") ? v->get("mapping")->asString() : "";
        if (const JsonValue *rep = v->get("report")) {
            r->totalMs = rep->get("total_ms") ? rep->get("total_ms")->number
                                              : 0.0;
            Digest d;
            hashJson(d, *rep);
            r->reportHash = d.value();
        }
    }

    /** The direct answer for a key, computed once with the cache off. */
    const Expected &
    expected(int key)
    {
        // Devices do not change the single-device mapping or report.
        const Key &k = keys_[key];
        const std::string id = k.program + sizesJson(k.sizes) +
                               kStrategies[k.strategy];
        auto it = expected_.find(id);
        if (it != expected_.end())
            return it->second;
        Expected e;
        const auto t0 = Clock::now();
        std::string error;
        std::unique_ptr<DemoProgram> demo =
            buildDemoProgram(k.program, k.sizes, &error);
        if (!demo)
            throw std::runtime_error("serve: " + error);
        Bindings args(*demo->prog);
        demo->bind(args);
        // Every request pays this fingerprint before its cache probe.
        (void)EvalCache::hashBindings(args);
        e.inputBuildMs = msSince(t0);

        CompileOptions copts;
        Strategy strategies[] = {Strategy::MultiDim, Strategy::OneD,
                                 Strategy::ThreadBlockThread,
                                 Strategy::WarpBased};
        copts.strategy = strategies[k.strategy];
        copts.paramValues = demo->params;
        copts.fuseMapReduce = demo->fuse;
        copts.explainSearch = true;
        const CompileResult compiled =
            compileProgram(*demo->prog, gpu_.config(), copts);
        const uint64_t specSeed = EvalCache::combine(
            EvalCache::combine(EvalCache::hashProgram(*demo->prog),
                               EvalCache::hashCompileOptions(copts)),
            EvalCache::hashDevice(gpu_.config()));
        ExecOptions eopts;
        eopts.metricsOnly = true;
        const int64_t capacity = EvalCache::instance().capacityBytes();
        EvalCache::instance().setCapacityBytes(0);
        const SimReport report = cachedRun(gpu_, compiled.spec, args, eopts,
                                           specSeed, /*wantOutputs=*/false);
        EvalCache::instance().setCapacityBytes(capacity);
        e.mapping = compiled.spec.mapping.toString();
        e.totalMs = report.totalMs;
        return expected_.emplace(id, e).first->second;
    }

    Args args_;
    Gpu gpu_;
    std::vector<Key> keys_;
    std::vector<int> rank_;   //!< popularity rank -> key index
    std::vector<double> cdf_; //!< Zipf CDF over ranks
    std::vector<int> prefill_;
    std::string socket_, prefillDir_, liveDir_;
    std::map<std::string, Expected> expected_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed(const Args &args)
{
    return std::make_unique<ServeMixed>(args);
}

} // namespace perfbench
