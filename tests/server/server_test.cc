/**
 * @file
 * Mapping-service tests: request/response round trips over a real Unix
 * socket, malformed-request survival (the server must answer with an
 * error line, not die — the asan job runs this suite against the JSON
 * parser and the protocol framing), cache-tier provenance threading,
 * and the coalescing guarantee: N concurrent identical requests perform
 * exactly one simulation.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "predict/predict.h"
#include "server/json.h"
#include "server/server.h"
#include "sim/consolidation.h"
#include "sim/fleet.h"
#include "sim/evalcache.h"
#include "support/trace.h"

using namespace npp;

namespace {

class ServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/nppsrv_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        socket_ = dir_ + "/npp.sock";
        EvalCache &cache = EvalCache::instance();
        savedDiskDir_ = cache.diskDir();
        cache.setDiskDir("");
        cache.clear();
    }

    void
    TearDown() override
    {
        if (server_) {
            server_->stop();
            server_.reset();
        }
        EvalCache::instance().setDiskDir(savedDiskDir_);
        EvalCache::instance().clear();
        const std::string cmd = "rm -rf '" + dir_ + "'";
        (void)!std::system(cmd.c_str());
    }

    void
    startServer(int holdEvalMs = 0)
    {
        ServeOptions opts;
        opts.socketPath = socket_;
        opts.holdEvalMs = holdEvalMs;
        server_ = std::make_unique<MappingServer>(opts);
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
    }

    /** Round trip + parse; fails the test on transport errors. */
    JsonValue
    request(const std::string &line)
    {
        std::string response, error;
        EXPECT_TRUE(serveRoundTrip(socket_, line, &response, &error))
            << error;
        std::string parseError;
        std::optional<JsonValue> parsed = parseJson(response, &parseError);
        EXPECT_TRUE(parsed.has_value())
            << parseError << " in: " << response;
        return parsed ? *parsed : JsonValue{};
    }

    std::string dir_;
    std::string socket_;
    std::string savedDiskDir_;
    std::unique_ptr<MappingServer> server_;
};

/** The number after `key` in `file` ("Threads:" in /proc/self/status),
 *  or the file's line count when `key` is empty; -1 when unreadable. */
int
procCount(const std::string &file, const std::string &key)
{
    std::ifstream in(file);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        if (key.empty())
            lines++;
        else if (line.rfind(key, 0) == 0)
            return std::atoi(line.c_str() + key.size());
    }
    return in.eof() && key.empty() ? lines : -1;
}

const char kSmallEval[] =
    "{\"program\":\"sumrows\",\"sizes\":{\"rows\":64,\"cols\":64}}";

TEST_F(ServerTest, PingPong)
{
    startServer();
    const JsonValue resp = request("{\"type\":\"ping\",\"id\":7}");
    EXPECT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
    EXPECT_EQ(resp.get("type")->asString(), "pong");
    EXPECT_EQ(resp.get("id")->asInt(), 7);
}

TEST_F(ServerTest, EvalReturnsMappingReportAndProvenance)
{
    startServer();
    const JsonValue resp = request(kSmallEval);
    ASSERT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
    EXPECT_FALSE(resp.get("mapping")->asString().empty());
    EXPECT_GT(resp.get("dop")->asNumber(), 0.0);
    EXPECT_EQ(resp.get("provenance")->asString(), "simulated");
    EXPECT_EQ(resp.get("coalesce_model")->asString(),
              kCoalesceModelVersion);
    ASSERT_NE(resp.get("report"), nullptr);
    EXPECT_GT(resp.get("report")->get("total_ms")->asNumber(), 0.0);

    // The second identical request replays from the memory tier and
    // reports the same mapping and timing.
    const JsonValue again = request(kSmallEval);
    EXPECT_EQ(again.get("provenance")->asString(), "memory");
    EXPECT_EQ(again.get("mapping")->asString(),
              resp.get("mapping")->asString());
    EXPECT_EQ(again.get("report")->get("total_ms")->asNumber(),
              resp.get("report")->get("total_ms")->asNumber());
}

TEST_F(ServerTest, ExplanationOnRequest)
{
    startServer();
    const JsonValue resp = request(
        "{\"program\":\"sumrows\",\"sizes\":{\"rows\":64,\"cols\":64},"
        "\"explain\":true}");
    ASSERT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
    ASSERT_NE(resp.get("explanation"), nullptr);
    EXPECT_FALSE(resp.get("explanation")->asString().empty());
}

TEST_F(ServerTest, DiskProvenanceAfterMemoryLoss)
{
    EvalCache::instance().setDiskDir(dir_ + "/cache");
    startServer();
    const JsonValue first = request(kSmallEval);
    EXPECT_EQ(first.get("provenance")->asString(), "simulated");

    // Forget the memory tier mid-flight (as a restarted service would):
    // the next identical request must replay from disk, bit-identical.
    EvalCache::instance().clear();
    const JsonValue second = request(kSmallEval);
    EXPECT_EQ(second.get("provenance")->asString(), "disk");
    EXPECT_EQ(second.get("report")->get("total_ms")->asNumber(),
              first.get("report")->get("total_ms")->asNumber());
    EXPECT_EQ(second.get("report")->get("coalescing_efficiency")
                  ->asNumber(),
              first.get("report")->get("coalescing_efficiency")
                  ->asNumber());
}

TEST_F(ServerTest, MalformedRequestsGetErrorsNotCrashes)
{
    startServer();
    const char *bad[] = {
        "{not json",
        "42",
        "[1,2,3]",
        "{}",
        "{\"program\":\"no_such_program\"}",
        "{\"type\":\"frobnicate\"}",
        "{\"program\":\"sumrows\",\"sizes\":42}",
        "{\"program\":\"sumrows\",\"sizes\":{\"rows\":\"big\"}}",
        "{\"program\":\"sumrows\",\"sizes\":{\"rows\":-3}}",
        "{\"program\":\"sumrows\",\"sizes\":{\"rows\":9999999999}}",
        "{\"program\":\"sumrows\",\"sizes\":{\"bogus_key\":4}}",
        "{\"program\":\"sumrows\",\"strategy\":\"quantum\"}",
        "{\"program\":[\"sumrows\"]}",
    };
    for (const char *line : bad) {
        const JsonValue resp = request(line);
        ASSERT_NE(resp.get("ok"), nullptr) << line;
        EXPECT_FALSE(resp.get("ok")->asBool()) << line;
        EXPECT_FALSE(resp.get("error")->asString().empty()) << line;
    }
    // Still alive and serving after all of that.
    const JsonValue pong = request("{\"type\":\"ping\"}");
    EXPECT_TRUE(pong.get("ok") && pong.get("ok")->asBool());
    EXPECT_EQ(server_->stats().errors,
              sizeof(bad) / sizeof(bad[0]));
}

TEST_F(ServerTest, OversizedRequestIsRefused)
{
    startServer();
    std::string huge = "{\"program\":\"";
    huge.append((2 << 20), 'a');
    huge += "\"}";
    const JsonValue resp = request(huge);
    ASSERT_NE(resp.get("ok"), nullptr);
    EXPECT_FALSE(resp.get("ok")->asBool());

    // The refused connection is closed, but the listener is unharmed.
    const JsonValue pong = request("{\"type\":\"ping\"}");
    EXPECT_TRUE(pong.get("ok") && pong.get("ok")->asBool());
}

TEST_F(ServerTest, ConcurrentIdenticalRequestsSimulateOnce)
{
    // holdEvalMs keeps the leader's evaluation open long enough that
    // every follower deterministically lands in the coalescing window.
    startServer(/*holdEvalMs=*/400);
    constexpr int kClients = 6;
    std::vector<JsonValue> responses(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; i++)
        threads.emplace_back([this, i, &responses] {
            responses[i] = request(kSmallEval);
        });
    for (auto &t : threads)
        t.join();

    int coalescedCount = 0;
    for (const JsonValue &resp : responses) {
        ASSERT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
        EXPECT_EQ(resp.get("mapping")->asString(),
                  responses[0].get("mapping")->asString());
        EXPECT_EQ(resp.get("report")->get("total_ms")->asNumber(),
                  responses[0].get("report")->get("total_ms")->asNumber());
        if (resp.get("coalesced")->asBool())
            coalescedCount++;
    }
    EXPECT_EQ(coalescedCount, kClients - 1);

    const ServerStats stats = server_->stats();
    EXPECT_EQ(stats.evaluations, static_cast<uint64_t>(kClients));
    EXPECT_EQ(stats.simulations, 1u);
    EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kClients - 1));
    EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServerTest, StatsRequestReportsCountersAndLatency)
{
    startServer();
    request(kSmallEval);
    request(kSmallEval);
    const JsonValue stats = request("{\"type\":\"stats\"}");
    ASSERT_TRUE(stats.get("ok") && stats.get("ok")->asBool());
    EXPECT_EQ(stats.get("requests")->asInt(), 3); // 2 evals + this one
    EXPECT_EQ(stats.get("evaluations")->asInt(), 2);
    EXPECT_EQ(stats.get("simulations")->asInt(), 1);
    EXPECT_EQ(stats.get("memory_hits")->asInt(), 1);
    // Request latency: the two evals were timed before this request
    // started (its own time is recorded after rendering).
    EXPECT_EQ(stats.get("request_timer")->get("count")->asInt(), 2);
    EXPECT_GT(stats.get("request_timer")->get("total_us")->asNumber(),
              0.0);
    ASSERT_NE(stats.get("eval_cache"), nullptr);
    EXPECT_GE(stats.get("eval_cache")->get("hits")->asInt(), 1);
}

TEST_F(ServerTest, RequestTimerCountsEveryServedRequestWithoutTracing)
{
    Trace &trace = Trace::instance();
    trace.setEnabled(false);
    trace.clear();
    startServer();
    EXPECT_FALSE(trace.enabled()); // start() leaves tracing as it was
    request(kSmallEval);
    request("{\"type\":\"ping\"}");
    request("{\"type\":\"no_such_type\"}");
    request(kSmallEval);
    const JsonValue stats = request("{\"type\":\"stats\"}");
    ASSERT_TRUE(stats.get("ok") && stats.get("ok")->asBool());
    EXPECT_EQ(stats.get("request_timer")->get("count")->asInt(), 4);
    EXPECT_GE(stats.get("request_timer")->get("max_us")->asNumber(), 0.0);
    EXPECT_FALSE(trace.enabled());
    EXPECT_EQ(trace.spanCount(), 0u);
}

TEST_F(ServerTest, CallerEnabledTracingStillRecordsServeSpans)
{
    Trace &trace = Trace::instance();
    trace.clear();
    trace.setEnabled(true);
    startServer();
    request(kSmallEval);
    request("{\"type\":\"ping\"}");
    EXPECT_TRUE(trace.enabled());
    EXPECT_EQ(trace.timerStat("server.request").count, 2u);
    EXPECT_EQ(trace.counterValue("server.requests"), 2.0);
    trace.setEnabled(false);
    trace.clear();
}

TEST_F(ServerTest, EvalRequestFingerprintsItsInputsOnce)
{
    // Every sweep a request can run: fleet (devices), consolidation
    // (spmv's runtime-sized rows) and predict (a full sweep without a
    // model). Each looks the same inputs up in the cache, and the
    // coalescing key hashes them too; one fingerprint serves them all.
    PredictRuntime::instance().setEnabled(true, kPredictDefaultTopK);
    startServer();
    Trace &trace = Trace::instance();
    trace.clear();
    trace.setEnabled(true);
    const JsonValue resp =
        request("{\"program\":\"spmv\",\"sizes\":{\"rows\":512,"
                "\"avgdeg\":8},\"devices\":4}");
    trace.setEnabled(false);
    PredictRuntime::instance().setEnabled(false, kPredictDefaultTopK);
    ASSERT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
    EXPECT_NE(resp.get("fleet"), nullptr);
    EXPECT_NE(resp.get("consolidation"), nullptr);
    EXPECT_NE(resp.get("predict"), nullptr);
    EXPECT_EQ(trace.counterValue("bindings.fingerprints"), 1.0);
    trace.clear();
}

TEST_F(ServerTest, DevicesFieldRunsTheFleetSweep)
{
    startServer();
    const JsonValue resp = request(
        "{\"program\":\"sumrows\",\"sizes\":{\"rows\":2048,"
        "\"cols\":2048},\"devices\":4}");
    ASSERT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
    ASSERT_NE(resp.get("devices"), nullptr);
    EXPECT_EQ(resp.get("devices")->asInt(), 4);
    const JsonValue *fleet = resp.get("fleet");
    ASSERT_NE(fleet, nullptr);
    EXPECT_GT(fleet->get("devices")->asInt(), 1);
    EXPECT_GT(fleet->get("speedup")->asNumber(), 1.0);
    EXPECT_LT(fleet->get("fleet_ms")->asNumber(),
              fleet->get("single_ms")->asNumber());

    // Requests without the field keep the pre-fleet response shape.
    const JsonValue flat = request(kSmallEval);
    ASSERT_TRUE(flat.get("ok") && flat.get("ok")->asBool());
    EXPECT_EQ(flat.get("devices"), nullptr);
    EXPECT_EQ(flat.get("fleet"), nullptr);

    // Out-of-range fleet sizes are rejected with an error line.
    const JsonValue bad =
        request("{\"program\":\"sumrows\",\"devices\":99}");
    ASSERT_TRUE(bad.get("ok"));
    EXPECT_FALSE(bad.get("ok")->asBool());
    EXPECT_NE(bad.get("error")->asString().find("devices"),
              std::string::npos);
}

TEST_F(ServerTest, AcceptLoopSurvivesSignalsAndAbortedConnects)
{
    startServer();

    // A no-op handler installed WITHOUT SA_RESTART: any syscall the
    // signal lands in returns EINTR instead of restarting.
    struct sigaction sa = {};
    struct sigaction old = {};
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0;
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    // Pepper the process with signals while clients connect and
    // abort instantly (SO_LINGER 0 close sends RST, so connections
    // can die in the accept queue -> ECONNABORTED/EAGAIN paths).
    for (int i = 0; i < 50; i++) {
        ASSERT_EQ(::kill(::getpid(), SIGUSR1), 0);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        struct sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                      socket_.c_str());
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr) == 0) {
            struct linger lg = {1, 0};
            ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
        }
        ::close(fd);
        ASSERT_EQ(::kill(::getpid(), SIGUSR1), 0);
    }

    // The listener must still be alive and answering.
    const JsonValue resp = request("{\"type\":\"ping\",\"id\":1}");
    EXPECT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
    const JsonValue eval = request(kSmallEval);
    EXPECT_TRUE(eval.get("ok") && eval.get("ok")->asBool());

    ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
}

TEST_F(ServerTest, FinishedConnectionThreadsAreReaped)
{
    startServer();
    request("{\"type\":\"ping\"}");
    const int threadsBefore = procCount("/proc/self/status", "Threads:");
    const int mapsBefore = procCount("/proc/self/maps", "");
    ASSERT_GT(threadsBefore, 0);
    ASSERT_GT(mapsBefore, 0);

    // One-shot clients, as `nppc --client` is: one connection each.
    for (int i = 0; i < 200; i++) {
        std::string response, error;
        ASSERT_TRUE(serveRoundTrip(socket_, "{\"type\":\"ping\"}",
                                   &response, &error))
            << error;
    }

    // Each accept joins the connections that already hung up, so only
    // the last few can still be around. An exited thread nobody joined
    // no longer counts under "Threads:" but keeps its stack mapped
    // (two map entries), so the map count is what exposes the leak:
    // 200 unjoined threads would add ~400 entries.
    EXPECT_LE(procCount("/proc/self/status", "Threads:"), threadsBefore + 3);
    EXPECT_LE(procCount("/proc/self/maps", ""), mapsBefore + 60);
}

TEST_F(ServerTest, ShutdownRequestStopsTheServer)
{
    startServer();
    const JsonValue resp = request("{\"type\":\"shutdown\"}");
    EXPECT_TRUE(resp.get("ok") && resp.get("ok")->asBool());
    server_->wait(); // must return: the accept loop has exited

    // The socket is still bound until stop() finishes teardown, but no
    // new evaluation is served after shutdown.
    server_->stop();
    std::string response, error;
    EXPECT_FALSE(serveRoundTrip(socket_, "{\"type\":\"ping\"}",
                                &response, &error));
}

TEST(JsonEscape, HostileLabelsAndVerdictsRoundTrip)
{
    // A quote, a backslash, a tab and a control byte: every JSON export
    // goes through one escaper, so each must come back intact.
    const std::string hostile = std::string("a\"b\\c\td") + '\x01' + "e";

    ConsolidationChoice cons;
    cons.verdict = hostile;
    ConsolidationCandidate consCand;
    consCand.label = hostile;
    consCand.verdict = hostile;
    cons.candidates.push_back(consCand);
    const std::optional<JsonValue> consJson = parseJson(cons.section().json);
    ASSERT_TRUE(consJson.has_value()) << cons.section().json;
    EXPECT_EQ(consJson->get("verdict")->asString(), hostile);
    const JsonValue &consParsed = consJson->get("candidates")->elements.at(0);
    EXPECT_EQ(consParsed.get("label")->asString(), hostile);
    EXPECT_EQ(consParsed.get("verdict")->asString(), hostile);

    FleetChoice fleet;
    FleetCandidate fleetCand;
    fleetCand.deviceCount = 2;
    fleetCand.verdict = hostile;
    fleet.candidates.push_back(fleetCand);
    const std::optional<JsonValue> fleetJson = parseJson(fleet.section().json);
    ASSERT_TRUE(fleetJson.has_value()) << fleet.section().json;
    EXPECT_EQ(fleetJson->get("candidates")->elements.at(0).get("verdict")
                  ->asString(),
              hostile);

    SearchExplanation ex;
    ex.valid = true;
    ex.controlDopNote = hostile;
    ex.sections.push_back(fleet.section());
    const std::optional<JsonValue> exJson =
        parseJson(searchExplanationJson(ex));
    ASSERT_TRUE(exJson.has_value()) << searchExplanationJson(ex);
    EXPECT_EQ(exJson->get("control_dop")->asString(), hostile);
    ASSERT_NE(exJson->get("fleet"), nullptr);
}

} // namespace
