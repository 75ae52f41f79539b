/**
 * @file
 * Traced-run exporter and per-layer metrics. Spans come from the trace
 * registry's chrome export (name, thread, start, duration); a span's
 * parent is the innermost span on the same thread whose interval
 * contains its start, and its self time is its duration minus the time
 * its direct children cover. The run is invalid when the registry's
 * ring dropped spans, since self times would then be computed from a
 * partial record.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "perfbench.h"
#include "server/json.h"
#include "support/trace.h"

namespace perfbench {
namespace {

using npp::JsonValue;

struct Span
{
    std::string name;
    int64_t tid = 0;
    double ts = 0.0;  //!< us
    double dur = 0.0; //!< us
};

struct SpanTotals
{
    uint64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};

std::map<std::string, SpanTotals>
selfTimes(std::vector<Span> spans)
{
    std::sort(spans.begin(), spans.end(), [](const Span &a, const Span &b) {
        if (a.tid != b.tid)
            return a.tid < b.tid;
        if (a.ts != b.ts)
            return a.ts < b.ts;
        return a.dur > b.dur; // an enclosing span first
    });
    std::map<std::string, SpanTotals> out;
    std::vector<double> childUs(spans.size(), 0.0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        while (!stack.empty() &&
               (spans[stack.back()].tid != s.tid ||
                spans[stack.back()].ts + spans[stack.back()].dur <= s.ts))
            stack.pop_back();
        if (!stack.empty())
            childUs[stack.back()] += s.dur;
        stack.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); i++) {
        SpanTotals &t = out[spans[i].name];
        t.count++;
        t.totalUs += spans[i].dur;
        t.selfUs += std::max(0.0, spans[i].dur - childUs[i]);
    }
    return out;
}

std::vector<Span>
recordedSpans()
{
    std::vector<Span> spans;
    std::optional<JsonValue> doc =
        npp::parseJson(npp::Trace::instance().chromeTraceJson());
    const JsonValue *events = doc ? doc->get("traceEvents") : nullptr;
    if (!events)
        return spans;
    for (const JsonValue &e : events->elements)
        spans.push_back({e.get("name") ? e.get("name")->string : "",
                         e.get("tid") ? e.get("tid")->asInt() : 0,
                         e.get("ts") ? e.get("ts")->number : 0.0,
                         e.get("dur") ? e.get("dur")->number : 0.0});
    return spans;
}

std::map<std::string, double>
recordedCounters()
{
    std::map<std::string, double> out;
    std::optional<JsonValue> doc =
        npp::parseJson(npp::Trace::instance().flatJson());
    if (const JsonValue *counters = doc ? doc->get("counters") : nullptr)
        for (const auto &[name, v] : counters->members)
            out[name] = v.number;
    return out;
}

void
writeSelfTable(const std::string &path,
               const std::map<std::string, SpanTotals> &spans)
{
    std::vector<std::pair<std::string, SpanTotals>> rows(spans.begin(),
                                                         spans.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfUs > b.second.selfUs;
    });
    std::ofstream out(path);
    out << "span\tcount\ttotal_ms\tself_ms\n";
    for (const auto &[name, t] : rows) {
        char line[256];
        std::snprintf(line, sizeof line, "%s\t%llu\t%.3f\t%.3f\n",
                      name.c_str(), static_cast<unsigned long long>(t.count),
                      t.totalUs / 1000.0, t.selfUs / 1000.0);
        out << line;
    }
}

} // namespace

std::map<std::string, LayerMetric>
layerMetrics(const Phase &untraced, const Phase &traced,
             const std::string &outDir, std::string *error)
{
    npp::Trace &trace = npp::Trace::instance();
    const std::map<std::string, SpanTotals> spans = selfTimes(recordedSpans());
    const std::map<std::string, double> counters = recordedCounters();
    const double dropped = static_cast<double>(trace.droppedSpans());
    if (dropped > 0)
        *error = "the trace ring dropped " +
                 std::to_string(static_cast<uint64_t>(dropped)) +
                 " spans; per-layer numbers are incomplete";
    if (!outDir.empty()) {
        trace.writeChromeTrace(outDir + "/trace.json");
        writeSelfTable(outDir + "/selftime.tsv", spans);
    }

    const double ops =
        static_cast<double>(std::max<size_t>(traced.opMs.size(), 1));
    const auto span = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? SpanTotals{} : it->second;
    };
    const auto totalMs = [&](const char *name) {
        return span(name).totalUs / 1000.0;
    };
    const auto selfMs = [&](const char *name) {
        return span(name).selfUs / 1000.0;
    };
    const auto counter = [&](const char *name) {
        auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    const auto layer = [&](const char *name) {
        auto it = traced.layer.find(name);
        return it == traced.layer.end() ? 0.0 : it->second;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    std::map<std::string, LayerMetric> m;
    const auto put = [&](const char *name, double v, const char *unit) {
        m[name] = LayerMetric{v, unit};
    };

    // sim executor, timing model, fleet and consolidation sweeps.
    const double blocks = counter("sim.blocks");
    const double classed = counter("sim.classed_blocks");
    put("sim.execute_ms", totalMs("sim.execute") / ops, "ms/op");
    put("sim.run_self_ms", selfMs("sim.run") / ops, "ms/op");
    put("sim.runs", counter("sim.runs") / ops, "1/op");
    put("sim.blocks", blocks / ops, "1/op");
    put("sim.classed_blocks", classed / ops, "1/op");
    put("sim.classed_ratio", ratio(classed, blocks), "ratio");
    put("sim.class_fallbacks", counter("sim.class_fallbacks") / ops, "1/op");
    put("sim.us_per_block",
        ratio(span("sim.execute").totalUs, std::max(blocks - classed, 1.0)),
        "us");
    put("sim.fleet_search_ms", totalMs("fleet.search") / ops, "ms/op");
    put("sim.consolidation_search_ms", totalMs("consolidation.search") / ops,
        "ms/op");

    // EvalCache tiers.
    const double hits = counter("evalcache.hits");
    const double misses = counter("evalcache.misses");
    put("evalcache.hits", hits / ops, "1/op");
    put("evalcache.misses", misses / ops, "1/op");
    put("evalcache.hit_ratio", ratio(hits, hits + misses), "ratio");
    put("evalcache.disk_hits", counter("evalcache.disk_hits") / ops, "1/op");
    put("evalcache.disk_stores", counter("evalcache.disk_stores") / ops,
        "1/op");
    put("evalcache.disk_rejects", counter("evalcache.disk_rejects"), "count");
    put("evalcache.bytes", layer("evalcache.bytes"), "bytes");

    // analysis: constraint generation + Algorithm-1 search.
    const double candidates = counter("search.candidates");
    put("analysis.search_ms", totalMs("analysis.search") / ops, "ms/op");
    put("analysis.candidates", candidates / ops, "1/op");
    put("analysis.us_per_candidate",
        ratio(span("analysis.search").totalUs, candidates), "us");

    // codegen (+opt).
    put("codegen.compile_self_ms", selfMs("codegen.compile") / ops, "ms/op");
    put("codegen.compile_calls", counter("compile.calls") / ops, "1/op");
    put("codegen.cuda_bytes", layer("codegen.cuda_bytes"),
        "bytes");

    // predict.
    const double survivors = counter("predict.survivors");
    const double pruned = counter("predict.pruned");
    put("predict.sweep_self_ms", selfMs("predict.sweep") / ops, "ms/op");
    put("predict.train_ms", layer("predict.train_ms"), "ms");
    put("predict.survivors", survivors / ops, "1/op");
    put("predict.pruned", pruned / ops, "1/op");
    put("predict.prune_ratio", ratio(pruned, pruned + survivors), "ratio");

    // server (one op is one request round trip).
    const double roundTrip = layer("server.round_trip_ms");
    put("server.round_trip_ms", roundTrip, "ms");
    put("server.round_trip_p99_ms",
        layer("server.round_trip_p99_ms"), "ms");
    put("server.request_self_ms", selfMs("server.request") / ops, "ms");
    put("server.transport_ms",
        roundTrip > 0.0 ? roundTrip - totalMs("server.request") / ops : 0.0,
        "ms");
    put("server.input_build_ms", layer("server.input_build_ms"),
        "ms");
    put("server.response_bytes", layer("server.response_bytes"),
        "bytes");
    put("server.coalesced", layer("server.coalesced"), "count");
    put("server.sim_ratio", layer("server.sim_ratio"), "ratio");
    put("server.errors", layer("server.errors"), "count");

    // apps (+runtime reference interpreter).
    put("apps.run_ms", totalMs("apps.run") / ops, "ms/op");
    put("apps.launch_self_ms", selfMs("app.launch") / ops, "ms/op");
    put("apps.host_ms", selfMs("apps.run") / ops, "ms/op");
    put("apps.launches", counter("app.launches") / ops, "1/op");
    put("apps.pool_wait_ms", layer("apps.pool_wait_ms"), "ms");

    // support: the task pool and the tracing itself.
    put("support.parallel_for_ms", totalMs("parallel.for") / ops, "ms/op");
    put("trace.overhead_pct",
        100.0 * ratio(untraced.opsPerS() - traced.opsPerS(),
                      untraced.opsPerS()),
        "%");
    put("trace.dropped_spans", dropped, "count");
    return m;
}

} // namespace perfbench
