#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "lrgp/optimizer.hpp"

namespace e2e {

int SpanLog::open(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void SpanLog::close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::arg(int index, const char* key, double value) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].args.emplace_back(key, value);
}

bool SpanLog::writeChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                     "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%u",
                     i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - origin) * 1e-3,
                     static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.op);
        for (const auto& [key, value] : s.args) std::fprintf(out, ",\"%s\":%.17g", key, value);
        std::fprintf(out, "}}");
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

namespace {

std::string layer_of(const char* name) {
    const char* dot = std::strchr(name, '.');
    return dot == nullptr ? std::string(name) : std::string(name, dot);
}

double span_ms(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) * 1e-6; }

}  // namespace

SpanSummary summarize(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span& s : spans)
        if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += span_ms(s);

    SpanSummary summary;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double self = span_ms(s) - child_ms[i];
        summary.total_ms[s.name] += span_ms(s);
        ++summary.count[s.name];
        if (std::strcmp(s.name, "op") == 0) {
            ++summary.ops;
            summary.op_ms += span_ms(s);
            summary.unattributed_ms += self;
        } else if (std::strncmp(s.name, "probe.", 6) != 0) {
            summary.self_ms[layer_of(s.name)] += self;
        }
    }
    return summary;
}

double SpanSummary::ms(const char* name) const {
    const auto it = total_ms.find(name);
    return it == total_ms.end() ? 0.0 : it->second;
}

void Result::failOp(std::uint64_t op, const std::string& why) {
    ++failed;
    if (failures_.size() < 8) failures_.push_back("op " + std::to_string(op) + ": " + why);
}

void Result::failSetup(const std::string& why) {
    setup_ok = false;
    failures_.push_back("set-up: " + why);
}

void Result::set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string feasibility_error(const lrgp::model::ProblemSpec& spec,
                              const lrgp::model::Allocation& alloc) {
    const auto report = lrgp::model::check_feasibility(spec, alloc);
    return report.feasible() ? std::string() : report.violations.front().detail;
}

bool same_bits(const lrgp::model::Allocation& a, const lrgp::model::Allocation& b) {
    return a.rates.size() == b.rates.size() && a.populations == b.populations &&
           std::memcmp(a.rates.data(), b.rates.data(), a.rates.size() * sizeof(double)) == 0;
}

double rel_gap(double value, double reference) {
    return std::abs(value - reference) / std::max(std::abs(reference), 1e-300);
}

std::optional<Reference> serial_reference(const lrgp::model::ProblemSpec& spec,
                                          int max_iterations, int horizon) {
    lrgp::core::LrgpOptimizer oracle(spec);
    const auto at = oracle.runUntilConverged(max_iterations);
    if (!at) return std::nullopt;
    Reference ref;
    ref.utility = oracle.currentUtility();
    double sum = 0.0;
    for (int i = 0; i < horizon; ++i) sum += oracle.step().utility;
    ref.long_level = sum / horizon;
    return ref;
}

void set_end_to_end(Result& result, double setup_s, const std::vector<double>& op_ms) {
    result.set("setup_s", setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    result.set("op_p90_ms", quantile(op_ms, 0.90), "ms");
}

double overhead_pct(const std::vector<double>& with, const std::vector<double>& base) {
    const double b = median(base);
    return b > 0.0 ? 100.0 * (median(with) - b) / b : 0.0;
}

SpanSummary set_span_metrics(Result& result, const SpanLog& log,
                             const std::vector<double>& traced_ms,
                             const std::vector<double>& untraced_ms) {
    SpanSummary summary = summarize(log);
    const double ops = static_cast<double>(std::max<std::uint64_t>(summary.ops, 1));
    for (const char* layer : {"io", "shard", "lrgp", "enact", "fastpath"}) {
        const auto it = summary.self_ms.find(layer);
        result.set(std::string("self.") + layer + "_ms",
                   it == summary.self_ms.end() ? 0.0 : it->second / ops, "ms");
    }
    const double unattributed =
        summary.op_ms > 0.0 ? 100.0 * summary.unattributed_ms / summary.op_ms : 0.0;
    if (unattributed > 5.0)
        std::cerr << "warning: " << unattributed << "% of op wall time is in no layer span\n";
    result.set("trace.unattributed_pct", unattributed, "%");
    result.set("trace.overhead_pct", overhead_pct(traced_ms, untraced_ms), "%");
    return summary;
}

EngineCounters& EngineCounters::operator+=(const EngineCounters& o) {
    phases.rate_ns += o.phases.rate_ns;
    phases.node_ns += o.phases.node_ns;
    phases.link_ns += o.phases.link_ns;
    phases.reduce_ns += o.phases.reduce_ns;
    phases.iterations += o.phases.iterations;
    inc.dirty_flows += o.inc.dirty_flows;
    inc.skipped_solves += o.inc.skipped_solves;
    inc.dirty_nodes += o.inc.dirty_nodes;
    inc.node_cache_hits += o.inc.node_cache_hits;
    inc.rank_cache_hits += o.inc.rank_cache_hits;
    inc.dirty_links += o.inc.dirty_links;
    inc.utility_cache_hits += o.inc.utility_cache_hits;
    iterations += o.iterations;
    return *this;
}

EngineCounters& EngineCounters::operator-=(const EngineCounters& o) {
    phases.rate_ns -= o.phases.rate_ns;
    phases.node_ns -= o.phases.node_ns;
    phases.link_ns -= o.phases.link_ns;
    phases.reduce_ns -= o.phases.reduce_ns;
    phases.iterations -= o.phases.iterations;
    inc.dirty_flows -= o.inc.dirty_flows;
    inc.skipped_solves -= o.inc.skipped_solves;
    inc.dirty_nodes -= o.inc.dirty_nodes;
    inc.node_cache_hits -= o.inc.node_cache_hits;
    inc.rank_cache_hits -= o.inc.rank_cache_hits;
    inc.dirty_links -= o.inc.dirty_links;
    inc.utility_cache_hits -= o.inc.utility_cache_hits;
    iterations -= o.iterations;
    return *this;
}

EngineCounters counters_of(const lrgp::core::ParallelLrgpEngine& engine) {
    EngineCounters c;
    c.phases = engine.phaseTimes();
    c.inc = engine.incrementalStats();
    c.iterations = static_cast<std::uint64_t>(engine.iterationsRun());
    return c;
}

void attach_counters(SpanLog& log, int span, const EngineCounters& c) {
    log.arg(span, "rate_ns", static_cast<double>(c.phases.rate_ns));
    log.arg(span, "node_ns", static_cast<double>(c.phases.node_ns));
    log.arg(span, "link_ns", static_cast<double>(c.phases.link_ns));
    log.arg(span, "reduce_ns", static_cast<double>(c.phases.reduce_ns));
    log.arg(span, "iterations", static_cast<double>(c.iterations));
}

namespace {

double ratio(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void set_engine_metrics(Result& result, const EngineCounters& c) {
    const auto per_iter = [&](std::uint64_t ns) {
        return c.phases.iterations == 0
                   ? 0.0
                   : static_cast<double>(ns) / static_cast<double>(c.phases.iterations);
    };
    result.set("lrgp.rate_ns_per_iter", per_iter(c.phases.rate_ns), "ns");
    result.set("lrgp.node_ns_per_iter", per_iter(c.phases.node_ns), "ns");
    result.set("lrgp.link_ns_per_iter", per_iter(c.phases.link_ns), "ns");
    result.set("lrgp.reduce_ns_per_iter", per_iter(c.phases.reduce_ns), "ns");
    result.set("lrgp.inc.rate_solve_ratio",
               ratio(c.inc.dirty_flows, c.inc.dirty_flows + c.inc.skipped_solves), "ratio");
    result.set("lrgp.inc.node_rerun_ratio",
               ratio(c.inc.dirty_nodes, c.inc.dirty_nodes + c.inc.node_cache_hits), "ratio");
    result.set("lrgp.inc.rank_cache_hit_ratio", ratio(c.inc.rank_cache_hits, c.inc.dirty_nodes),
               "ratio");
    result.set("lrgp.inc.utility_cache_hit_ratio",
               ratio(c.inc.utility_cache_hits, c.iterations), "ratio");
}

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

}  // namespace e2e
