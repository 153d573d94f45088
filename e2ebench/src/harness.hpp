// Shared pieces of the end-to-end benchmark: the bench-side span log,
// latency statistics, output checks, the serial reference solve and the
// result record every workload fills.
//
// Spans are recorded only around calls into the library's public API
// (io, shard, lrgp, lrgp/enactment, fastpath); nothing inside src/ is
// instrumented.  With tracing off a span is a single branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lrgp/parallel_engine.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

// Shared by every workload.
constexpr int kSetupReps = 3;         ///< set-ups per run; setup_s is their median
constexpr int kMaxIterations = 5000;  ///< runUntilConverged budget
constexpr int kHorizon = 200;         ///< reference iterations past the detector
constexpr double kTolerance = 0.01;   ///< allowed relative utility gap to a reference

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;  ///< Chrome trace file for the span log; empty = none
};

/// One bench-side span around a call into a layer.  The layer is the
/// name's prefix before the first '.'; "op" is the root of one timed
/// operation and "probe.*" spans re-run a layer stage outside any op.
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t op = 0;
    std::vector<std::pair<const char*, double>> args;
};

/// In-memory span log, written out once when the run ends.
class SpanLog {
public:
    bool enabled = false;
    std::uint32_t op = 0;  ///< op id stamped on spans opened from now on

    int open(const char* name);
    void close(int index);
    /// Attaches a numeric argument (e.g. a PhaseTimes delta) to a span.
    void arg(int index, const char* key, double value);
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    /// Chrome trace_event JSON; returns false if the file cannot be written.
    bool writeChromeTrace(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class SpanScope {
public:
    SpanScope(SpanLog& log, const char* name)
        : log_(log), index_(log.enabled ? log.open(name) : -1) {}
    ~SpanScope() {
        if (index_ >= 0) log_.close(index_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    [[nodiscard]] int index() const noexcept { return index_; }

private:
    SpanLog& log_;
    int index_;
};

/// Per-op attribution of a traced run.
struct SpanSummary {
    std::uint64_t ops = 0;
    double op_ms = 0.0;            ///< summed wall of the "op" spans
    double unattributed_ms = 0.0;  ///< op wall covered by no layer span
    std::map<std::string, double> total_ms;  ///< by span name (probes keep their prefix)
    std::map<std::string, std::uint64_t> count;  ///< spans by name
    std::map<std::string, double> self_ms;   ///< by layer, op spans excluded

    /// Summed wall of the spans named `name` (0 if none).
    [[nodiscard]] double ms(const char* name) const;
};
[[nodiscard]] SpanSummary summarize(const SpanLog& log);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one run reports: the op counts, the checks that failed and the
/// metrics of the requested kind.
class Result {
public:
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool setup_ok = true;

    /// Counts a failed op and keeps the first few reasons for stderr.
    void failOp(std::uint64_t op, const std::string& why);
    /// A check outside any op (set-up, reference) failed.
    void failSetup(const std::string& why);
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
    [[nodiscard]] bool correct() const noexcept { return setup_ok && failed == 0 && attempted > 0; }
    [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
};

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double peak_rss_mb();

/// First capacity or box violation of `alloc` against `spec`, or "".
[[nodiscard]] std::string feasibility_error(const lrgp::model::ProblemSpec& spec,
                                            const lrgp::model::Allocation& alloc);
[[nodiscard]] bool same_bits(const lrgp::model::Allocation& a, const lrgp::model::Allocation& b);
[[nodiscard]] double rel_gap(double value, double reference);

/// The serial LrgpOptimizer's solve of a problem, continued past its
/// detector so a solver that stops early can be told apart from one
/// that converged.
struct Reference {
    double utility = 0.0;     ///< utility when the detector fired
    double long_level = 0.0;  ///< mean utility over the iterations past it
};
[[nodiscard]] std::optional<Reference> serial_reference(const lrgp::model::ProblemSpec& spec,
                                                        int max_iterations, int horizon);

/// Runs `make` `reps` times, each result destroyed before the next is
/// built, and keeps the last one; `median_s` gets the median duration.
template <class Make>
auto repeated_setup(int reps, Make&& make, double& median_s) {
    std::vector<double> seconds;
    decltype(make()) kept;
    for (int r = 0; r < reps; ++r) {
        kept = {};
        const std::int64_t t0 = now_ns();
        kept = make();
        seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    median_s = median(seconds);
    return kept;
}

/// The end-to-end metrics every workload reports.  Latency is reported
/// as p90 only: the median flips between the host's speed modes from
/// run to run (see README.md).
void set_end_to_end(Result& result, double setup_s, const std::vector<double>& op_ms);

/// Overhead of one op population over another, in percent of the base median.
[[nodiscard]] double overhead_pct(const std::vector<double>& with, const std::vector<double>& base);

/// Fills the span-derived per-layer metrics (self time per layer,
/// unattributed share, tracing overhead) and returns the summary.
SpanSummary set_span_metrics(Result& result, const SpanLog& log,
                             const std::vector<double>& traced_ms,
                             const std::vector<double>& untraced_ms);

/// The engine layer's public counters, summed over the engines an op
/// ran (the member engines of a sharded engine) or differenced across
/// an op (a long-lived incremental engine).
struct EngineCounters {
    lrgp::core::PhaseTimes phases;
    lrgp::core::IncrementalStats inc;
    std::uint64_t iterations = 0;

    EngineCounters& operator+=(const EngineCounters& other);
    EngineCounters& operator-=(const EngineCounters& other);
};
[[nodiscard]] EngineCounters counters_of(const lrgp::core::ParallelLrgpEngine& engine);

/// Attaches an op's PhaseTimes and iteration deltas to its solve span.
void attach_counters(SpanLog& log, int span, const EngineCounters& counters);

/// lrgp.{rate,node,link,reduce}_ns_per_iter and the lrgp.inc.* ratios.
void set_engine_metrics(Result& result, const EngineCounters& counters);

/// splitmix64: the benchmark's only random source, so every input is a
/// function of the workload seed alone.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t state_;
};

}  // namespace e2e
