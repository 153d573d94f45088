// cold_federated: the path of a user who submits a problem.  Each op
// turns the problem JSON text into a converged allocation JSON text:
// io::parse_json -> io::problem_from_json -> ShardedLrgpEngine (K=4,
// 4 threads) -> runUntilConverged -> io::allocation_to_json.
#include <memory>
#include <optional>

#include "io/json.hpp"
#include "io/problem_json.hpp"
#include "lrgp/compiled_problem.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_engine.hpp"
#include "shard/subproblems.hpp"
#include "workload/federated.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace lrgp;

constexpr int kShards = 4;
constexpr int kThreads = 4;

/// 20 groups x 10 flows x 125 c-nodes = 25,000 classes, 2 tight groups,
/// plus a hub node that flow 0 of every group routes through: a
/// boundary resource, so every solve exchanges shard budgets.  The hub
/// hosts no class, so only its price bounds its load; at 0.95 of its
/// demand bound the price is positive during the transient (budgets
/// move) and the converged load stays below capacity.  At 0.5 the
/// serial and the sharded engine both settle 0.02-0.4% above it.
workload::FederatedWorkloadOptions instance(std::uint64_t seed) {
    workload::FederatedWorkloadOptions o;
    o.groups = 20;
    o.flows_per_group = 10;
    o.cnodes_per_group = 125;
    o.tight_groups = 2;
    o.coupling_cost = 2.0;
    o.coupling_capacity_factor = 0.95;
    o.seed = static_cast<std::uint32_t>(seed);
    return o;
}

struct Solve {
    double wall_ms = 0.0;
    bool converged = false;
    int iterations = 0;
    double utility = 0.0;
    model::Allocation allocation;
    std::string json;  ///< the allocation document handed back to the user
    EngineCounters counters;
    shard::ReconcileStats reconcile;
    std::size_t boundary_nodes = 0;
};

/// One cold solve.  The op ends when the allocation text exists; the
/// parsed document and the engine are released after the clock stops.
Solve solve_once(const std::string& text, SpanLog& log, bool phase_times) {
    Solve out;
    io::JsonValue doc;
    std::optional<shard::ShardedLrgpEngine> engine;
    shard::ShardedConfig config;
    config.shards = kShards;
    config.threads = kThreads;
    config.member_factory = [&log, phase_times](model::ProblemSpec sub,
                                                core::LrgpOptions options) {
        SpanScope span(log, "lrgp.engine_build");
        core::EngineConfig member;
        member.threads = 1;
        member.incremental = true;
        member.collect_phase_times = phase_times;
        return std::unique_ptr<core::Engine>(
            std::make_unique<core::ParallelLrgpEngine>(std::move(sub), options, member));
    };

    int solve_span = -1;
    const std::int64_t t0 = now_ns();
    {
        SpanScope op(log, "op");
        {
            SpanScope span(log, "io.parse_json");
            doc = io::parse_json(text);
        }
        std::optional<model::ProblemSpec> spec;
        {
            SpanScope span(log, "io.problem_from_json");
            spec.emplace(io::problem_from_json(doc));
        }
        {
            SpanScope span(log, "shard.engine_build");
            engine.emplace(std::move(*spec), core::LrgpOptions{}, config);
        }
        {
            SpanScope span(log, "lrgp.solve");
            solve_span = span.index();
            out.converged = engine->runUntilConverged(kMaxIterations).has_value();
        }
        {
            SpanScope span(log, "io.allocation_to_json");
            out.json = io::allocation_to_json(engine->problem(), engine->allocation()).dump();
        }
    }
    out.wall_ms = static_cast<double>(now_ns() - t0) * 1e-6;

    out.iterations = engine->iterationsRun();
    out.utility = engine->currentUtility();
    out.allocation = engine->allocation();
    for (int s = 0; s < engine->shardCount(); ++s) {
        const auto* member = dynamic_cast<const core::ParallelLrgpEngine*>(&engine->shardEngine(s));
        if (member != nullptr) out.counters += counters_of(*member);
    }
    attach_counters(log, solve_span, out.counters);
    out.reconcile = engine->reconcileStats();
    out.boundary_nodes = engine->boundaryNodeCount();
    return out;
}

/// Re-runs the shard and compile stages the engine constructor performs
/// internally, each under its own probe span, outside any op.
void probe_layers(const model::ProblemSpec& spec, SpanLog& log) {
    shard::PartitionOptions partition;  // ShardedConfig's defaults
    partition.shards = kShards;
    {
        SpanScope span(log, "probe.shard.partition");
        (void)shard::make_partition(spec, partition);
    }
    std::optional<shard::SubproblemSet> set;
    {
        SpanScope span(log, "probe.shard.subproblems");
        set.emplace(shard::build_subproblems(spec, partition));
    }
    SpanScope span(log, "probe.lrgp.compile");
    for (const auto& member : set->members)
        if (member.spec) core::CompiledProblem compiled(*member.spec);
}

struct Setup {
    model::ProblemSpec spec;
    std::string text;  ///< the problem JSON a user submits
    std::optional<Reference> reference;
    Solve first;  ///< warm-up op; every timed op must reproduce it bitwise
};

std::unique_ptr<Setup> make_setup(std::uint64_t seed) {
    auto setup = std::make_unique<Setup>(Setup{workload::make_federated_workload(instance(seed)),
                                               {}, std::nullopt, {}});
    setup->text = io::problem_to_json_string(setup->spec);
    setup->reference = serial_reference(setup->spec, kMaxIterations, kHorizon);
    SpanLog untraced;
    setup->first = solve_once(setup->text, untraced, false);
    return setup;
}

/// "" when the op's allocation passes every check.
std::string check(const Setup& setup, const Solve& s, bool first) {
    if (!s.converged) return "no convergence within " + std::to_string(kMaxIterations) + " iterations";
    if (!first && (!same_bits(s.allocation, setup.first.allocation) ||
                   s.json != setup.first.json))
        return "allocation differs from the run's first op";
    if (auto why = feasibility_error(setup.spec, s.allocation); !why.empty()) return why;
    const Reference& ref = *setup.reference;
    if (rel_gap(s.utility, ref.utility) > kTolerance)
        return "utility " + std::to_string(s.utility) + " is more than 1% from the serial reference " +
               std::to_string(ref.utility);
    if (rel_gap(s.utility, ref.long_level) > kTolerance)
        return "utility " + std::to_string(s.utility) +
               " is more than 1% from the long-horizon level " + std::to_string(ref.long_level);
    return {};
}

}  // namespace

Result run_cold_federated(const Options& options, SpanLog& log) {
    Result result;
    double setup_s = 0.0;
    auto setup = repeated_setup(kSetupReps, [&] { return make_setup(options.seed); }, setup_s);
    if (!setup->reference) {
        result.failSetup("serial reference did not converge");
        return result;
    }
    if (auto why = check(*setup, setup->first, true); !why.empty()) result.failSetup(why);

    std::vector<double> untraced_ms, traced_ms;
    double iterations = 0.0;
    EngineCounters counters;
    shard::ReconcileStats reconcile;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::uint64_t op = 0; now_ns() < end; ++op) {
        const bool traced = options.trace && op % 2 == 1;
        log.enabled = traced;
        log.op = static_cast<std::uint32_t>(op);
        const Solve s = solve_once(setup->text, log, traced);
        ++result.attempted;
        iterations += s.iterations;
        if (auto why = check(*setup, s, false); !why.empty()) result.failOp(op, why);
        (traced ? traced_ms : untraced_ms).push_back(s.wall_ms);
        if (traced) {
            counters += s.counters;
            reconcile.passes += s.reconcile.passes;
            reconcile.budget_updates += s.reconcile.budget_updates;
            reconcile.shard_wakeups += s.reconcile.shard_wakeups;
            probe_layers(setup->spec, log);
        }
        log.enabled = false;
    }
    const double per_op = iterations / static_cast<double>(result.attempted);

    if (!options.trace) {
        set_end_to_end(result, setup_s, untraced_ms);
        return result;
    }
    const SpanSummary spans = set_span_metrics(result, log, traced_ms, untraced_ms);
    const double n = static_cast<double>(std::max<std::size_t>(traced_ms.size(), 1));
    const auto span_ms = [&](const char* name) { return spans.ms(name) / n; };
    result.set("io.parse_json_ms", span_ms("io.parse_json"), "ms");
    result.set("io.problem_from_json_ms", span_ms("io.problem_from_json"), "ms");
    result.set("io.allocation_to_json_ms", span_ms("io.allocation_to_json"), "ms");
    result.set("io.input_mb", static_cast<double>(setup->text.size()) / (1024.0 * 1024.0), "MiB");
    result.set("lrgp.compile_ms", span_ms("probe.lrgp.compile"), "ms");
    result.set("lrgp.engine_build_ms", span_ms("lrgp.engine_build"), "ms");
    result.set("shard.partition_ms", span_ms("probe.shard.partition"), "ms");
    result.set("shard.subproblems_ms", span_ms("probe.shard.subproblems"), "ms");
    result.set("shard.engine_build_ms", span_ms("shard.engine_build"), "ms");
    result.set("lrgp.solve_ms", span_ms("lrgp.solve"), "ms");
    result.set("lrgp.iterations", per_op, "count");
    set_engine_metrics(result, counters);
    result.set("shard.boundary_nodes", static_cast<double>(setup->first.boundary_nodes), "count");
    result.set("shard.reconcile_passes", static_cast<double>(reconcile.passes) / n, "count");
    result.set("shard.budget_updates", static_cast<double>(reconcile.budget_updates) / n, "count");
    result.set("shard.shard_wakeups", static_cast<double>(reconcile.shard_wakeups) / n, "count");
    return result;
}

}  // namespace e2e
