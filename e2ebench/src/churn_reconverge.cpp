// churn_reconverge: the warm control loop.  Seeded Poisson disturbances
// (node capacity, flow leave/rejoin, class n_max) arrive at a fixed
// wall-clock rate; each loop pass applies the disturbances that are
// due (up to the next reference point) to an incremental
// ParallelLrgpEngine and mirrors them into a Fastpath plant,
// reconverges, offers the allocation to an EnactmentController whose
// callback enacts it on the plant, and then advances the plant by a
// fixed simulated window.  A disturbance's latency runs from its due
// time to the enactment offer of the allocation that absorbed it.
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "fastpath/fastpath.hpp"
#include "lrgp/enactment.hpp"
#include "workload/federated.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace lrgp;

/// Disturbances per wall second: keeps the loop about an eighth busy.
/// At 75/s (a fifth busy) queueing amplified the host's run-to-run
/// speed swings into the latency tail.
constexpr double kRatePerSecond = 40.0;
/// Simulated plant seconds per loop pass (5 fastpath quanta).
constexpr double kWindowSeconds = 0.25;
constexpr int kReferenceEvery = 16;
constexpr std::size_t kMaxFlowsOut = 4;

/// 20 groups x 5 flows x 50 c-nodes = 5,000 classes, 5 tight groups.
workload::FederatedWorkloadOptions instance(std::uint64_t seed) {
    workload::FederatedWorkloadOptions o;
    o.groups = 20;
    o.flows_per_group = 5;
    o.cnodes_per_group = 50;
    o.tight_groups = 5;
    o.seed = static_cast<std::uint32_t>(seed);
    return o;
}

enum class Kind { kCapacity, kFlow, kClassMax };

struct Disturbance {
    std::int64_t due_ns = 0;  ///< offset from the start of the measured loop
    Kind kind = Kind::kCapacity;
    std::uint32_t target = 0;  ///< node, flow or class index
    double capacity = 0.0;     ///< kCapacity: new node capacity
    bool active = false;       ///< kFlow: true = rejoin, false = leave
    int max_consumers = 0;     ///< kClassMax: new n_max
};

/// The disturbance schedule for `seconds` of wall time: kinds cycle in
/// equal proportions, gaps are exponential.  Capacity changes hit only
/// nodes priced at the initial equilibrium (`priced`), +-30% of their
/// base capacity; at most kMaxFlowsOut flows are out at a time.
std::vector<Disturbance> make_schedule(const model::ProblemSpec& base,
                                       const std::vector<std::uint32_t>& priced,
                                       std::uint64_t seed, double seconds) {
    Rng rng(seed ^ 0x636875726eull);
    std::vector<Disturbance> schedule;
    std::deque<std::uint32_t> out;
    double t = 0.0;
    for (std::size_t k = 0;; ++k) {
        t += -std::log1p(-rng.uniform()) / kRatePerSecond;
        if (t >= seconds) break;
        Disturbance d;
        d.due_ns = static_cast<std::int64_t>(t * 1e9);
        d.kind = static_cast<Kind>(k % 3);
        switch (d.kind) {
            case Kind::kCapacity:
                d.target = priced[rng.below(priced.size())];
                d.capacity = base.nodes()[d.target].capacity * (0.7 + 0.6 * rng.uniform());
                break;
            case Kind::kFlow:
                if (!out.empty() && (out.size() >= kMaxFlowsOut || rng.uniform() < 0.5)) {
                    d.target = out.front();
                    d.active = true;
                    out.pop_front();
                } else {
                    do {
                        d.target = static_cast<std::uint32_t>(rng.below(base.flowCount()));
                    } while (std::find(out.begin(), out.end(), d.target) != out.end());
                    out.push_back(d.target);
                }
                break;
            case Kind::kClassMax:
                d.target = static_cast<std::uint32_t>(rng.below(base.classCount()));
                d.max_consumers = std::max(
                    1, static_cast<int>(std::lround(base.classes()[d.target].max_consumers *
                                                    (0.5 + rng.uniform()))));
                break;
        }
        schedule.push_back(d);
    }
    return schedule;
}

void apply(core::Engine& engine, const Disturbance& d) {
    switch (d.kind) {
        case Kind::kCapacity:
            engine.setNodeCapacity(model::NodeId(d.target), d.capacity);
            break;
        case Kind::kFlow:
            if (d.active) engine.restoreFlow(model::FlowId(d.target));
            else engine.removeFlow(model::FlowId(d.target));
            break;
        case Kind::kClassMax:
            engine.setClassMaxConsumers(model::ClassId(d.target), d.max_consumers);
            break;
    }
}

void apply(model::ProblemSpec& spec, const Disturbance& d) {
    switch (d.kind) {
        case Kind::kCapacity:
            spec.setNodeCapacity(model::NodeId(d.target), d.capacity);
            break;
        case Kind::kFlow:
            spec.setFlowActive(model::FlowId(d.target), d.active);
            break;
        case Kind::kClassMax:
            spec.setClassMaxConsumers(model::ClassId(d.target), d.max_consumers);
            break;
    }
}

/// The plant has no n_max: populations arrive with the next enactment.
void mirror(fastpath::Fastpath& plant, const Disturbance& d) {
    if (d.kind == Kind::kCapacity) plant.setNodeCapacity(model::NodeId(d.target), d.capacity);
    else if (d.kind == Kind::kFlow) plant.setFlowActive(model::FlowId(d.target), d.active);
}

struct Setup {
    model::ProblemSpec spec;  ///< base instance; the plant reads it
    std::unique_ptr<core::ParallelLrgpEngine> engine;
    std::unique_ptr<fastpath::Fastpath> plant;
    std::unique_ptr<core::EnactmentController> enactment;
    std::vector<Disturbance> schedule;
    /// Fresh compiled solve of the state after disturbance k, for every
    /// kReferenceEvery-th k.
    std::map<std::size_t, double> reference;
    SpanLog* log = nullptr;  ///< where the enactment callback records spans
};

std::unique_ptr<Setup> make_setup(const Options& options, SpanLog& log) {
    auto setup = std::make_unique<Setup>(
        Setup{workload::make_federated_workload(instance(options.seed)), {}, {}, {}, {}, {}, &log});
    core::EngineConfig config;
    config.threads = 1;
    config.incremental = true;
    config.collect_phase_times = options.trace;
    setup->engine = std::make_unique<core::ParallelLrgpEngine>(setup->spec, core::LrgpOptions{}, config);
    if (!setup->engine->runUntilConverged(kMaxIterations)) return setup;

    fastpath::FastpathOptions plant_options;
    plant_options.seed = options.seed;
    plant_options.workers = 1;
    setup->plant = std::make_unique<fastpath::Fastpath>(setup->spec, plant_options);
    Setup* raw = setup.get();
    setup->enactment = std::make_unique<core::EnactmentController>(
        core::EnactmentOptions{}, [raw](const model::Allocation& allocation) {
            SpanScope span(*raw->log, "fastpath.enact");
            raw->plant->enact(allocation);
        });
    setup->enactment->offer(setup->plant->now(), setup->engine->allocation());
    setup->plant->runUntil(setup->plant->now() + kWindowSeconds);

    std::vector<std::uint32_t> priced;
    const auto& node_prices = setup->engine->prices().node;
    for (std::size_t b = 0; b < node_prices.size(); ++b)
        if (node_prices[b] > 0.0) priced.push_back(static_cast<std::uint32_t>(b));
    if (priced.empty()) return setup;
    setup->schedule = make_schedule(setup->spec, priced, options.seed, options.seconds);

    model::ProblemSpec state = setup->spec;
    for (std::size_t k = 0; k < setup->schedule.size(); ++k) {
        apply(state, setup->schedule[k]);
        if ((k + 1) % kReferenceEvery != 0) continue;
        core::ParallelLrgpEngine fresh(state, core::LrgpOptions{}, core::EngineConfig{});
        if (fresh.runUntilConverged(kMaxIterations)) setup->reference[k] = fresh.currentUtility();
    }
    return setup;
}

/// Sleeps until shortly before `deadline_ns`, then spins, so a
/// disturbance is picked up within microseconds of its due time.
void wait_until(std::int64_t deadline_ns) {
    constexpr std::int64_t kSpinNs = 200'000;
    const std::int64_t now = now_ns();
    if (deadline_ns - now > kSpinNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
    while (now_ns() < deadline_ns) {
    }
}

struct PlantTotals {
    std::uint64_t emitted = 0, delivered = 0, dropped = 0, handled = 0, quanta = 0, batches = 0;
};

PlantTotals plant_totals(const fastpath::Fastpath& plant) {
    const auto stats = plant.collectStats();
    PlantTotals t;
    t.emitted = stats.total_emitted;
    t.delivered = stats.total_delivered;
    t.dropped = stats.dropped_link + stats.dropped_node;
    for (std::uint64_t m : plant.workerMessages()) t.handled += m;
    t.quanta = plant.quantaProcessed();
    t.batches = plant.batchesProcessed();
    return t;
}

}  // namespace

Result run_churn_reconverge(const Options& options, SpanLog& log) {
    Result result;
    double setup_s = 0.0;
    auto setup = repeated_setup(kSetupReps, [&] { return make_setup(options, log); }, setup_s);
    if (!setup->plant) {
        result.failSetup("initial convergence failed");
        return result;
    }
    if (setup->schedule.empty()) {
        result.failSetup("empty disturbance schedule");
        return result;
    }
    if (setup->reference.size() != setup->schedule.size() / kReferenceEvery) {
        result.failSetup("a reference solve did not converge");
        return result;
    }
    core::ParallelLrgpEngine& engine = *setup->engine;
    fastpath::Fastpath& plant = *setup->plant;
    core::EnactmentController& enactment = *setup->enactment;

    std::vector<double> latency_ms, late_ms, traced_busy_ms, untraced_busy_ms;
    std::size_t backlog_max = 0, references_checked = 0;
    std::int64_t busy_ns = 0, plant_ns = 0;
    const EngineCounters engine_before = counters_of(engine);
    const PlantTotals plant_before = plant_totals(plant);
    const std::size_t offers_before = enactment.offers();
    const std::size_t enactments_before = enactment.enactments();
    const auto& schedule = setup->schedule;

    const std::int64_t start = now_ns();
    std::uint64_t pass = 0;
    for (std::size_t next = 0; next < schedule.size(); ++pass) {
        wait_until(start + schedule[next].due_ns);
        const std::int64_t op_start = now_ns();
        std::size_t due = next;
        while (due < schedule.size() && start + schedule[due].due_ns <= op_start) ++due;
        backlog_max = std::max(backlog_max, due - next);
        // A pass absorbs the due disturbances up to the next reference
        // point, so every scheduled reference check runs.
        std::size_t last = next + 1;
        while (last < due && last % kReferenceEvery != 0) ++last;

        const bool traced = options.trace && pass % 2 == 1;
        log.enabled = traced;
        log.op = static_cast<std::uint32_t>(pass);
        bool converged = false;
        std::int64_t enacted_ns = 0;
        {
            SpanScope op(log, "op");
            {
                SpanScope span(log, "lrgp.dynamic_ops");
                for (std::size_t k = next; k < last; ++k) apply(engine, schedule[k]);
            }
            {
                SpanScope span(log, "fastpath.mirror");
                for (std::size_t k = next; k < last; ++k) mirror(plant, schedule[k]);
            }
            {
                SpanScope span(log, "lrgp.solve");
                const EngineCounters before = counters_of(engine);
                converged = engine.runUntilConverged(kMaxIterations).has_value();
                EngineCounters delta = counters_of(engine);
                delta -= before;
                attach_counters(log, span.index(), delta);
            }
            {
                SpanScope span(log, "enact.offer");
                enactment.offer(plant.now(), engine.allocation());
            }
            enacted_ns = now_ns();
            SpanScope span(log, "fastpath.run");
            plant.runUntil(plant.now() + kWindowSeconds);
        }
        const std::int64_t op_end = now_ns();
        log.enabled = false;
        busy_ns += op_end - op_start;
        plant_ns += op_end - enacted_ns;
        (traced ? traced_busy_ms : untraced_busy_ms).push_back(static_cast<double>(op_end - op_start) * 1e-6);
        for (std::size_t k = next; k < last; ++k) {
            latency_ms.push_back(static_cast<double>(enacted_ns - (start + schedule[k].due_ns)) * 1e-6);
            late_ms.push_back(static_cast<double>(op_start - (start + schedule[k].due_ns)) * 1e-6);
        }

        std::string why;
        if (!converged) why = "no reconvergence within " + std::to_string(kMaxIterations) + " iterations";
        if (why.empty()) why = feasibility_error(engine.problem(), engine.allocation());
        if (const auto ref = setup->reference.find(last - 1); ref != setup->reference.end()) {
            ++references_checked;
            if (why.empty() && rel_gap(engine.currentUtility(), ref->second) > kTolerance)
                why = "utility " + std::to_string(engine.currentUtility()) +
                      " is more than 1% from a fresh solve's " + std::to_string(ref->second);
        }
        result.attempted += last - next;
        if (!why.empty())
            for (std::size_t k = next; k < last; ++k) result.failOp(k, why);
        next = last;
    }
    const double wall_ns = static_cast<double>(now_ns() - start);
    if (references_checked != setup->reference.size())
        result.failSetup(std::to_string(references_checked) + " of " +
                         std::to_string(setup->reference.size()) + " reference checks ran");

    EngineCounters engine_delta = counters_of(engine);
    engine_delta -= engine_before;
    const double per_disturbance =
        static_cast<double>(engine_delta.iterations) / static_cast<double>(result.attempted);
    if (!options.trace) {
        set_end_to_end(result, setup_s, latency_ms);
        return result;
    }

    const SpanSummary spans = set_span_metrics(result, log, traced_busy_ms, untraced_busy_ms);
    const auto total = [&](const char* name) { return spans.ms(name); };
    const auto count = [&](const char* name) {  // >= 1, a divisor
        const auto it = spans.count.find(name);
        return it == spans.count.end() ? 1.0 : static_cast<double>(std::max<std::uint64_t>(it->second, 1));
    };
    const double n = static_cast<double>(std::max<std::uint64_t>(spans.ops, 1));
    result.set("lrgp.solve_ms", total("lrgp.solve") / n, "ms");
    result.set("lrgp.iterations", per_disturbance, "count");
    set_engine_metrics(result, engine_delta);

    const double offers = static_cast<double>(enactment.offers() - offers_before);
    const double enactments = static_cast<double>(enactment.enactments() - enactments_before);
    result.set("enact.offer_us", 1e3 * (total("enact.offer") - total("fastpath.enact")) / count("enact.offer"), "us");
    result.set("enact.enactments", enactments, "count");
    result.set("enact.suppression_ratio", offers > 0.0 ? 1.0 - enactments / offers : 0.0, "ratio");

    const PlantTotals after = plant_totals(plant);
    const double passes = static_cast<double>(pass);
    const double handled = static_cast<double>(after.handled - plant_before.handled);
    const double emitted = static_cast<double>(after.emitted - plant_before.emitted);
    const double delivered = static_cast<double>(after.delivered - plant_before.delivered);
    result.set("fastpath.enact_us", 1e3 * total("fastpath.enact") / count("fastpath.enact"), "us");
    result.set("fastpath.run_ms", total("fastpath.run") / n, "ms");
    result.set("fastpath.msgs_emitted", emitted / passes, "count");
    result.set("fastpath.msgs_delivered", delivered / passes, "count");
    result.set("fastpath.drop_ratio",
               emitted > 0.0 ? static_cast<double>(after.dropped - plant_before.dropped) / emitted : 0.0,
               "ratio");
    result.set("fastpath.ns_per_msg", handled > 0.0 ? static_cast<double>(plant_ns) / handled : 0.0, "ns");
    result.set("fastpath.quanta", static_cast<double>(after.quanta - plant_before.quanta) / passes, "count");
    result.set("fastpath.batches", static_cast<double>(after.batches - plant_before.batches) / passes, "count");
    result.set("fastpath.msgs_per_s", plant_ns > 0 ? delivered / (static_cast<double>(plant_ns) * 1e-9) : 0.0, "1/s");

    result.set("loadgen.late_p99_ms", quantile(late_ms, 0.99), "ms");
    result.set("loop.busy_ratio", static_cast<double>(busy_ns) / wall_ns, "ratio");
    result.set("loop.backlog_max", static_cast<double>(backlog_max), "count");
    return result;
}

}  // namespace e2e
