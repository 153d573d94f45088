// The two workloads of the end-to-end benchmark (see README.md for
// why each was chosen and what it measures).  Each runs in its own
// process, builds its inputs from Options::seed alone, measures for
// Options::seconds and checks every output it produces.
#pragma once

#include "harness.hpp"

namespace e2e {

/// Closed loop: problem JSON text -> parse -> sharded engine (K=4,
/// 4 threads) -> converged allocation JSON.
Result run_cold_federated(const Options& options, SpanLog& log);

/// Open loop: Poisson disturbances -> incremental reconvergence ->
/// enactment -> fastpath dataplane window.
Result run_churn_reconverge(const Options& options, SpanLog& log);

}  // namespace e2e
