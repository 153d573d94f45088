// e2e_bench: runs one workload of the end-to-end benchmark and prints
// its result as the last line of stdout.
//
//   e2e_bench --workload <cold_federated|churn_reconverge>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and, with --trace-out, writes the span log as a
// Chrome trace.  The exit code is 0 only when every check passed.
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

const char* detected_simd_isa() {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx512f")) return "avx512";
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return "avx2";
    if (__builtin_cpu_supports("sse2")) return "sse2";
#endif
    return "scalar";
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    e2e::Options options;
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0) return usage("every flag takes a value");
    try {
        options.workload = args.at("--workload");
        options.seed = std::stoull(args.at("--seed"));
        options.seconds = std::stod(args.at("--seconds"));
        options.trace = std::stoi(args.at("--trace")) != 0;
        if (args.count("--trace-out")) options.trace_out = args["--trace-out"];
    } catch (const std::exception&) {
        return usage("missing or malformed flag");
    }
    if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

    // LRGP_OBS is always compiled in (CMakeLists.txt).
    std::printf(
        "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
        "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\",\"lrgp_obs\":\"ON\","
        "\"simd_isa_detected\":\"%s\"}}\n",
        options.workload.c_str(), static_cast<unsigned long long>(options.seed), options.seconds,
        options.trace ? 1 : 0, std::thread::hardware_concurrency(), __VERSION__, E2E_BUILD_TYPE,
        detected_simd_isa());
    std::fflush(stdout);

    e2e::SpanLog log;
    e2e::Result result;
    try {
        if (options.workload == "cold_federated") result = e2e::run_cold_federated(options, log);
        else if (options.workload == "churn_reconverge") result = e2e::run_churn_reconverge(options, log);
        else return usage("unknown workload");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 1;
    }
    for (const auto& why : result.failures()) std::fprintf(stderr, "check failed: %s\n", why.c_str());
    if (!options.trace_out.empty() && !log.writeChromeTrace(options.trace_out))
        std::fprintf(stderr, "e2e_bench: cannot write %s\n", options.trace_out.c_str());

    // The metrics this workload measured; run.py orders them by the
    // catalogs of BENCHMARK.json and rejects a name it does not know.
    std::string metrics;
    for (const auto& m : result.metrics()) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                      metrics.empty() ? "" : ",", m.name.c_str(), m.value, m.unit.c_str());
        metrics += buf;
    }
    const bool correct = result.correct();
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), metrics.c_str());
    return correct ? 0 : 1;
}
