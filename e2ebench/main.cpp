// End-to-end benchmark entry point: one workload, one seed, one result line.
//
//   e2ebench --workload opt-ml|opt-gt --seed N --seconds S --trace 0|1
//            --threads T --work-dir DIR [--commit HASH]
//
// Prints a stamp line ({"stamp": ...}) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1.
// README.md defines every metric.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "util/parallel.hpp"

namespace {

using namespace e2e;

/// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetups = 3;
/// Length of the traced run's serve phase, as a share of the budget.
constexpr double kServeShare = 0.35;
/// Search rounds every untraced run makes at least; QoR is taken over them.
constexpr int kMinRounds = 2;
/// Request rates and latency percentiles are medians over this many equal
/// slices of their half of the serve phase.
constexpr int kSlices = 3;
/// FEATURES connections of the serve phase; its PREDICT half uses one.
constexpr std::size_t kFeatureConns = 3;
/// Each half of the traced run's direct-to-service stream is at most this long.
constexpr double kDirectSeconds = 1.5;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload opt-ml|opt-gt --seed N --seconds S "
               "--trace 0|1 --threads T --work-dir DIR [--commit HASH]\n";
  std::exit(2);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

template <typename F>
std::vector<double> each(const std::vector<SetupTimes>& times, F&& f) {
  std::vector<double> out;
  for (const SetupTimes& t : times) out.push_back(f(t));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Options options;
  std::string commit = "unknown";
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) usage("arguments come in --name value pairs");
  try {
    options.workload = args.at("--workload");
    options.seed = std::stoull(args.at("--seed"));
    options.seconds = std::stod(args.at("--seconds"));
    options.trace = std::stoi(args.at("--trace")) != 0;
    options.threads = std::stoi(args.at("--threads"));
    options.work_dir = args.at("--work-dir");
    if (args.count("--commit")) commit = args.at("--commit");
  } catch (const std::exception&) {
    usage("missing or malformed argument");
  }
  if (options.seconds <= 0 || options.threads < 1) usage("--seconds and --threads must be > 0");
  if (options.workload != "opt-ml" && options.workload != "opt-gt") {
    usage("unknown workload '" + options.workload + "'");
  }
  options.oracle = options.workload == "opt-gt" ? "gt" : "ml";
  // The pool width goes through the library's own resolution, the one the
  // CLI's --threads flag uses.
  aigml::set_default_threads(options.threads);

  // Set-up, several times; the last one is kept.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < kSetups; ++rep) {
    env.reset();
    const Clock::time_point start = rep == 0 ? process_start : Clock::now();
    SetupTimes t;
    env = set_up(options, rep, t);
    t.total_s = seconds_between(start, Clock::now());
    setups.push_back(t);
    std::cerr << "e2ebench: set-up " << rep + 1 << "/" << kSetups << " took " << t.total_s
              << " s (datagen " << t.datagen_s << " s, train " << t.train_s << " s)\n";
  }

  Ledger ledger;
  Metrics metrics;
  // Untraced runs search for the whole budget: at least kMinRounds rounds,
  // and more while the budget lasts.  The traced run records one round (the
  // one it replays) and then serves requests taken from it.
  const int min_rounds = options.trace ? 1 : kMinRounds;
  const double search_deadline = options.trace ? 0.0 : options.seconds;
  SearchPhase search = run_search(options, *env, min_rounds, search_deadline, ledger);
  std::cerr << "e2ebench: search: " << search.rounds << " round(s), " << search.moves
            << " moves in " << search.search_seconds << " s\n";
  const auto ms = [](double s) { return s * 1e3; };
  if (!options.trace) {
    metrics.set("setup_s", median(each(setups, [](const SetupTimes& t) { return t.total_s; })),
                "s");
    metrics.set("moves_per_s", median(search.round_rates), "1/s");
    metrics.set("move_ms_p50", ms(percentile(search.move_seconds, 50)), "ms");
    metrics.set("move_ms_p95", ms(percentile(search.move_seconds, 95)), "ms");
    metrics.set("qor_delay_ratio", search.qor_delay_ratio, "ratio");
    metrics.set("qor_area_ratio", search.qor_area_ratio, "ratio");
    metrics.set("ok_share",
                ledger.attempted ? double(ledger.attempted - ledger.failed) / ledger.attempted : 0,
                "ratio");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // The serve phase: a FEATURES half, then a PREDICT half, over sockets;
    // then the same halves straight into the PredictService.
    const double serve_seconds = kServeShare * options.seconds;
    ServeReport features;
    ServeReport graphs;
    ServiceReport direct_features;
    ServiceReport direct_graphs;
    aigml::serve::ServiceStats service_stats;
    try {
      if (search.states.empty()) throw std::runtime_error("no visited states to serve");
      const Stream stream = make_stream(*env, search.states);
      const aigml::serve::ServiceStats before = env->service->stats();
      features = run_serve(*env, stream.features, kFeatureConns, serve_seconds / 2, ledger);
      graphs = run_serve(*env, stream.graphs, 1, serve_seconds / 2, ledger);
      std::cerr << "e2ebench: serve: " << features.features.rtt.size() << " FEATURES and "
                << graphs.graph.rtt.size() << " PREDICT requests in " << serve_seconds << " s\n";
      service_stats = env->service->stats();
      service_stats.completed -= before.completed;
      service_stats.batches -= before.batches;
      service_stats.busy_seconds -= before.busy_seconds;
      const double direct_seconds = std::min(serve_seconds / 2, kDirectSeconds);
      direct_features =
          run_service_direct(*env, stream.features, kFeatureConns, direct_seconds, ledger);
      direct_graphs = run_service_direct(*env, stream.graphs, 1, direct_seconds, ledger);
    } catch (const std::exception& e) {
      ledger.fail(std::string("serve phase: ") + e.what());
    }
    Tracer tracer;
    replay_traced(options, search, *env, tracer, ledger, metrics);
    tracer.write_chrome_trace(options.work_dir / "trace.json");

    metrics.set("flow.generate_dataset_s",
                median(each(setups, [](const SetupTimes& t) { return t.datagen_s; })), "s");
    metrics.set("flow.variants_per_s", median(each(setups, [](const SetupTimes& t) {
                  return double(t.variants) / t.datagen_s;
                })), "1/s");
    metrics.set("ml.train_s", median(each(setups, [](const SetupTimes& t) { return t.train_s; })),
                "s");
    metrics.set("serve.registry_load_ms",
                median(each(setups, [](const SetupTimes& t) { return t.registry_load_ms; })),
                "ms");
    const double features_p50 =
        median_percentile(features.features, features.seconds, kSlices, 50);
    metrics.set("features_rps", median_rate(features.features, features.seconds, kSlices), "1/s");
    metrics.set("features_ms_p50", ms(features_p50), "ms");
    metrics.set("features_ms_p99",
                ms(median_percentile(features.features, features.seconds, kSlices, 99)), "ms");
    metrics.set("graph_rps", median_rate(graphs.graph, graphs.seconds, kSlices), "1/s");
    metrics.set("graph_ms_p50", ms(median_percentile(graphs.graph, graphs.seconds, kSlices, 50)),
                "ms");
    metrics.set("graph_ms_p99", ms(median_percentile(graphs.graph, graphs.seconds, kSlices, 99)),
                "ms");
    const double service_features_p50 = percentile(direct_features.features_service, 50);
    metrics.set("service.features_us_p50", service_features_p50 * 1e6, "us");
    metrics.set("service.graph_us_p50", percentile(direct_graphs.graph_service, 50) * 1e6, "us");
    metrics.set("net.features_overhead_us", (features_p50 - service_features_p50) * 1e6, "us");
    metrics.set("serve.batch_mean",
                service_stats.batches ? double(service_stats.completed) / service_stats.batches
                                      : 0.0,
                "requests");
    metrics.set("service.busy_share", service_stats.busy_seconds / serve_seconds, "ratio");
    metrics.set("serve.busy", double(features.busy + graphs.busy), "count");
    metrics.set("serve.errors", double(features.errors + graphs.errors), "count");
  }
  env.reset();

  // Stamp: where and how the figures were taken, and their sample counts.
  std::ostringstream stamp;
  stamp << "{\"stamp\": {\"workload\": \"" << options.workload << "\", \"seed\": " << options.seed
        << ", \"seconds\": " << options.seconds << ", \"trace\": " << options.trace
        << ", \"nproc\": " << online_cpus() << ", \"threads\": " << aigml::default_num_threads()
        << ", \"build_type\": \"" << E2E_BUILD_TYPE << "\", \"compiler\": \"" << E2E_COMPILER
        << "\", \"commit\": \"" << commit << "\", \"search_rounds\": " << search.rounds
        << ", \"move_samples\": " << search.move_seconds.size()
        << ", \"setups\": " << setups.size() << ", \"variants\": " << setups.back().variants
        << "}}";
  std::cout << stamp.str() << "\n";
  for (const auto& [why, count] : ledger.reasons) {
    std::cerr << "e2ebench: failed " << count << "x: " << why << "\n";
  }
  std::cout << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
            << ", \"metrics\": " << metrics.to_json() << "}" << std::endl;
  return 0;
}
