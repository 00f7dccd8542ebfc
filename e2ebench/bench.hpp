#pragma once
// Shared declarations of the end-to-end benchmark (README.md): options, the
// metric sink, the operation ledger, set-up, the search phase and the serve
// phase.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "ml/gbdt.hpp"
#include "opt/recipe.hpp"
#include "opt/strategy.hpp"
#include "serve/batch_server.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "trace.hpp"

namespace e2e {

struct Options {
  std::string workload;  ///< opt-ml | opt-gt
  std::string oracle;    ///< cost spec family of the search: "ml" | "gt"
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  ///< thread-pool width (set_default_threads)
  std::filesystem::path work_dir;  ///< scratch space for models and traces
};

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted and failed: SA runs (stop reason, equivalence,
/// exceptions, replay fidelity) and served requests (value, ERR, BUSY, lost).
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> reasons;  ///< failure message -> count

  void ok() { ++attempted; }
  void fail(const std::string& why);
};

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double geomean(const std::vector<double>& values);

// ---- set-up -------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double datagen_s = 0.0;       ///< flow::generate_dataset over the training split
  std::size_t variants = 0;     ///< rows generated
  double train_s = 0.0;         ///< GbdtModel::train, delay + area
  double registry_load_ms = 0.0;
};

/// Everything set-up builds: the designs, the trained models on disk and in
/// memory, and the in-process server.  Members are declared so that the
/// server goes down before the service and registry it uses.
struct Env {
  std::vector<std::pair<std::string, aigml::aig::Aig>> designs;  ///< test split
  std::filesystem::path model_dir;
  aigml::ml::GbdtModel delay;  ///< the trained models (reference for served values)
  aigml::ml::GbdtModel area;
  std::unique_ptr<aigml::serve::ModelRegistry> registry;
  std::unique_ptr<aigml::serve::PredictService> service;
  std::unique_ptr<aigml::serve::BatchServer> server;

  Env() = default;
  ~Env();
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
};

/// Builds the test designs, generates and labels the training data, trains
/// and saves both GBDTs, loads them into a registry and starts the server.
[[nodiscard]] std::unique_ptr<Env> set_up(const Options& options, int repetition,
                                          SetupTimes& times);

// ---- search phase ---------------------------------------------------------------

/// One SA run of one design.
struct DesignRun {
  std::string design;
  aigml::opt::Recipe recipe;
  aigml::opt::OptResult result;
  std::vector<double> move_seconds;  ///< between successive Observer callbacks
  double search_seconds = 0.0;       ///< on_start to the last on_iteration
};

struct SearchPhase {
  std::vector<DesignRun> first_round;  ///< round 0: QoR, replay, request states
  int rounds = 0;
  std::uint64_t moves = 0;
  double search_seconds = 0.0;
  std::vector<double> round_rates;  ///< moves per second of search, per round
  std::vector<double> move_seconds;
  double qor_delay_ratio = 0.0;
  double qor_area_ratio = 0.0;
  double map_seconds = 0.0;  ///< map_to_cells time of the QoR evaluations
  double sta_seconds = 0.0;
  std::uint64_t qor_evals = 0;
  std::vector<aigml::aig::Aig> states;  ///< visited states kept for the serve phase
};

/// Runs SA rounds over the test designs: `min_rounds` rounds, then more
/// while they are expected to end by `deadline_s` seconds.  Each round runs
/// every design once with its own seed.  QoR is taken over the first
/// `min_rounds` rounds, so it depends on the seed only.
[[nodiscard]] SearchPhase run_search(const Options& options, const Env& env, int min_rounds,
                                     double deadline_s, Ledger& ledger);

/// Replays every round-0 trajectory call for call with spans, checks that
/// each value and best graph equals the untraced run's, and reports the
/// per-layer metrics.
void replay_traced(const Options& options, const SearchPhase& search, const Env& env,
                   Tracer& tracer, Ledger& ledger, Metrics& metrics);

// ---- serve phase ----------------------------------------------------------------

/// The request stream: feature rows and inline graphs of visited states,
/// each with the value the setup model predicts for it locally.
struct Request {
  bool graph = false;
  std::string model;
  std::vector<double> row;   ///< FEATURES
  std::string payload;       ///< binary-protocol payload (model + row or AIGER text)
  aigml::aig::Aig parsed;    ///< PREDICT: the graph the server will see
  double expected = 0.0;
};
struct Stream {
  std::vector<Request> features;
  std::vector<Request> graphs;
};
[[nodiscard]] Stream make_stream(const Env& env, const std::vector<aigml::aig::Aig>& states);

/// Round trips of one request kind: duration and completion time (seconds
/// since the phase started) of every answered or lost request.
struct Sample {
  std::vector<double> rtt;
  std::vector<double> done_at;
};
/// Completions per second: the median over `slices` equal slices of the
/// first `seconds` of the phase.
[[nodiscard]] double median_rate(const Sample& sample, double seconds, int slices);
/// Percentile `p` of the round trips: the median over the same slices of
/// each slice's percentile, so a stall confined to one slice cannot move it.
[[nodiscard]] double median_percentile(const Sample& sample, double seconds, int slices,
                                       double p);

struct ServeReport {
  double seconds = 0.0;  ///< the phase's sending window
  Sample features;
  Sample graph;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
};

/// Closed loop over loopback: one client thread drives `connections`
/// connections, one request outstanding on each, sending `requests` in turn.
[[nodiscard]] ServeReport run_serve(const Env& env, const std::vector<Request>& requests,
                                    std::size_t connections, double seconds, Ledger& ledger);

/// The same requests sent straight into the PredictService (no sockets),
/// `connections` logical connections with one request outstanding each;
/// returns service times in seconds.
struct ServiceReport {
  std::vector<double> features_service;
  std::vector<double> graph_service;
};
[[nodiscard]] ServiceReport run_service_direct(const Env& env, const std::vector<Request>& requests,
                                               std::size_t connections, double seconds,
                                               Ledger& ledger);

}  // namespace e2e
