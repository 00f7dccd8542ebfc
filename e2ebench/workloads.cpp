// Set-up, the search phase and its traced replay (README.md).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "aig/dirty.hpp"
#include "aig/sim.hpp"
#include "bench.hpp"
#include "celllib/library.hpp"
#include "features/features.hpp"
#include "flow/datagen.hpp"
#include "gen/designs.hpp"
#include "mapper/mapper.hpp"
#include "opt/cost_spec.hpp"
#include "sta/sta.hpp"
#include "transforms/scripts.hpp"

namespace e2e {

using aigml::aig::Aig;
using aigml::opt::QualityEval;

// ---- small helpers ----------------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  return out + "}";
}

void Ledger::fail(const std::string& why) {
  ++attempted;
  ++failed;
  ++reasons[why];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double median_rate(const Sample& sample, double seconds, int slices) {
  std::vector<double> counts(static_cast<std::size_t>(slices));
  for (double t : sample.done_at) {
    const auto slice = static_cast<std::size_t>(t / seconds * slices);
    if (slice < counts.size()) counts[slice] += 1.0;
  }
  for (double& c : counts) c /= seconds / slices;
  return median(std::move(counts));
}

double median_percentile(const Sample& sample, double seconds, int slices, double p) {
  // Requests answered after the window (or lost) stay in the last slice.
  std::vector<std::vector<double>> rtt(static_cast<std::size_t>(slices));
  for (std::size_t i = 0; i < sample.rtt.size(); ++i) {
    const auto slice = static_cast<std::size_t>(sample.done_at[i] / seconds * slices);
    rtt[std::min(slice, rtt.size() - 1)].push_back(sample.rtt[i]);
  }
  std::vector<double> per_slice;
  for (std::vector<double>& r : rtt) per_slice.push_back(percentile(std::move(r), p));
  return median(std::move(per_slice));
}

namespace {

/// SA iterations per design per round.
constexpr int kIterations = 30;
/// Training rows generated per training-split design.
constexpr int kVariantsPerDesign = 25;
/// Kept visited states per design (the serve phase's request sources).
constexpr int kStatesPerDesign = 8;
/// Exhaustive equivalence up to 18 primary inputs: the suite has 14 to 18.
constexpr unsigned kExhaustiveInputs = 18;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const QualityEval& a, const QualityEval& b) {
  return same_bits(a.delay, b.delay) && same_bits(a.area, b.area);
}

/// Times moves from the strategy's own callbacks and keeps a few visited
/// states.  Copying a kept state is the only work it adds inside a move.
class MoveClock final : public aigml::opt::Observer {
 public:
  MoveClock(DesignRun& run, std::vector<Aig>* keep, int stride)
      : run_(run), keep_(keep), stride_(std::max(1, stride)) {}

  void on_start(const Aig&, const QualityEval&, double) override {
    start_ = last_ = Clock::now();
  }
  void on_candidate(int iteration, const Aig& candidate, const QualityEval&) override {
    if (keep_ != nullptr && (iteration + 1) % stride_ == 0) keep_->push_back(candidate);
  }
  void on_iteration(int, const aigml::opt::IterationRecord&) override {
    const Clock::time_point now = Clock::now();
    run_.move_seconds.push_back(seconds_between(last_, now));
    run_.search_seconds = seconds_between(start_, now);
    last_ = now;
  }

 private:
  DesignRun& run_;
  std::vector<Aig>* keep_;
  int stride_;
  Clock::time_point start_;
  Clock::time_point last_;
};

/// The evaluator a recipe's cost spec names, built as opt::run builds it.
std::unique_ptr<aigml::opt::CostEvaluator> make_evaluator(const aigml::opt::Recipe& recipe) {
  aigml::opt::CostContext ctx;
  ctx.library = &aigml::cell::mini_sky130();
  ctx.quant = aigml::ml::quant_mode_from_name(recipe.quant);
  return aigml::opt::make_cost(recipe.cost, ctx);
}

/// Decorator recording one span per evaluator call, named by its role in a
/// move: the initial evaluation (bind), the per-move evaluation (delta:
/// evaluate_delta on incremental oracles, evaluate on map+STA), commit and
/// rollback.
class TracedCost final : public aigml::opt::CostEvaluator {
 public:
  TracedCost(aigml::opt::CostEvaluator& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool supports_incremental() const noexcept override {
    return inner_.supports_incremental();
  }
  void set_move(std::uint64_t move) { move_ = move; }

 protected:
  QualityEval evaluate_impl(const Aig& g) override {
    Scope span(tracer_, bound_ ? "opt.eval.delta" : "opt.eval.bind", move_);
    bound_ = true;
    return inner_.evaluate(g);
  }
  QualityEval bind_impl(const Aig& g) override {
    Scope span(tracer_, "opt.eval.bind", move_);
    bound_ = true;
    return inner_.bind(g);
  }
  QualityEval evaluate_delta_impl(const Aig& g, const aigml::aig::DirtyRegion& dirty) override {
    Scope span(tracer_, "opt.eval.delta", move_);
    return inner_.evaluate_delta(g, dirty);
  }
  void commit_impl() override {
    Scope span(tracer_, "opt.eval.commit", move_);
    inner_.commit_move();
  }
  void rollback_impl() override {
    Scope span(tracer_, "opt.eval.rollback", move_);
    inner_.rollback_move();
  }

 private:
  aigml::opt::CostEvaluator& inner_;
  Tracer& tracer_;
  std::uint64_t move_ = 0;
  bool bound_ = false;
};

struct GroundTruth {
  QualityEval q;
  double map_seconds = 0.0;
  double sta_seconds = 0.0;
};

GroundTruth ground_truth(const Aig& g) {
  const auto& lib = aigml::cell::mini_sky130();
  GroundTruth out;
  const Clock::time_point t0 = Clock::now();
  const aigml::net::Netlist netlist = aigml::map::map_to_cells(g, lib);
  const Clock::time_point t1 = Clock::now();
  const aigml::sta::StaResult sta = aigml::sta::run_sta(netlist, lib);
  out.map_seconds = seconds_between(t0, t1);
  out.sta_seconds = seconds_between(t1, Clock::now());
  out.q = QualityEval{sta.max_delay_ps, sta.total_area_um2};
  return out;
}

/// Checks one SA run: budget reached, output equivalent to the input.
bool check_run(const DesignRun& run, const Aig& input, Ledger& ledger) {
  const auto& r = run.result;
  if (r.stop_reason != aigml::opt::StopReason::kIterations ||
      static_cast<int>(r.history.size()) != run.recipe.iterations) {
    ledger.fail(run.design + ": stopped by " + aigml::opt::to_string(r.stop_reason));
    return false;
  }
  aigml::aig::EquivalenceOptions eq;
  eq.exhaustive_limit = kExhaustiveInputs;
  const auto verdict = aigml::aig::check_equivalence(input, r.best, eq);
  if (!verdict.equivalent || !verdict.exhaustive) {
    ledger.fail(run.design + ": best AIG not proven equivalent to its input");
    return false;
  }
  ledger.ok();
  return true;
}

}  // namespace

// ---- set-up -----------------------------------------------------------------------

Env::~Env() {
  if (server != nullptr) server->stop();
}

std::unique_ptr<Env> set_up(const Options& options, int repetition, SetupTimes& times) {
  namespace fs = std::filesystem;
  const auto& lib = aigml::cell::mini_sky130();
  auto env = std::make_unique<Env>();
  for (const std::string& name : aigml::gen::test_designs()) {
    env->designs.emplace_back(name, aigml::gen::build_design(name));
  }

  // Training data: variants of the training split, labelled by map+STA.
  aigml::ml::Dataset delay_rows(aigml::features::feature_names());
  aigml::ml::Dataset area_rows(aigml::features::feature_names());
  const Clock::time_point gen_start = Clock::now();
  std::uint64_t index = 0;
  for (const std::string& name : aigml::gen::training_designs()) {
    aigml::flow::DataGenParams params;
    params.num_variants = kVariantsPerDesign;
    params.seed = aigml::opt::derive_seed(options.seed, 1000 + index++);
    const aigml::flow::GeneratedData data =
        aigml::flow::generate_dataset(aigml::gen::build_design(name), name, lib, params);
    delay_rows.append_rows(data.delay);
    area_rows.append_rows(data.area);
  }
  times.datagen_s = seconds_between(gen_start, Clock::now());
  times.variants = delay_rows.num_rows();

  const Clock::time_point train_start = Clock::now();
  const aigml::ml::GbdtParams gbdt;
  env->delay = aigml::ml::GbdtModel::train(delay_rows, gbdt);
  env->area = aigml::ml::GbdtModel::train(area_rows, gbdt);
  times.train_s = seconds_between(train_start, Clock::now());

  env->model_dir = options.work_dir / ("models-" + std::to_string(repetition));
  fs::create_directories(env->model_dir);
  env->delay.save(env->model_dir / "delay.gbdt");
  env->area.save(env->model_dir / "area.gbdt");

  const Clock::time_point load_start = Clock::now();
  env->registry = std::make_unique<aigml::serve::ModelRegistry>(env->model_dir);
  times.registry_load_ms = seconds_between(load_start, Clock::now()) * 1e3;

  // Both the datagen and the service pools take their width from the
  // process default (set_default_threads), like every pool in the library.
  env->service = std::make_unique<aigml::serve::PredictService>(*env->registry);
  env->server = std::make_unique<aigml::serve::BatchServer>(*env->registry, *env->service);
  env->server->start();
  return env;
}

// ---- search phase -------------------------------------------------------------------

SearchPhase run_search(const Options& options, const Env& env, int min_rounds, double deadline_s,
                       Ledger& ledger) {
  SearchPhase out;
  const Clock::time_point t0 = Clock::now();
  const std::size_t n = env.designs.size();
  std::vector<double> delay_ratios;
  std::vector<double> area_ratios;
  double round_seconds = 0.0;
  for (int round = 0;; ++round) {
    if (round >= min_rounds) {
      // Start another round while it is expected to end near the deadline.
      const double elapsed = seconds_between(t0, Clock::now());
      const double mean_round = round_seconds / round;
      if (elapsed + 0.5 * mean_round > deadline_s) break;
    }
    const Clock::time_point round_start = Clock::now();
    std::uint64_t round_moves = 0;
    double round_search = 0.0;
    for (std::size_t d = 0; d < n; ++d) {
      const auto& [name, design] = env.designs[d];
      DesignRun run;
      run.design = name;
      run.recipe.strategy = "sa";
      run.recipe.iterations = kIterations;
      run.recipe.seed = aigml::opt::derive_seed(options.seed, round * n + d);
      run.recipe.cost = options.oracle == "gt" ? "gt" : "ml:" + env.model_dir.string();
      try {
        MoveClock clock(run, options.trace && round == 0 ? &out.states : nullptr,
                        kIterations / kStatesPerDesign);
        aigml::opt::CostContext ctx;
        ctx.library = &aigml::cell::mini_sky130();
        run.result = aigml::opt::run(run.recipe, design, ctx, &clock);
        if (!check_run(run, design, ledger)) continue;
      } catch (const std::exception& e) {
        ledger.fail(name + ": " + e.what());
        continue;
      }
      round_moves += run.result.history.size();
      round_search += run.search_seconds;
      out.move_seconds.insert(out.move_seconds.end(), run.move_seconds.begin(),
                              run.move_seconds.end());
      if (round < min_rounds) {
        const GroundTruth before = ground_truth(design);
        const GroundTruth after = ground_truth(run.result.best);
        delay_ratios.push_back(after.q.delay / before.q.delay);
        area_ratios.push_back(after.q.area / before.q.area);
        out.map_seconds += before.map_seconds + after.map_seconds;
        out.sta_seconds += before.sta_seconds + after.sta_seconds;
        out.qor_evals += 2;
      }
      if (round == 0) out.first_round.push_back(std::move(run));
    }
    out.moves += round_moves;
    out.search_seconds += round_search;
    if (round_search > 0) out.round_rates.push_back(double(round_moves) / round_search);
    round_seconds += seconds_between(round_start, Clock::now());
    ++out.rounds;
  }
  out.qor_delay_ratio = geomean(delay_ratios);
  out.qor_area_ratio = geomean(area_ratios);
  return out;
}

// ---- traced replay ----------------------------------------------------------------

void replay_traced(const Options& options, const SearchPhase& search, const Env& env,
                   Tracer& tracer, Ledger& ledger, Metrics& metrics) {
  const auto& registry = aigml::transforms::script_registry();
  std::map<std::string, std::uint64_t> ands_in;  // input ANDs per primitive
  double untraced_seconds = 0.0;
  std::uint64_t moves = 0;
  std::uint64_t noops = 0;
  std::uint64_t accepted = 0;
  std::uint64_t group = 0;
  const bool gt = options.oracle == "gt";

  for (const DesignRun& run : search.first_round) {
    const Aig* input = nullptr;
    for (const auto& [name, design] : env.designs) {
      if (name == run.design) input = &design;
    }
    untraced_seconds += run.search_seconds;
    std::string mismatch;
    try {
      const auto evaluator = make_evaluator(run.recipe);
      TracedCost traced(*evaluator, tracer);
      const bool incremental = run.recipe.incremental && traced.supports_incremental();
      traced.set_move(++group);
      const QualityEval q0 = incremental ? traced.bind(*input) : traced.evaluate(*input);
      if (!same_bits(q0, run.result.initial_eval)) mismatch = "initial evaluation";
      const double delay0 = q0.delay > 0 ? q0.delay : 1.0;
      const double area0 = q0.area > 0 ? q0.area : 1.0;
      auto cost_of = [&](const QualityEval& q) {
        return run.recipe.weight_delay * q.delay / delay0 + run.recipe.weight_area * q.area / area0;
      };
      Aig current = *input;
      Aig best = *input;
      double best_cost = cost_of(q0);

      // One record at a time, in the order of opt::detail::search_loop.
      for (std::size_t move = 0; move < run.result.history.size() && mismatch.empty(); ++move) {
        const aigml::opt::IterationRecord& record = run.result.history[move];
        const std::uint64_t id = ++group;
        traced.set_move(id);
        Aig candidate;
        aigml::aig::DirtyRegion dirty;
        QualityEval q;
        {
          Scope move_span(tracer, "move", id);
          candidate = current;  // ScriptRegistry::apply starts from a copy too
          for (const std::string& step : registry.script(record.script_index).steps) {
            Scope span(tracer, "transforms." + step, id);
            ands_in[step] += candidate.num_ands();
            candidate = aigml::transforms::apply_primitive(step, candidate);
          }
          if (incremental) {
            Scope span(tracer, "aig.diff_region", id);
            dirty = aigml::aig::diff_region(current, candidate);
          }
          q = incremental ? traced.evaluate_delta(candidate, dirty) : traced.evaluate(candidate);
          if (record.accepted) {
            if (incremental) traced.commit_move();
          } else if (incremental) {
            traced.rollback_move();
          }
        }

        // Outside the move: the no-op test and, on map+STA, the mapper and
        // STA calls the evaluator made, timed on their own.
        if (!incremental) dirty = aigml::aig::diff_region(current, candidate);
        noops += dirty.empty();
        if (gt) {
          const auto& lib = aigml::cell::mini_sky130();
          aigml::net::Netlist netlist;
          {
            Scope span(tracer, "mapper.map_to_cells", id);
            netlist = aigml::map::map_to_cells(candidate, lib);
          }
          Scope span(tracer, "sta.run_sta", id);
          const auto sta = aigml::sta::run_sta(netlist, lib);
          if (!same_bits(QualityEval{sta.max_delay_ps, sta.total_area_um2}, q)) {
            mismatch = "map_to_cells + run_sta at move " + std::to_string(move);
          }
        }
        if (!same_bits(q, QualityEval{record.delay, record.area})) {
          mismatch = "evaluation at move " + std::to_string(move);
        }
        ++moves;
        if (record.accepted) {
          ++accepted;
          current = std::move(candidate);
          const double cost = cost_of(q);
          if (cost < best_cost) {
            best = current;
            best_cost = cost;
          }
        }
      }
      if (mismatch.empty() && best.structural_hash() != run.result.best.structural_hash()) {
        mismatch = "best graph";
      }
    } catch (const std::exception& e) {
      mismatch = std::string("exception: ") + e.what();
    }
    if (mismatch.empty()) {
      ledger.ok();
    } else {
      ledger.fail(run.design + ": traced replay differs from the recorded run (" + mismatch + ")");
    }
  }

  // Per-layer metrics.  A move's wall time runs from its first transform to
  // its commit or rollback; its direct child spans are what the trace covers.
  const double move_wall = tracer.total("move").seconds;
  const std::vector<double> self = tracer.self_seconds();
  double covered = 0.0;
  double transform_seconds = 0.0;
  double eval_seconds = 0.0;
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent < 0 || tracer.name(spans[static_cast<std::size_t>(parent)].name) != "move") continue;
    const double d = seconds_between(spans[i].start, spans[i].end);
    covered += d;
    const std::string& name = tracer.name(spans[i].name);
    if (name.rfind("transforms.", 0) == 0) transform_seconds += self[i];
    if (name.rfind("opt.eval.", 0) == 0) eval_seconds += self[i];
  }
  const auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  for (const std::string& p : aigml::transforms::primitive_names()) {
    const Tracer::Total t = tracer.total("transforms." + p);
    const std::uint64_t ands = ands_in[p];
    metrics.set("transforms." + p + ".us_per_and", ands ? t.seconds * 1e6 / double(ands) : 0.0,
                "us/AND");
    metrics.set("transforms." + p + ".calls", double(t.count), "count");
  }
  metrics.set("transforms.self_share", share(transform_seconds, move_wall), "ratio");
  const Tracer::Total diff = tracer.total("aig.diff_region");
  metrics.set("aig.diff_region.us_per_move", moves ? diff.seconds * 1e6 / double(moves) : 0.0,
              "us");
  const Tracer::Total bind = tracer.total("opt.eval.bind");
  metrics.set("opt.eval.bind_ms", bind.count ? bind.seconds * 1e3 / double(bind.count) : 0.0,
              "ms");
  const std::vector<double> delta = tracer.durations("opt.eval.delta");
  metrics.set("opt.eval.delta_us_p50", percentile(delta, 50) * 1e6, "us");
  metrics.set("opt.eval.delta_us_p95", percentile(delta, 95) * 1e6, "us");
  const Tracer::Total commit = tracer.total("opt.eval.commit");
  const Tracer::Total rollback = tracer.total("opt.eval.rollback");
  metrics.set("opt.eval.commit_us", commit.count ? commit.seconds * 1e6 / double(commit.count) : 0.0,
              "us");
  metrics.set("opt.eval.rollback_us",
              rollback.count ? rollback.seconds * 1e6 / double(rollback.count) : 0.0, "us");
  metrics.set("opt.eval.self_share", share(eval_seconds, move_wall), "ratio");
  metrics.set("opt.noop_share", share(double(noops), double(moves)), "ratio");
  metrics.set("opt.accept_share", share(double(accepted), double(moves)), "ratio");
  if (gt) {
    const Tracer::Total map = tracer.total("mapper.map_to_cells");
    const Tracer::Total sta = tracer.total("sta.run_sta");
    metrics.set("mapper.map_to_cells_ms", map.count ? map.seconds * 1e3 / double(map.count) : 0.0,
                "ms");
    metrics.set("sta.run_sta_ms", sta.count ? sta.seconds * 1e3 / double(sta.count) : 0.0, "ms");
  } else {
    const double evals = double(std::max<std::uint64_t>(search.qor_evals, 1));
    metrics.set("mapper.map_to_cells_ms", search.map_seconds * 1e3 / evals, "ms");
    metrics.set("sta.run_sta_ms", search.sta_seconds * 1e3 / evals, "ms");
  }
  metrics.set("trace.coverage", share(covered, move_wall), "ratio");
  metrics.set("trace.overhead", share(move_wall - untraced_seconds, untraced_seconds), "ratio");
}

}  // namespace e2e
