// Benchmark harness: runs one workload against the ppstap libraries through
// their public entry points (ScenarioGenerator::generate,
// SequentialStap::process, ParallelStapPipeline::run, FlopScope and the obs
// recorder) and prints one JSON document of raw samples and counters on
// stdout. run.py turns that document into the benchmark's metrics; all
// statistics (medians, tail percentiles, ratios) are computed there.
//
//   stapbench_harness --workload <seq_paper|stream_paper|stream_small_guarded>
//                     --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end figures for --seconds with tracing off.
// --trace 1 alternates untraced and traced runs (CPIs on the sequential
// workload) over the window, so the per-layer figures and the tracing
// overhead come from one process and see the same drift of host speed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flops.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "kernels/dispatch.hpp"
#include "obs/critical_path.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stap/sequential.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace {

using namespace ppstap;
using obs::Json;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stapbench_harness: %s\nusage: stapbench_harness --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(o.seconds > 0.0))
        usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace");
      o.trace = val == "1";
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// splitmix64: spreads small consecutive seeds over the generator's state.
std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  stap::StapParams p;
  synth::ScenarioParams scene;
  bool pipeline = false;  // false: SequentialStap::process on one thread
  bool guarded = false;   // ABFT and the health detector armed
  index_t batch = 0;      // CPIs per ParallelStapPipeline::run
  index_t warmup = 3;     // per run, excluded from throughput and latency
  index_t cooldown = 2;
  // Whether every CPI must detect the planted targets (see the scenes).
  bool target_oracle = false;
};

// The paper's experiment shape (§7): K=512, J=16, N=128, M=6, N_hard=56,
// 6 hard segments — the StapParams and ScenarioParams defaults.
Workload paper_workload(std::uint64_t seed) {
  Workload w;
  w.scene.seed = mix_seed(seed);
  // A mainbeam target in an easy Doppler bin: it clears the CFAR threshold
  // by 11 dB or more on every CPI after the first, so a miss means the chain
  // is broken. (A target in a hard bin is partly nulled by its own training
  // cells and is missed now and then by design.)
  w.scene.targets.push_back(synth::Target{170, 38.0 / 128.0, 0.0, 10.0});
  w.target_oracle = true;
  // Short runs: each run draws a fresh placement of its 7 rank threads on
  // the host's cores, and the window pools many draws. The paper's first 3
  // and last 2 CPIs of a run stay untimed.
  w.batch = 12;
  return w;
}

// The host_pipeline bench shape: a 256 KB cube and ~4 ms of compute per
// CPI, so fixed per-CPI costs dominate.
Workload small_workload(std::uint64_t seed) {
  Workload w;
  w.p.num_range = 128;
  w.p.num_channels = 8;
  w.p.num_pulses = 32;
  w.p.num_beams = 2;
  w.p.num_hard = 12;
  w.p.stagger = 2;
  w.p.num_segments = 3;
  w.p.easy_samples_per_cpi = 24;
  w.p.hard_samples_per_segment = 16;
  w.p.cfar_ref = 6;
  w.p.cfar_guard = 2;
  w.scene.num_range = 128;
  w.scene.num_channels = 8;
  w.scene.num_pulses = 32;
  w.scene.clutter.num_patches = 12;
  w.scene.chirp_length = 16;
  w.scene.seed = mix_seed(seed);
  // The host_pipeline target. Every training cell set here overlaps its
  // chirp-spread echo, so its own training partly nulls it and it is missed
  // on a few CPIs: this workload's oracle is the sequential reference only.
  w.scene.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 12.0});
  w.batch = 100;
  return w;
}

Workload make_workload(const Options& o) {
  Workload w;
  if (o.workload == "seq_paper") {
    w = paper_workload(o.seed);
  } else if (o.workload == "stream_paper") {
    w = paper_workload(o.seed);
    w.pipeline = true;
  } else if (o.workload == "stream_small_guarded") {
    w = small_workload(o.seed);
    w.pipeline = true;
    w.guarded = true;
  } else {
    usage("unknown workload");
  }
  w.name = o.workload;
  w.p.validate();
  return w;
}

// Short task names used in the per-layer metric names, in stap::Task order.
constexpr const char* kTaskNames[stap::kNumTasks] = {
    "doppler", "easy_wt", "hard_wt", "easy_bf", "hard_bf", "pc", "cfar"};

// The fewest ranks the pipeline allows: one per task.
const core::NodeAssignment kAssignment{{1, 1, 1, 1, 1, 1, 1}};

// Everything constructed before the first CPI; timed as setup.
struct System {
  std::unique_ptr<synth::ScenarioGenerator> gen;
  linalg::MatrixCF steering;
  std::unique_ptr<stap::SequentialStap> seq;
  std::unique_ptr<core::ParallelStapPipeline> pipe;
};

System build_system(const Workload& w) {
  System s;
  s.gen = std::make_unique<synth::ScenarioGenerator>(w.scene);
  s.steering = synth::steering_matrix(w.p.num_channels, w.p.num_beams,
                                      w.p.beam_center_rad, w.p.beam_span_rad);
  if (!w.pipeline) {
    s.seq = std::make_unique<stap::SequentialStap>(w.p, s.steering,
                                                   s.gen->replica());
    return s;
  }
  s.pipe = std::make_unique<core::ParallelStapPipeline>(
      w.p, kAssignment, s.steering,
      std::vector<cfloat>(s.gen->replica().begin(), s.gen->replica().end()));
  // Pin every optional layer so the process environment cannot change
  // what is measured.
  s.pipe->set_fault_tolerance(core::FaultToleranceConfig{});
  s.pipe->set_overload(core::OverloadConfig{});
  s.pipe->set_elastic(core::ElasticConfig{});
  core::IntegrityConfig integ;
  integ.enabled = w.guarded;
  s.pipe->set_integrity(integ);
  core::HealthConfig health;
  health.enabled = w.guarded;
  s.pipe->set_health(health);
  return s;
}

// Builds the system at least `min_repeats` times and for at least
// `min_seconds`, appending each build's time to `samples`; returns the last
// build. The previous build is destroyed before the next one starts, so two
// systems are never alive at once.
System timed_builds(const Workload& w, int min_repeats, double min_seconds,
                    std::vector<double>& samples) {
  System last;
  WallTimer budget;
  for (int i = 0; i < min_repeats || budget.elapsed() < min_seconds; ++i) {
    last = System{};
    WallTimer t;
    last = build_system(w);
    samples.push_back(t.elapsed());
  }
  return last;
}

// --- helpers -----------------------------------------------------------------

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

Json numbers(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push_back(x);
  return a;
}

// Toggles span recording; recorded spans stay until obs::reset().
void set_tracing(bool on) {
  obs::Config cfg;
  cfg.enabled = on;
  obs::configure(cfg);
}

// Bit-for-bit equality: a fresh chain on the same cubes must reproduce them.
bool identical(const std::vector<stap::Detection>& a,
               const std::vector<stap::Detection>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.doppler_bin == y.doppler_bin &&
                             x.beam == y.beam && x.range == y.range &&
                             x.power == y.power && x.threshold == y.threshold;
                    });
}

// Detections are equal when they name the same cells; powers may differ by
// the float rounding the pipeline's partitioned sums introduce (the same
// tolerance the repository's pipeline-vs-sequential tests use).
bool same_detections(const std::vector<stap::Detection>& got,
                     std::vector<stap::Detection> ref) {
  std::sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
    return std::tie(a.doppler_bin, a.beam, a.range) <
           std::tie(b.doppler_bin, b.beam, b.range);
  });
  if (got.size() != ref.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].doppler_bin != ref[i].doppler_bin ||
        got[i].beam != ref[i].beam || got[i].range != ref[i].range)
      return false;
    if (std::abs(got[i].power - ref[i].power) >
        2e-2f * std::abs(ref[i].power) + 1e-5f)
      return false;
  }
  return true;
}

// A planted target is found when some detection lies within one cell of its
// range and Doppler bin. Always true on workloads without a target oracle,
// and on a stream's first CPI, whose weights have seen no training yet.
bool targets_found(const Workload& w, index_t cpi,
                   const std::vector<stap::Detection>& dets) {
  if (!w.target_oracle || cpi == 0) return true;
  const index_t n = w.p.num_pulses;
  for (const auto& t : w.scene.targets) {
    const auto bin = static_cast<index_t>(
        ((std::lround(t.doppler_norm * static_cast<double>(n)) % n) + n) % n);
    bool found = false;
    for (const auto& d : dets) {
      const index_t db = std::min((d.doppler_bin - bin + n) % n,
                                  (bin - d.doppler_bin + n) % n);
      if (db <= 1 && std::abs(d.range - t.range_cell) <= 1) found = true;
    }
    if (!found) return false;
  }
  return true;
}

// Per-CPI duration of each "sequential" stage span, in seconds, plus the
// per-CPI sum of all stages (to reconcile against the timed calls).
Json sequential_stage_samples(const std::vector<obs::Span>& spans) {
  std::map<std::string, std::map<std::int64_t, double>> by_stage;
  std::map<std::int64_t, double> total;
  for (const auto& s : spans) {
    if (std::string(s.category) != "sequential") continue;
    by_stage[s.name][s.cpi] += s.t_end - s.t_start;
    total[s.cpi] += s.t_end - s.t_start;
  }
  Json out = Json::object();
  for (const auto& [name, per_cpi] : by_stage) {
    std::vector<double> v;
    for (const auto& [cpi, d] : per_cpi) v.push_back(d);
    out[name] = numbers(v);
  }
  std::vector<double> t;
  for (const auto& [cpi, d] : total) t.push_back(d);
  out["all_stages"] = numbers(t);
  return out;
}

// --- sequential workload -----------------------------------------------------

struct SeqPass {
  std::vector<double> process_s;
  std::vector<double> cpu_s;
  std::vector<double> generate_s;
  std::vector<std::int64_t> flops;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

// Times process() calls for `seconds` of wall time. Each cube is generated
// off the clock just before its call. With `interleave`, every other call is
// traced and flop-counted into passes[1], so the traced and untraced passes
// see the same drift of the host's speed.
std::array<SeqPass, 2> run_sequential(
    const Workload& w, System& sys, double seconds, bool interleave,
    std::vector<std::vector<stap::Detection>>* dets) {
  std::array<SeqPass, 2> passes;
  WallTimer window;
  for (index_t i = 0; i == 0 || window.elapsed() < seconds; ++i) {
    const bool traced = interleave && i % 2 == 1;
    SeqPass& pass = passes[traced ? 1 : 0];
    const auto cpi = static_cast<index_t>(dets->size());
    WallTimer g;
    const cube::CpiCube cube = sys.gen->generate(cpi);
    pass.generate_s.push_back(g.elapsed());

    if (traced) set_tracing(true);
    std::optional<FlopScope> scope;
    if (traced) scope.emplace();
    const double c0 = process_cpu_seconds();
    WallTimer t;
    auto result = sys.seq->process(cube);
    pass.process_s.push_back(t.elapsed());
    pass.cpu_s.push_back(process_cpu_seconds() - c0);
    if (scope) pass.flops.push_back(static_cast<std::int64_t>(scope->count()));
    if (traced) set_tracing(false);

    ++pass.attempted;
    if (!targets_found(w, cpi, result.detections)) ++pass.failed;
    dets->push_back(std::move(result.detections));
  }
  return passes;
}

Json seq_pass_json(const SeqPass& s) {
  Json j = Json::object();
  j["process_s"] = numbers(s.process_s);
  j["cpu_s"] = numbers(s.cpu_s);
  j["generate_s"] = numbers(s.generate_s);
  if (!s.flops.empty()) {
    Json f = Json::array();
    for (auto x : s.flops) f.push_back(static_cast<long long>(x));
    j["flops"] = f;
  }
  return j;
}

// A fresh chain replays the first CPIs of the measured stream off the clock
// and must reproduce their detections exactly.
constexpr index_t kReplayCpis = 4;

// Setup of the sequential chain (its constructor solves the quiescent
// weights) is timed off the clock: kSetupFirstRepeats builds before the
// first CPI (the last one is measured), then builds for kSetupClosingSeconds
// after the window, once peak_rss_mb has been read. Builds inside the window,
// or many before it, shift the heap under the timed calls and move the peak
// by a cube's size from one seed to the next.
constexpr int kSetupFirstRepeats = 3;
constexpr double kSetupClosingSeconds = 2.0;

Json run_seq_workload(const Workload& w, const Options& o, Json& doc) {
  std::vector<double> setup_s;
  System sys = timed_builds(w, kSetupFirstRepeats, 0.0, setup_s);
  // CPI 0 warms caches and lazy state off the clock.
  std::vector<std::vector<stap::Detection>> dets;
  dets.push_back(sys.seq->process(sys.gen->generate(0)).detections);
  const auto passes = run_sequential(w, sys, o.seconds, o.trace, &dets);
  doc["peak_rss_mb"] = peak_rss_mb();
  timed_builds(w, 1, kSetupClosingSeconds, setup_s);
  doc["setup_s"] = numbers(setup_s);
  doc["untraced"] = seq_pass_json(passes[0]);
  if (o.trace) {
    doc["traced"] = seq_pass_json(passes[1]);
    doc["trace_dropped"] = static_cast<long long>(obs::dropped_count());
    doc["stages"] = sequential_stage_samples(obs::snapshot());
    obs::reset();
  }
  const std::int64_t attempted = passes[0].attempted + passes[1].attempted;
  const std::int64_t failed = passes[0].failed + passes[1].failed;

  stap::SequentialStap replay(w.p, sys.steering, sys.gen->replica());
  std::int64_t replay_mismatch = 0;
  const index_t n_replay =
      std::min<index_t>(kReplayCpis, static_cast<index_t>(dets.size()));
  for (index_t cpi = 0; cpi < n_replay; ++cpi) {
    const auto ref = replay.process(sys.gen->generate(cpi)).detections;
    if (!identical(dets[static_cast<size_t>(cpi)], ref)) ++replay_mismatch;
  }
  doc["replay_mismatches"] = static_cast<long long>(replay_mismatch);
  Json totals = Json::object();
  totals["attempted"] = static_cast<long long>(attempted);
  totals["failed"] = static_cast<long long>(failed + replay_mismatch);
  return totals;
}

// --- pipeline workloads ------------------------------------------------------

struct StreamPass {
  double cpu_s = 0.0;
  std::int64_t runs = 0;
  std::int64_t cpis = 0;
  // PipelineResult::throughput of each run: its measured CPIs over the sum
  // of their inter-completion gaps.
  std::vector<double> throughput;
  // Per run: from the start of the system's construction to the first CPI's
  // detection report.
  std::vector<double> setup_s;
  std::vector<double> latency_s;
  // Per run: Fig.-10 phase means and queue wait per task (seconds).
  std::vector<std::array<core::TaskTiming, stap::kNumTasks>> timing;
  std::vector<std::array<double, stap::kNumTasks>> wait;
  std::vector<double> bytes_per_cpi;
  std::uint64_t regenerations = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::uint64_t suspects = 0;
  std::int64_t shed = 0;
  std::int64_t missing = 0;
  // Per run and CPI: shed, rejected or never completed.
  std::vector<std::vector<char>> lost;
  // Detections of every run, checked against the reference afterwards.
  std::vector<std::vector<std::vector<stap::Detection>>> detections;
  // Traced passes only.
  std::vector<double> period_s;
  std::vector<double> accounted_fraction;
  std::vector<double> chain_compute_s, chain_pack_s, chain_unpack_s,
      chain_transport_s, chain_queue_s;
  std::int64_t xfer_spans = 0;
  std::uint64_t dropped = 0;
  double chain_accounted_sum = 0.0;  // over chains joined to measured CPIs
  double measured_latency_sum = 0.0;
  std::int64_t chains_joined = 0;
};

// Chain decomposition of one traced run, joined to the sink's measured
// per-CPI latencies.
void analyze_run(const core::PipelineResult& r, StreamPass& pass) {
  const auto spans = obs::snapshot();
  pass.dropped += obs::dropped_count();
  for (const auto& s : spans)
    if (std::string(s.name) == "xfer") ++pass.xfer_spans;
  const auto report = obs::analyze_spans(spans);
  if (report.valid) {
    pass.period_s.push_back(report.period);
    pass.accounted_fraction.push_back(report.accounted_fraction);
  }
  std::map<std::int64_t, double> measured;
  for (size_t i = 0; i < r.per_cpi_index.size(); ++i)
    measured[r.per_cpi_index[i]] = r.per_cpi_latency[i];
  for (const auto& c : report.chains) {
    pass.chain_compute_s.push_back(c.compute);
    pass.chain_pack_s.push_back(c.pack);
    pass.chain_unpack_s.push_back(c.unpack);
    pass.chain_transport_s.push_back(c.transport);
    pass.chain_queue_s.push_back(c.queue);
    if (auto it = measured.find(c.cpi); it != measured.end()) {
      pass.chain_accounted_sum += c.accounted();
      pass.measured_latency_sum += it->second;
      ++pass.chains_joined;
    }
  }
  obs::reset();
}

// Back-to-back runs of `w.batch` CPIs each until the window is spent: a new
// run starts only while the previous run's duration still fits. Every run
// sets the system up from scratch, so each one gives a setup sample that
// covers what run() builds before the first CPI (World, rank threads,
// engines) as well as the constructors. With `interleave`, every other run
// is traced into passes[1], so the traced and untraced passes see the same
// drift of the host's speed. Leaves the last run's system in `sys`.
std::array<StreamPass, 2> run_stream(const Workload& w, System& sys,
                                     double seconds, bool interleave) {
  std::array<StreamPass, 2> passes;
  WallTimer window;
  double last_run = 0.0;
  for (int i = 0; i == 0 || window.elapsed() + last_run <= seconds; ++i) {
    const bool traced = interleave && i % 2 == 1;
    StreamPass& pass = passes[traced ? 1 : 0];
    const std::uint64_t regen0 = counter_value("cpi_source.regenerations");
    WallTimer t;
    sys = System{};
    const double t_build = WallTimer::now();
    sys = build_system(w);
    const double c0 = process_cpu_seconds();
    if (traced) set_tracing(true);
    core::PipelineResult r =
        sys.pipe->run(*sys.gen, w.batch, w.warmup, w.cooldown);
    if (traced) set_tracing(false);
    last_run = t.elapsed();
    pass.cpu_s += process_cpu_seconds() - c0;
    pass.regenerations +=
        counter_value("cpi_source.regenerations") - regen0;
    ++pass.runs;
    pass.cpis += w.batch;
    if (traced) analyze_run(r, pass);

    if (r.throughput > 0.0) pass.throughput.push_back(r.throughput);
    if (r.completion_times[0] > 0.0)
      pass.setup_s.push_back(r.completion_times[0] - t_build);
    pass.latency_s.insert(pass.latency_s.end(), r.per_cpi_latency.begin(),
                          r.per_cpi_latency.end());
    pass.timing.push_back(r.timing);
    pass.wait.push_back(r.queue_wait_per_cpi);
    double bytes = 0.0;
    for (double b : r.bytes_per_edge_per_cpi) bytes += b;
    pass.bytes_per_cpi.push_back(bytes);
    pass.retransmissions += r.faults.retransmissions;
    pass.checks += r.integrity.checks_passed + r.integrity.checks_failed;
    pass.checks_failed += r.integrity.checks_failed;
    pass.suspects += r.health.suspects;
    std::vector<char> lost(static_cast<size_t>(w.batch), 0);
    for (index_t cpi : r.faults.shed_cpis) lost[static_cast<size_t>(cpi)] = 1;
    for (index_t cpi : r.overload.rejected_cpis)
      lost[static_cast<size_t>(cpi)] = 1;
    pass.shed += std::count(lost.begin(), lost.end(), 1);
    for (size_t i = 0; i < lost.size(); ++i)
      if (r.completion_times[i] <= 0.0) {
        ++pass.missing;
        lost[i] = 1;
      }
    pass.lost.push_back(std::move(lost));
    pass.detections.push_back(std::move(r.detections));
  }
  return passes;
}

Json stream_pass_json(const StreamPass& s, bool traced) {
  Json j = Json::object();
  j["runs"] = static_cast<long long>(s.runs);
  j["cpis"] = static_cast<long long>(s.cpis);
  j["cpu_s"] = s.cpu_s;
  j["throughput"] = numbers(s.throughput);
  j["latency_s"] = numbers(s.latency_s);
  Json tasks = Json::object();
  for (int t = 0; t < stap::kNumTasks; ++t) {
    std::vector<double> recv, comp, send, wait;
    for (size_t i = 0; i < s.timing.size(); ++i) {
      recv.push_back(s.timing[i][static_cast<size_t>(t)].recv);
      comp.push_back(s.timing[i][static_cast<size_t>(t)].comp);
      send.push_back(s.timing[i][static_cast<size_t>(t)].send);
      wait.push_back(s.wait[i][static_cast<size_t>(t)]);
    }
    Json task = Json::object();
    task["recv_s"] = numbers(recv);
    task["comp_s"] = numbers(comp);
    task["send_s"] = numbers(send);
    task["wait_s"] = numbers(wait);
    tasks[kTaskNames[t]] = task;
  }
  j["tasks"] = tasks;
  j["bytes_per_cpi"] = numbers(s.bytes_per_cpi);
  j["regenerations"] = static_cast<long long>(s.regenerations);
  j["retransmissions"] = static_cast<long long>(s.retransmissions);
  j["integrity_checks"] = static_cast<long long>(s.checks);
  j["integrity_checks_failed"] = static_cast<long long>(s.checks_failed);
  j["health_suspects"] = static_cast<long long>(s.suspects);
  j["shed"] = static_cast<long long>(s.shed);
  j["missing"] = static_cast<long long>(s.missing);
  if (traced) {
    j["period_s"] = numbers(s.period_s);
    j["accounted_fraction"] = numbers(s.accounted_fraction);
    j["chain_compute_s"] = numbers(s.chain_compute_s);
    j["chain_pack_s"] = numbers(s.chain_pack_s);
    j["chain_unpack_s"] = numbers(s.chain_unpack_s);
    j["chain_transport_s"] = numbers(s.chain_transport_s);
    j["chain_queue_s"] = numbers(s.chain_queue_s);
    j["xfer_spans"] = static_cast<long long>(s.xfer_spans);
    j["dropped"] = static_cast<long long>(s.dropped);
    j["chain_accounted_sum_s"] = s.chain_accounted_sum;
    j["measured_latency_sum_s"] = s.measured_latency_sum;
    j["chains_joined"] = static_cast<long long>(s.chains_joined);
  }
  return j;
}

// Runs the sequential chain over the stream's CPIs off the clock and keeps
// its detections: the oracle every pipeline run is compared with. Its
// generate() and process() timings, flop counts and (when tracing) stage
// spans are the stream workload's synth, kernels and stap layer figures.
Json run_reference(const Workload& w, System& sys, bool traced,
                   std::vector<std::vector<stap::Detection>>* ref,
                   std::int64_t* target_misses) {
  stap::SequentialStap seq(w.p, sys.steering, sys.gen->replica());
  SeqPass pass;
  if (traced) set_tracing(true);
  for (index_t cpi = 0; cpi < w.batch; ++cpi) {
    WallTimer g;
    const cube::CpiCube cube = sys.gen->generate(cpi);
    pass.generate_s.push_back(g.elapsed());
    FlopScope scope;
    WallTimer t;
    auto result = seq.process(cube);
    pass.process_s.push_back(t.elapsed());
    pass.flops.push_back(static_cast<std::int64_t>(scope.count()));
    if (!targets_found(w, cpi, result.detections)) ++*target_misses;
    ref->push_back(std::move(result.detections));
  }
  Json j = seq_pass_json(pass);
  if (traced) {
    set_tracing(false);
    j["stages"] = sequential_stage_samples(obs::snapshot());
    j["trace_dropped"] = static_cast<long long>(obs::dropped_count());
    obs::reset();
  }
  return j;
}

// CPIs whose detections differ from the reference; `failed` also counts
// each lost CPI once.
std::int64_t count_mismatches(
    const StreamPass& pass,
    const std::vector<std::vector<stap::Detection>>& ref,
    std::int64_t* failed) {
  std::int64_t bad = 0;
  for (size_t run = 0; run < pass.detections.size(); ++run)
    for (size_t cpi = 0; cpi < ref.size(); ++cpi) {
      const bool mismatch =
          !same_detections(pass.detections[run][cpi], ref[cpi]);
      bad += mismatch;
      *failed += mismatch || pass.lost[run][cpi];
    }
  return bad;
}

Json run_stream_workload(const Workload& w, const Options& o, Json& doc) {
  System sys;
  const auto passes = run_stream(w, sys, o.seconds, o.trace);
  doc["peak_rss_mb"] = peak_rss_mb();
  doc["setup_s"] = numbers(passes[0].setup_s);

  std::vector<std::vector<stap::Detection>> ref;
  std::int64_t target_misses = 0;
  doc["reference"] = run_reference(w, sys, o.trace, &ref, &target_misses);

  std::int64_t attempted = 0, failed = target_misses;
  for (size_t i = 0; i < (o.trace ? 2 : 1); ++i) {
    const auto mismatches = count_mismatches(passes[i], ref, &failed);
    Json j = stream_pass_json(passes[i], i == 1);
    j["mismatches"] = static_cast<long long>(mismatches);
    doc[i == 0 ? "untraced" : "traced"] = j;
    attempted += passes[i].cpis;
    // Integrity failures and health suspects are false alarms on a
    // fault-free run; each one counts as a failed CPI.
    failed += static_cast<std::int64_t>(passes[i].checks_failed +
                                        passes[i].suspects);
  }
  doc["reference_target_misses"] = static_cast<long long>(target_misses);
  Json totals = Json::object();
  totals["attempted"] = static_cast<long long>(attempted);
  totals["failed"] = static_cast<long long>(failed);
  return totals;
}

// --- provenance --------------------------------------------------------------

Json provenance(const Workload& w, const Options& o) {
  Json j = Json::object();
  j["workload"] = w.name;
  j["seed"] = static_cast<unsigned long long>(o.seed);
  char scene_seed[19];
  std::snprintf(scene_seed, sizeof scene_seed, "0x%016llx",
                static_cast<unsigned long long>(w.scene.seed));
  j["scene_seed"] = scene_seed;
  Json shape = Json::object();
  shape["K"] = static_cast<long long>(w.p.num_range);
  shape["J"] = static_cast<long long>(w.p.num_channels);
  shape["N"] = static_cast<long long>(w.p.num_pulses);
  shape["M"] = static_cast<long long>(w.p.num_beams);
  shape["N_hard"] = static_cast<long long>(w.p.num_hard);
  shape["segments"] = static_cast<long long>(w.p.num_segments);
  j["shape"] = shape;
  j["assignment"] = w.pipeline ? kAssignment.to_string() : "sequential";
  j["ranks"] = w.pipeline ? kAssignment.total() : 1;
  j["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  if (w.pipeline) j["cpis_per_run"] = static_cast<long long>(w.batch);
  j["abft"] = w.guarded;
  j["health"] = w.guarded;
  const auto& simd = kernels::simd_info();
  j["simd_level"] = simd.level_name;
  j["simd_source"] = simd.source;
  j["kernel_threads"] =
      static_cast<long long>(kernels::kernel_threads(w.p.intra_task_threads));
  j["build_type"] = STAPBENCH_BUILD_TYPE;
  return j;
}

int run(const Options& o) {
  const Workload w = make_workload(o);
  Json doc = Json::object();
  doc["provenance"] = provenance(w, o);

  const Json totals = w.pipeline ? run_stream_workload(w, o, doc)
                                 : run_seq_workload(w, o, doc);
  doc["attempted"] = *totals.find("attempted");
  doc["failed"] = *totals.find("failed");
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stapbench_harness: %s\n", e.what());
    return 1;
  }
}
