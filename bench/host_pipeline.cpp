// Host-machine analogue of the paper's integrated experiment: runs the
// REAL threaded parallel pipeline (not the machine model) on a reduced-size
// scenario and reports the Figure-10 phase timings, throughput, latency,
// and the detection output — alongside the sequential single-node baseline
// (the RTMCARM deployment processed whole CPIs round-robin on single
// nodes; the pipelined version is what this paper contributes).
//
// Absolute numbers are host-dependent; the structural claims (pipeline
// throughput exceeds the single-node rate; detections identical to the
// sequential reference) are asserted in tests/test_core.cpp.
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "stap/sequential.hpp"
#include "synth/steering.hpp"

using namespace ppstap;

int main(int argc, char** argv) {
  bench::report_init("host_pipeline", argc, argv);
  stap::StapParams p;
  p.num_range = 128;
  p.num_channels = 8;
  p.num_pulses = 32;
  p.num_beams = 2;
  p.num_hard = 12;
  p.stagger = 2;
  p.num_segments = 3;
  p.easy_samples_per_cpi = 24;
  p.hard_samples_per_segment = 16;
  p.cfar_ref = 6;
  p.cfar_guard = 2;
  p.validate();

  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  sp.clutter.num_patches = 12;
  sp.clutter.cnr_db = 40.0;
  sp.chirp_length = 16;
  sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 12.0});
  synth::ScenarioGenerator gen(sp);

  auto steering = synth::steering_matrix(p.num_channels, p.num_beams,
                                         p.beam_center_rad, p.beam_span_rad);
  const index_t n_cpis = 12;

  // Sequential single-node baseline (round-robin deployment's per-CPI
  // latency floor). Scene generation plays the radar, so it is timed on its
  // own and kept out of the baseline.
  stap::SequentialStap seq(p, steering, gen.replica());
  double gen_s = 0.0, seq_s = 0.0;
  size_t seq_dets = 0;
  for (index_t i = 0; i < n_cpis; ++i) {
    WallTimer gen_timer;
    const auto cube = gen.generate(i);
    gen_s += gen_timer.elapsed();
    WallTimer seq_timer;
    seq_dets += seq.process(cube).detections.size();
    seq_s += seq_timer.elapsed();
  }
  const double gen_per_cpi = gen_s / static_cast<double>(n_cpis);
  const double seq_per_cpi = seq_s / static_cast<double>(n_cpis);

  // Parallel pipelined run.
  core::NodeAssignment a{{4, 2, 6, 2, 2, 2, 2}};
  core::ParallelStapPipeline pipeline(
      p, a, steering, {gen.replica().begin(), gen.replica().end()});
  auto r = pipeline.run(gen, n_cpis, 2, 2);

  std::printf("Host parallel pipelined STAP (reduced size K=%ld J=%ld "
              "N=%ld), %d ranks\n\n",
              static_cast<long>(p.num_range),
              static_cast<long>(p.num_channels),
              static_cast<long>(p.num_pulses), a.total());
  std::printf("%-28s %7s %8s %8s %8s %8s\n", "task", "# nodes", "recv",
              "comp", "send", "total");
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto& tt = r.timing[static_cast<size_t>(t)];
    std::printf("%-28s %7d %8.4f %8.4f %8.4f %8.4f\n",
                stap::task_name(static_cast<stap::Task>(t)),
                a.nodes[static_cast<size_t>(t)], tt.recv, tt.comp, tt.send,
                tt.total());
    bench::report_row(bench::row(
        {{"kind", "task_timing"},
         {"task", stap::task_name(static_cast<stap::Task>(t))},
         {"nodes", a.nodes[static_cast<size_t>(t)]},
         {"recv_s", tt.recv},
         {"comp_s", tt.comp},
         {"send_s", tt.send},
         {"queue_wait_s", r.queue_wait_per_cpi[static_cast<size_t>(t)]}}));
  }
  size_t par_dets = 0;
  for (const auto& d : r.detections) par_dets += d.size();
  std::printf(
      "\npipeline throughput   %8.2f CPI/s\n"
      "pipeline latency      %8.4f s per CPI\n"
      "sequential baseline   %8.4f s per CPI (%.2f CPI/s single node)\n"
      "scene generation      %8.4f s per CPI (%ld threads, not in the "
      "baseline)\n"
      "detections            %zu (sequential reference: %zu)\n",
      r.throughput, r.latency, seq_per_cpi, 1.0 / seq_per_cpi, gen_per_cpi,
      static_cast<long>(gen.workers()), par_dets, seq_dets);
  bench::report_row(bench::row(
      {{"kind", "summary"},
       {"ranks", a.total()},
       {"throughput_cpi_per_s", r.throughput},
       {"latency_s", r.latency},
       {"latency_p50_s", r.latency_percentiles.p50},
       {"latency_p95_s", r.latency_percentiles.p95},
       {"latency_p99_s", r.latency_percentiles.p99},
       {"sequential_s_per_cpi", seq_per_cpi},
       {"generate_s_per_cpi", gen_per_cpi},
       {"detections", par_dets},
       {"sequential_detections", seq_dets}}));
  return bench::report_finish();
}
