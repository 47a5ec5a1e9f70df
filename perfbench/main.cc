// perfbench_run: one repetition of one benchmark workload, printed as a JSON
// object on the last line of stdout. run.py launches it once per repetition
// and aggregates.
//
//   perfbench_run --workload NAME --seed N --warmup-ms W --measure-ms M
//                 --mode timed|traced|checked --run-dir DIR
//
// timed   — the program's own drivers, no stage tracing: end-to-end numbers
//           and counters, with the window bracketed by CPU samples.
// traced  — benchmark-owned stamping drivers and span tracer, plus the
//           storage and codec replays (in-process workloads only).
// checked — workload::run_experiment() with the exactness and causal
//           checker on; reports its violations and the workload digest.
//
// Socket workloads re-execute this binary as their children: the children
// run the same measured body (timed) or the program's own child path
// (checked), selected by PERFBENCH_MODE.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "perfbench.h"
#include "workload/socket_runner.h"

using namespace paris;

namespace perfbench {

bool workload_config(const std::string& name, std::uint64_t seed, std::uint64_t warmup_us,
                     std::uint64_t measure_us, workload::ExperimentConfig* out) {
  workload::ExperimentConfig c;
  c.system = proto::System::kParis;
  c.seed = seed;
  c.warmup_us = warmup_us;
  c.measure_us = measure_us;
  // 3 DCs x 6 partitions, R=2: each DC holds 4 of the 6 partitions.
  c.num_dcs = 3;
  c.num_partitions = 6;
  c.replication = 2;
  c.workload = workload::WorkloadSpec::read_heavy();  // B: 19 reads + 1 write
  c.workload.partitions_per_tx = 4;
  c.workload.zipf_theta = 0.99;
  c.workload.keys_per_partition = 10'000;
  c.workload.multi_dc_ratio = 0.05;
  if (name == "read_heavy") {
    c.runtime = runtime::Kind::kThreads;
    c.worker_threads = 3;
    c.threads_per_process = 4;  // closed-loop sessions per (DC, partition)
  } else if (name == "write_heavy_wan") {
    c.runtime = runtime::Kind::kThreads;
    c.worker_threads = 3;
    c.workload.writes_per_tx = 10;  // A: 10 reads + 10 writes
    c.openloop.enabled = true;
    c.openloop.arrival_rate = 5000;
    c.threads_per_process = 16;  // clients per open-loop engine
    c.latency_model = runtime::LatencyModelKind::kMatrix;
    c.aws_latency = true;
  } else if (name == "sockets_reliable") {
    c.runtime = runtime::Kind::kSockets;
    c.socket.processes = 2;
    c.worker_threads = 1;
    c.openloop.enabled = true;
    // 6000 tx/s keeps the two single-worker processes far enough from
    // saturation that p99 tracks the pump and reliable layer rather than
    // the host's load: at 12000 tx/s, runs on a shared 4-vCPU host read
    // p99 0.6 ms or 2.3 ms depending on the neighbours.
    c.openloop.arrival_rate = 6'000;
    c.threads_per_process = 4;
    c.reliable = true;
  } else if (name == "sim_paper") {
    // The paper's default deployment: 5 DCs, 45 partitions, R=2.
    c.runtime = runtime::Kind::kSim;
    c.num_dcs = 5;
    c.num_partitions = 45;
    c.threads_per_process = 8;
    c.aws_latency = true;
  } else {
    return false;
  }
  *out = c;
  return true;
}

}  // namespace perfbench

using namespace perfbench;

namespace {

std::uint64_t g_main_ns = 0;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const void* data, std::size_t n) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  return static_cast<bool>(f);
}

double wall_s() { return static_cast<double>(steady_ns() - g_main_ns) / 1e9; }

/// A socket child in timed mode: this rank's share through run_body, the
/// ExperimentResult for the launcher's merge, and the benchmark's own report
/// next to it (RESULT.perf.json).
[[noreturn]] void run_socket_child(char** argv) {
  workload::ExperimentConfig cfg;
  std::string err;
  PARIS_CHECK_MSG(workload::detail::decode_experiment_config(read_file(argv[2]), cfg, &err),
                  err.c_str());
  cfg.socket.rank = std::atoi(argv[3]);
  cfg.socket.epoch = static_cast<std::uint32_t>(std::strtoul(argv[5], nullptr, 10));
  Report rep;
  workload::ExperimentResult res;
  run_body(cfg, Mode::kTimed, "", &rep, &res);
  rep.num("rss_kb", self_usage().maxrss_kb);
  rep.num("total_wall_s", wall_s());
  std::vector<std::uint8_t> out;
  workload::detail::encode_child_result(res, {}, out);
  PARIS_CHECK_MSG(write_file(argv[4], out.data(), out.size()), "cannot write the result file");
  const std::string side = rep.json() + "\n";
  PARIS_CHECK_MSG(write_file(std::string(argv[4]) + ".perf.json", side.data(), side.size()),
                  "cannot write the side report");
  std::exit(0);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload NAME --seed N --warmup-ms W --measure-ms M "
               "--mode timed|traced|checked --run-dir DIR\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  g_main_ns = steady_ns();
  if (argc == 6 && std::strcmp(argv[1], "--paris-socket-child") == 0) {
    const char* m = std::getenv("PERFBENCH_MODE");
    if (m != nullptr && std::strcmp(m, "timed") == 0) run_socket_child(argv);
    workload::maybe_run_socket_child(argc, argv);  // checked: the program's own child
    return 1;
  }

  std::string name, mode_name = "timed", run_dir = ".";
  std::uint64_t seed = 1, warmup_ms = 300, measure_ms = 1000;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      name = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--warmup-ms") {
      warmup_ms = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--measure-ms") {
      measure_ms = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--mode") {
      mode_name = v;
    } else if (k == "--run-dir") {
      run_dir = v;
    } else {
      usage();
    }
  }
  workload::ExperimentConfig cfg;
  if (!workload_config(name, seed, warmup_ms * 1000, measure_ms * 1000, &cfg)) usage();
  if (mode_name != "timed" && mode_name != "traced" && mode_name != "checked") usage();
  const bool sockets = cfg.runtime == runtime::Kind::kSockets;
  PARIS_CHECK_MSG(!(sockets && mode_name == "traced"),
                  "the traced run covers the in-process workloads only");

  Report rep;
  rep.str("workload", name);
  rep.str("mode", mode_name);
  rep.num("seed", static_cast<double>(seed));

  if (sockets) {
    // Free loopback ports chosen by the kernel, passed as the host list: no
    // fixed port block to collide with.
    const auto ports = free_loopback_ports(cfg.socket.resolve_processes(cfg.num_dcs));
    for (std::uint16_t p : ports) cfg.socket.hosts.push_back({"127.0.0.1", p});
    cfg.socket.dir = run_dir + "/sockets";
    setenv("PERFBENCH_MODE", mode_name.c_str(), 1);
  }

  if (mode_name == "checked" || sockets) {
    cfg.check_consistency = mode_name == "checked";
    const workload::ExperimentResult res = workload::run_experiment(cfg);
    const stats::Histogram& lat = cfg.openloop.enabled ? res.intended_hist : res.latency_hist;
    rep.num("violations", static_cast<double>(res.violations.size()));
    rep.str("first_violation", res.violations.empty() ? "" : res.violations.front());
    rep.num("window_commits", static_cast<double>(res.committed));
    rep.num("lat_p50_us", hist_quantile(lat, 0.50));
    rep.num("lat_p99_us", hist_quantile(lat, 0.99));
    rep.num("lat_samples", static_cast<double>(lat.count()));
    rep.num("scheduled", static_cast<double>(res.scheduled));
    rep.num("overdue", static_cast<double>(res.overdue));
    rep.num("max_backlog", static_cast<double>(res.max_backlog));
    rep.num("digest_hi", static_cast<double>(res.workload_digest >> 32));
    rep.num("digest_lo", static_cast<double>(res.workload_digest & 0xffffffffu));
    rep.num("children", sockets ? static_cast<double>(cfg.socket.resolve_processes(cfg.num_dcs)) : 0);
    rep.str("sockets_dir", sockets ? cfg.socket.dir : "");
  } else {
    workload::ExperimentResult res;
    run_body(cfg, mode_name == "traced" ? Mode::kTraced : Mode::kTimed, run_dir, &rep, &res);
  }
  rep.num("rss_kb", self_usage().maxrss_kb);
  rep.num("total_wall_s", wall_s());
  std::printf("%s\n", rep.json().c_str());
  return 0;
}
