#pragma once
// Shared declarations of the repository benchmark's measuring binary. The
// binary assembles the program's public pieces (Deployment, Client, the
// workload drivers, run_experiment) and observes them from outside: it never
// changes anything under src/. run.py drives it, one process per repetition.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats/histogram.h"
#include "workload/experiment.h"

namespace perfbench {

/// The workload table (README.md). Returns false for an unknown name.
bool workload_config(const std::string& name, std::uint64_t seed, std::uint64_t warmup_us,
                     std::uint64_t measure_us, paris::workload::ExperimentConfig* out);

/// Flat JSON object writer: numbers, strings and number arrays, in
/// insertion order.
class Report {
 public:
  void num(const std::string& key, double v);
  void str(const std::string& key, const std::string& v);
  void nums(const std::string& key, const std::vector<double>& v);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- process and thread accounting (procstat.cc) -------------------------

std::uint64_t steady_ns();

/// getrusage(RUSAGE_SELF): every thread of this process.
struct Usage {
  double user_us = 0;
  double sys_us = 0;
  double minflt = 0;
  double ctx_switches = 0;  ///< voluntary + involuntary
  double maxrss_kb = 0;
};
Usage self_usage();

/// On-CPU nanoseconds of every thread of this process, by tid, from
/// /proc/self/task/<tid>/schedstat.
std::map<int, std::uint64_t> thread_cpu_ns();

/// Binds `n` loopback listeners on port 0 and returns the ports the kernel
/// chose (the sockets are closed again before returning).
std::vector<std::uint16_t> free_loopback_ports(std::uint32_t n);

/// Latency quantile from a histogram, interpolated linearly between the
/// representative values of adjacent buckets so the estimate moves with
/// the counts instead of snapping to a bucket midpoint.
double hist_quantile(const paris::stats::Histogram& h, double q);

/// Exact quantile (linear interpolation between order statistics); sorts.
double quantile(std::vector<double>& v, double q);

// --- measured body (body.cc) ---------------------------------------------

enum class Mode { kTimed, kTraced };

/// Runs one in-process share of a workload (the whole deployment for sim
/// and threads, this rank's share inside a socket child) and fills `rep`.
/// `res` receives the ExperimentResult fields a socket launcher merges.
void run_body(const paris::workload::ExperimentConfig& cfg, Mode mode, const std::string& run_dir,
              Report* rep, paris::workload::ExperimentResult* res);

// --- replays (replay.cc) -------------------------------------------------

/// One read observed in the traced run: a key read at a snapshot.
struct ReadRec {
  std::uint64_t t_ns = 0;
  paris::Key key = 0;
  paris::Timestamp snapshot;
};
/// One committed write observed in the traced run.
struct WriteRec {
  std::uint64_t t_ns = 0;
  paris::Key key = 0;
  paris::Value value;
  paris::Timestamp ct;
  paris::TxId tx;
  paris::DcId origin = 0;
};
/// One traced transaction's messages, rebuilt for the codec replay.
struct TxMsgs {
  paris::TxId tx;
  paris::Timestamp snapshot;
  std::vector<paris::Key> keys;
  std::vector<paris::wire::Item> items;
  std::vector<paris::wire::WriteKV> writes;
  paris::Timestamp ct;
};

/// Replays the reads and writes through a fresh storage::MvStore and the
/// messages through wire::encode_message / decode_message_pooled; adds the
/// storage.* and wire.* timings to `rep`. Returns false if a decoded
/// message does not re-encode to the same bytes.
bool replay_layers(const std::vector<ReadRec>& reads, const std::vector<WriteRec>& writes,
                   const std::vector<TxMsgs>& txs, std::uint64_t gc_interval_ns, Report* rep);

}  // namespace perfbench
