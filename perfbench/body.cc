// The measured body: builds a proto::Deployment from an ExperimentConfig the
// way workload::run_experiment does, drives it with the program's own
// closed-loop Session / open-loop OpenLoopEngine (timed mode) or with
// benchmark-owned stamping drivers (traced mode), and brackets the
// measurement window from outside with process and thread CPU samples.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/assert.h"
#include "common/rng.h"
#include "perfbench.h"
#include "proto/deployment.h"
#include "workload/driver.h"
#include "workload/openloop.h"

namespace perfbench {

using namespace paris;

namespace {

constexpr std::uint64_t kClusterSeed = 1;
/// The measurement window is cut into this many equal slices, each with its
/// own CPU and commit deltas.
constexpr std::uint32_t kSlices = 16;

/// Update-visibility sampling: the same 1-in-16 rule run_experiment uses.
bool vis_sampled(TxId tx) { return (splitmix64(tx.raw) & 15) == 0; }
/// Span sampling of the traced run: 1 in 4, independent of the above.
bool span_sampled(TxId tx) { return ((splitmix64(tx.raw) >> 8) & 3) == 0; }

/// Commit counts of this process's clients at a series of instants. Each
/// client's count is read on its own execution context (a posted task), so
/// the sampler never races a worker.
class CommitSampler {
 public:
  CommitSampler(runtime::Executor& exec, std::vector<proto::Client*> clients,
                std::size_t instants)
      : exec_(exec), clients_(std::move(clients)), counts_(instants) {}

  /// Asks every client for its count as of now (instant `k`).
  void sample(std::size_t k) {
    pending_.fetch_add(clients_.size(), std::memory_order_relaxed);
    for (proto::Client* c : clients_) {
      exec_.post(c->node(), [this, c, k] {
        const auto& s = c->stats();
        counts_[k].fetch_add(s.txs_committed + s.read_only_txs, std::memory_order_relaxed);
        pending_.fetch_sub(1, std::memory_order_release);
      });
    }
  }
  /// Waits (at most `timeout_ns`) until every requested count is in.
  bool wait(std::uint64_t timeout_ns) const {
    const std::uint64_t until = steady_ns() + timeout_ns;
    while (pending_.load(std::memory_order_acquire) != 0) {
      if (steady_ns() > until) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }
  double count(std::size_t k) const {
    return static_cast<double>(counts_[k].load(std::memory_order_relaxed));
  }

 private:
  runtime::Executor& exec_;
  std::vector<proto::Client*> clients_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> pending_{0};
};

/// One time base for stamps and tracer hooks: simulated time on the
/// simulator, CLOCK_MONOTONIC otherwise (shared by every process of a run).
class Clock {
 public:
  void bind(runtime::Executor* exec, bool sim) {
    exec_ = exec;
    sim_ = sim;
  }
  std::uint64_t ns() const { return sim_ ? exec_->now_us() * 1000 : steady_ns(); }

 private:
  runtime::Executor* exec_ = nullptr;
  bool sim_ = false;
};

struct Event {
  std::uint64_t tx = 0;
  std::uint64_t t = 0;
  std::uint32_t dc = 0;
  std::uint32_t p = 0;
};

/// Benchmark-owned tracer. Timed mode keeps only the sampled visibility
/// events (the work run_experiment's own tracer does for Fig. 4); traced
/// mode also keeps the stage events of span-sampled transactions and the
/// reads and writes the storage/wire replays consume. Hooks fire on every
/// worker thread, so all state sits behind one mutex.
class BenchTracer final : public proto::Tracer {
 public:
  BenchTracer(const Clock& clk, bool spans) : clk_(clk), spans_(spans) {}
  BenchTracer(const BenchTracer&) = delete;
  BenchTracer& operator=(const BenchTracer&) = delete;

  void on_tx_started(NodeId, TxId tx, Timestamp snapshot, sim::SimTime now) override {
    if (!spans_ || !span_sampled(tx)) return;
    const double age_us =
        static_cast<double>(now) - static_cast<double>(snapshot.physical_us());
    std::lock_guard<std::mutex> lk(mu_);
    snapshot_age_us.push_back(age_us);
    if (TxMsgs* m = msgs_for(tx)) m->snapshot = snapshot;
  }

  void on_commit_writes(TxId tx, DcId, const std::vector<wire::WriteKV>& writes) override {
    if (!spans_ || !span_sampled(tx)) return;
    const std::uint64_t t = clk_.ns();
    std::lock_guard<std::mutex> lk(mu_);
    at_coordinator.push_back({tx.raw, t, 0, 0});
    if (TxMsgs* m = msgs_for(tx)) m->writes = writes;
  }

  void on_commit_decided(TxId tx, Timestamp ct, DcId origin, sim::SimTime) override {
    const bool vis = vis_sampled(tx);
    const bool span = spans_ && span_sampled(tx);
    if (!vis && !span) return;
    const std::uint64_t t = clk_.ns();
    std::lock_guard<std::mutex> lk(mu_);
    if (vis) vis_decided.push_back({tx.raw, t, origin, 0});
    if (!span) return;
    decided.push_back({tx.raw, t, origin, 0});
    auto it = msgs_.find(tx.raw);
    if (it == msgs_.end()) return;
    it->second.ct = ct;
    for (const wire::WriteKV& w : it->second.writes) writes.push_back({t, w.k, w.v, ct, tx, origin});
  }

  void on_applied(DcId dc, PartitionId p, TxId tx, Timestamp, sim::SimTime) override {
    if (!spans_ || !(span_sampled(tx) || vis_sampled(tx))) return;
    const std::uint64_t t = clk_.ns();
    std::lock_guard<std::mutex> lk(mu_);
    applied.push_back({tx.raw, t, dc, p});
  }

  void on_visible(DcId dc, PartitionId p, TxId tx, Timestamp, sim::SimTime) override {
    const std::uint64_t t = clk_.ns();
    std::lock_guard<std::mutex> lk(mu_);
    visible.push_back({tx.raw, t, dc, p});
  }

  void on_slice_served(DcId dc, PartitionId p, TxId tx, Timestamp snapshot, std::uint8_t,
                       const std::vector<wire::Item>& items, sim::SimTime) override {
    if (!spans_ || !span_sampled(tx)) return;
    const std::uint64_t t = clk_.ns();
    std::lock_guard<std::mutex> lk(mu_);
    slices.push_back({tx.raw, t, dc, p});
    // The replays take the reads and writes of the same transactions.
    TxMsgs* m = msgs_for(tx);
    if (m == nullptr) return;
    for (const wire::Item& it : items) {
      m->keys.push_back(it.k);
      m->items.push_back(it);
      reads.push_back({t, it.k, snapshot});
    }
  }

  void on_ust_advance(DcId dc, PartitionId p, Timestamp, sim::SimTime) override {
    if (!spans_) return;
    const std::uint64_t t = clk_.ns();
    std::lock_guard<std::mutex> lk(mu_);
    ust_advances.push_back({0, t, dc, p});
  }

  bool want_visibility(TxId tx) const override { return vis_sampled(tx); }

  /// Transactions whose messages the codec replay re-encodes.
  std::vector<TxMsgs> take_msgs() {
    std::vector<TxMsgs> out;
    out.reserve(msgs_.size());
    for (auto& [raw, m] : msgs_) {
      if (m.ct.is_zero() || m.items.empty()) continue;
      m.tx = TxId{raw};
      out.push_back(std::move(m));
      if (out.size() >= kMaxReplayTxs) break;
    }
    return out;
  }

  static constexpr std::size_t kMaxReplayTxs = 20'000;

  // Read by run_body after the deployment stopped.
  std::vector<double> snapshot_age_us;
  std::vector<Event> at_coordinator, decided, applied, visible, vis_decided, slices,
      ust_advances;
  std::vector<ReadRec> reads;
  std::vector<WriteRec> writes;

 private:
  /// The replay record of `tx`, created for the first kMaxReplayTxs
  /// transactions only (keeps the traced run's memory bounded).
  TxMsgs* msgs_for(TxId tx) {
    auto it = msgs_.find(tx.raw);
    if (it != msgs_.end()) return &it->second;
    if (msgs_.size() >= kMaxReplayTxs) return nullptr;
    return &msgs_[tx.raw];
  }

  const Clock& clk_;
  const bool spans_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, TxMsgs> msgs_;
};

/// One stamped transaction: every client call and its callback.
struct Stamp {
  std::uint64_t tx = 0;
  std::uint64_t sched = 0;  ///< open loop: scheduled arrival; else start_call
  std::uint64_t start_call = 0, start_cb = 0;
  std::uint64_t read_call = 0, read_cb = 0;
  std::uint64_t commit_call = 0, commit_cb = 0;
};

/// Runs one transaction plan on a client, stamping each Client::start_tx /
/// read / commit call and its callback. Lives on the client's context.
class Stamper {
 public:
  Stamper(proto::Client& c, const Clock& clk) : c_(c), clk_(clk) {}
  Stamper(const Stamper&) = delete;
  Stamper& operator=(const Stamper&) = delete;

  void run(const workload::TxPlan& plan, std::uint64_t sched, std::function<void()> done) {
    plan_ = &plan;
    done_ = std::move(done);
    cur_ = Stamp{};
    cur_.start_call = clk_.ns();
    cur_.sched = sched != 0 ? sched : cur_.start_call;
    c_.start_tx([this](TxId tx, Timestamp) {
      cur_.tx = tx.raw;
      cur_.start_cb = clk_.ns();
      if (plan_->reads.empty()) {
        cur_.read_call = cur_.read_cb = cur_.start_cb;
        write_and_commit();
        return;
      }
      cur_.read_call = clk_.ns();
      c_.read(plan_->reads, [this](std::vector<wire::Item>) {
        cur_.read_cb = clk_.ns();
        write_and_commit();
      });
    });
  }

  std::vector<Stamp> stamps;

 private:
  void write_and_commit() {
    if (!plan_->writes.empty()) c_.write(plan_->writes);
    cur_.commit_call = clk_.ns();
    c_.commit([this](Timestamp) {
      cur_.commit_cb = clk_.ns();
      stamps.push_back(cur_);
      auto done = std::move(done_);
      done();
    });
  }

  proto::Client& c_;
  const Clock& clk_;
  const workload::TxPlan* plan_ = nullptr;
  std::function<void()> done_;
  Stamp cur_;
};

/// Traced closed loop: the program's Session shape (start, parallel reads,
/// buffered writes, commit, repeat) through a Stamper.
class StampSession {
 public:
  StampSession(proto::Client& c, const Clock& clk, workload::TxGenerator gen)
      : stamper(c, clk), gen_(std::move(gen)) {}
  StampSession(const StampSession&) = delete;
  StampSession& operator=(const StampSession&) = delete;
  void next_tx() {
    plan_ = gen_.next();
    stamper.run(plan_, 0, [this] { next_tx(); });
  }
  Stamper stamper;

 private:
  workload::TxGenerator gen_;
  workload::TxPlan plan_;
};

/// Traced open loop: releases an OpenLoopEngine's pre-drawn schedule with
/// the engine's own pump rule (every 200 µs, FIFO backlog, idle-client pool)
/// through Stampers, so every intended latency starts at the scheduled
/// arrival.
class StampDispatcher {
 public:
  StampDispatcher(const workload::OpenLoopEngine& eng, const std::vector<proto::Client*>& pool,
                  runtime::Executor& exec, const Clock& clk)
      : sched_(eng.schedule()), pool_(pool), exec_(exec) {
    for (proto::Client* c : pool_) stampers.push_back(std::make_unique<Stamper>(*c, clk));
  }
  StampDispatcher(const StampDispatcher&) = delete;
  StampDispatcher& operator=(const StampDispatcher&) = delete;

  void start(std::uint64_t t0_us, std::uint64_t t0_ns) {
    t0_us_ = t0_us;
    t0_ns_ = t0_ns;
    for (std::size_t i = 0; i < pool_.size(); ++i) idle_.push_back(i);
    timer_ = exec_.every(pool_[0]->node(), 200, 200, [this] { pump(); });
  }
  void stop() { timer_.cancel(); }
  std::uint64_t max_backlog() const { return max_backlog_; }

  std::vector<std::unique_ptr<Stamper>> stampers;

 private:
  void pump() {
    const std::uint64_t now = exec_.now_us();
    std::lock_guard<std::mutex> lk(mu_);
    while (next_ < sched_.size() && t0_us_ + sched_[next_].at_us <= now) {
      backlog_.push_back(next_++);
    }
    max_backlog_ = std::max<std::uint64_t>(max_backlog_, backlog_.size());
    while (!backlog_.empty() && !idle_.empty()) {
      const std::size_t ci = idle_.back();
      idle_.pop_back();
      const std::size_t ai = backlog_.front();
      backlog_.pop_front();
      exec_.post(pool_[ci]->node(), [this, ci, ai] { run_tx(ci, ai); });
    }
  }

  void run_tx(std::size_t ci, std::size_t ai) {
    stampers[ci]->run(sched_[ai].plan, t0_ns_ + sched_[ai].at_us * 1000, [this, ci] {
      std::size_t next = static_cast<std::size_t>(-1);
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (!backlog_.empty()) {
          next = backlog_.front();
          backlog_.pop_front();
        } else {
          idle_.push_back(ci);
        }
      }
      if (next != static_cast<std::size_t>(-1)) run_tx(ci, next);
    });
  }

  const std::vector<workload::OpenLoopEngine::Arrival>& sched_;
  std::vector<proto::Client*> pool_;
  runtime::Executor& exec_;
  runtime::TimerHandle timer_;
  std::uint64_t t0_us_ = 0, t0_ns_ = 0;
  std::mutex mu_;
  std::size_t next_ = 0;
  std::deque<std::size_t> backlog_;
  std::vector<std::size_t> idle_;
  std::uint64_t max_backlog_ = 0;
};

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::vector<double> flatten(const std::vector<Event>& ev) {
  std::vector<double> out;
  out.reserve(ev.size() * 2);
  for (const Event& e : ev) {
    out.push_back(static_cast<double>(e.tx));
    out.push_back(static_cast<double>(e.t));
  }
  return out;
}

/// Latency (µs) from `from` to `to` events of the same transaction, keeping
/// only pairs that satisfy `keep(from, to)`.
template <class Keep>
std::vector<double> join_us(const std::vector<Event>& from, const std::vector<Event>& to,
                            Keep keep) {
  std::unordered_map<std::uint64_t, const Event*> by_tx;
  for (const Event& e : from) by_tx.emplace(e.tx, &e);
  std::vector<double> out;
  for (const Event& e : to) {
    auto it = by_tx.find(e.tx);
    if (it == by_tx.end() || e.t < it->second->t || !keep(*it->second, e)) continue;
    out.push_back(static_cast<double>(e.t - it->second->t) / 1e3);
  }
  return out;
}

/// Writes the stage spans of the first span-sampled transactions as
/// "tx  span  start_ns  end_ns  parent" lines; spans of one transaction
/// share its TxId.
void write_spans(const std::string& path,
                 const std::unordered_map<std::uint64_t, const Stamp*>& by_tx,
                 const BenchTracer& tr) {
  constexpr std::size_t kMaxTxs = 2000;
  std::unordered_map<std::uint64_t, std::vector<std::string>> lines;
  const auto span = [&](std::uint64_t tx, const std::string& name, std::uint64_t a,
                        std::uint64_t b, const char* parent) {
    auto it = lines.find(tx);
    if (it == lines.end() || b < a) return;
    it->second.push_back(std::to_string(tx) + '\t' + name + '\t' + std::to_string(a) + '\t' +
                         std::to_string(b) + '\t' + parent + '\n');
  };
  for (const auto& [tx, st] : by_tx) {
    if (lines.size() >= kMaxTxs) break;
    lines[tx];
    span(tx, "queue", st->sched, st->start_call, "tx");
    span(tx, "start", st->start_call, st->start_cb, "tx");
    span(tx, "read", st->read_call, st->read_cb, "tx");
    span(tx, "commit", st->commit_call, st->commit_cb, "tx");
  }
  std::unordered_map<std::uint64_t, std::uint64_t> at_coord, decided;
  std::unordered_map<std::uint64_t, std::uint64_t> applied;  // by tx ^ replica
  for (const Event& e : tr.at_coordinator) at_coord.emplace(e.tx, e.t);
  for (const Event& e : tr.decided) decided.emplace(e.tx, e.t);
  for (const Event& e : tr.slices) {
    auto it = by_tx.find(e.tx);
    if (it != by_tx.end()) {
      span(e.tx, "slice@dc" + std::to_string(e.dc), it->second->read_call, e.t, "read");
    }
  }
  for (const auto& [tx, t] : decided) {
    auto it = at_coord.find(tx);
    if (it != at_coord.end()) span(tx, "decide", it->second, t, "commit");
  }
  const auto replica = [](const Event& e) {
    return e.tx ^ (static_cast<std::uint64_t>(e.dc) << 56) ^ (static_cast<std::uint64_t>(e.p) << 48);
  };
  for (const Event& e : tr.applied) {
    auto it = decided.find(e.tx);
    if (it == decided.end()) continue;
    span(e.tx, "apply@dc" + std::to_string(e.dc), it->second, e.t, "decide");
    applied.emplace(replica(e), e.t);
  }
  for (const Event& e : tr.visible) {
    auto it = applied.find(replica(e));
    if (it != applied.end()) {
      span(e.tx, "visible@dc" + std::to_string(e.dc), it->second, e.t,
           ("apply@dc" + std::to_string(e.dc)).c_str());
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("tx\tspan\tstart_ns\tend_ns\tparent\n", f);
  for (const auto& [tx, ls] : lines) {
    for (const std::string& l : ls) std::fputs(l.c_str(), f);
  }
  std::fclose(f);
}

}  // namespace

void run_body(const workload::ExperimentConfig& cfg, Mode mode, const std::string& run_dir,
              Report* rep, workload::ExperimentResult* res) {
  const bool traced = mode == Mode::kTraced;
  const bool sim = cfg.runtime == runtime::Kind::kSim;
  const bool open_loop = cfg.openloop.enabled;

  proto::DeploymentConfig dc;
  dc.system = cfg.system;
  dc.runtime = cfg.runtime;
  dc.worker_threads = cfg.worker_threads;
  dc.socket = cfg.socket;
  dc.topo = {cfg.num_dcs, cfg.num_partitions, cfg.replication};
  dc.protocol = cfg.protocol;
  dc.cost = cfg.cost;
  dc.codec = cfg.codec;
  dc.aws_latency = cfg.aws_latency;
  dc.uniform_inter_dc_us = cfg.uniform_inter_dc_us;
  dc.uniform_intra_dc_us = cfg.uniform_intra_dc_us;
  dc.latency_model = cfg.latency_model;
  dc.reliable = cfg.reliable;
  dc.reliable_cfg = cfg.reliable_cfg;
  // The seed makes the inputs (sessions, schedules); the cluster itself —
  // clock offsets and drifts, timer phases — is the same for every seed.
  dc.seed = kClusterSeed;

  Clock clk;
  BenchTracer tracer(clk, traced);
  proto::Deployment dep(dc, &tracer);
  runtime::Executor& exec = dep.exec();
  clk.bind(&exec, sim);
  dep.start();

  // Drivers, enumerated exactly as run_experiment does so client node ids,
  // session seeds, engine indices and schedules agree with it.
  const std::uint64_t horizon_us = cfg.warmup_us + cfg.measure_us;
  workload::Collector collector;
  std::vector<std::unique_ptr<workload::Session>> sessions;
  std::vector<std::unique_ptr<StampSession>> stamp_sessions;
  std::vector<NodeId> session_nodes;
  std::vector<std::unique_ptr<workload::OpenLoopEngine>> engines;
  std::vector<std::unique_ptr<StampDispatcher>> dispatchers;
  const std::uint32_t num_engines = cfg.num_partitions * cfg.replication;
  std::uint32_t engine_index = 0;
  for (DcId d = 0; d < dep.topo().num_dcs(); ++d) {
    for (PartitionId p : dep.topo().partitions_at(d)) {
      if (open_loop) {
        std::vector<proto::Client*> pool;
        for (std::uint32_t t = 0; t < cfg.threads_per_process; ++t) {
          auto& client = dep.add_client(d, p);
          if (dep.backend().local(client.node())) pool.push_back(&client);
        }
        if (!pool.empty()) {
          const std::uint64_t eseed =
              splitmix64(cfg.seed ^ (static_cast<std::uint64_t>(d) << 40) ^
                         (static_cast<std::uint64_t>(p) << 20) ^ 0xA5A5ULL);
          auto eng = std::make_unique<workload::OpenLoopEngine>(
              dep.topo(), cfg.workload, cfg.openloop, d, p, engine_index, num_engines,
              horizon_us, eseed, nullptr);
          if (traced) {
            dispatchers.push_back(std::make_unique<StampDispatcher>(*eng, pool, exec, clk));
          } else {
            for (proto::Client* c : pool) eng->add_client(c);
          }
          engines.push_back(std::move(eng));
        }
        ++engine_index;
        continue;
      }
      for (std::uint32_t t = 0; t < cfg.threads_per_process; ++t) {
        auto& client = dep.add_client(d, p);
        if (!dep.backend().local(client.node())) continue;
        const std::uint64_t seed =
            splitmix64(cfg.seed ^ (static_cast<std::uint64_t>(d) << 40) ^
                       (static_cast<std::uint64_t>(p) << 20) ^ t);
        workload::TxGenerator gen(dep.topo(), cfg.workload, d, seed);
        if (traced) {
          stamp_sessions.push_back(std::make_unique<StampSession>(client, clk, std::move(gen)));
        } else {
          sessions.push_back(
              std::make_unique<workload::Session>(exec, client, std::move(gen), collector));
        }
        session_nodes.push_back(client.node());
      }
    }
  }

  // Window, anchored like run_experiment's: t0 is the runtime's current time.
  const std::uint64_t t0 = exec.now_us();
  const std::uint64_t t0_ns = clk.ns();
  const std::uint64_t win_begin = t0 + cfg.warmup_us;
  const std::uint64_t win_end = win_begin + cfg.measure_us;
  const std::uint64_t win_begin_ns = t0_ns + cfg.warmup_us * 1000;
  const std::uint64_t win_end_ns = win_begin_ns + cfg.measure_us * 1000;
  collector.set_window(win_begin, win_end);
  for (auto& eng : engines) {
    eng->recorder().set_window(win_begin, win_end);
    if (!traced) eng->start(exec, t0);
  }
  for (auto& disp : dispatchers) disp->start(t0, t0_ns);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    workload::Session* s = sessions[i].get();
    exec.post(session_nodes[i], [s] { s->run(); });
  }
  for (std::size_t i = 0; i < stamp_sessions.size(); ++i) {
    StampSession* s = stamp_sessions[i].get();
    exec.post(session_nodes[i], [s] { s->next_tx(); });
  }

  const auto before_threads = thread_cpu_ns();
  // Sockets: the mesh join is set-up, timed on its own.
  double mesh_join_ms = 0;
  if (runtime::SocketBackend* sb = dep.socket_backend()) {
    const std::uint64_t j0 = steady_ns();
    sb->start();
    mesh_join_ms = static_cast<double>(steady_ns() - j0) / 1e6;
  }
  const auto run_until = [&](std::uint64_t abs_us) {
    const std::uint64_t now = exec.now_us();
    if (abs_us > now) dep.run_for(abs_us - now);
  };
  const std::uint64_t load_begin = steady_ns();
  const std::uint64_t events_begin = dep.backend().events_executed();
  run_until(win_begin);
  const std::uint64_t wa = steady_ns();
  const Usage ua = self_usage();
  const auto ta = thread_cpu_ns();
  const std::uint64_t ea = dep.backend().events_executed();
  // Slices of the window: wall time and process CPU at each boundary, and
  // the clients' commit counts read on their own workers.
  std::vector<proto::Client*> local_clients;
  for (const auto& c : dep.clients()) {
    if (dep.backend().local(c->node())) local_clients.push_back(c.get());
  }
  CommitSampler commits(exec, local_clients, kSlices + 1);
  std::vector<std::uint64_t> slice_wall{wa};
  std::vector<Usage> slice_usage{ua};
  commits.sample(0);
  for (std::uint32_t k = 1; k <= kSlices; ++k) {
    run_until(win_begin + cfg.measure_us * k / kSlices);
    slice_wall.push_back(steady_ns());
    slice_usage.push_back(self_usage());
    commits.sample(k);
  }
  const std::uint64_t wb = slice_wall.back();
  const Usage ub = slice_usage.back();
  const auto tb = thread_cpu_ns();
  const std::uint64_t eb = dep.backend().events_executed();
  PARIS_CHECK_MSG(commits.wait(2'000'000'000ull), "clients did not report their commit counts");
  std::vector<double> slice_s, slice_cpu_us, slice_commits;
  for (std::uint32_t k = 1; k <= kSlices; ++k) {
    slice_s.push_back(static_cast<double>(slice_wall[k] - slice_wall[k - 1]) / 1e9);
    slice_cpu_us.push_back(slice_usage[k].user_us + slice_usage[k].sys_us -
                           slice_usage[k - 1].user_us - slice_usage[k - 1].sys_us);
    slice_commits.push_back(commits.count(k) - commits.count(k - 1));
  }
  const std::uint64_t load_end = wb;
  dep.stop();
  for (auto& disp : dispatchers) disp->stop();
  for (auto& eng : engines) {
    if (!traced) eng->finalize();
  }

  // --- client-observed latency and window commits ---
  stats::Histogram lat_hist;
  std::uint64_t window_commits = 0;
  std::uint64_t scheduled = 0, overdue = 0, max_backlog = 0;
  std::vector<Stamp> stamps;
  if (traced) {
    std::vector<Stamper*> all;
    for (auto& s : stamp_sessions) all.push_back(&s->stamper);
    for (auto& disp : dispatchers) {
      for (auto& st : disp->stampers) all.push_back(st.get());
      max_backlog = std::max(max_backlog, disp->max_backlog());
    }
    for (Stamper* s : all) {
      for (const Stamp& st : s->stamps) {
        if (st.commit_cb < win_begin_ns || st.commit_cb >= win_end_ns) continue;
        stamps.push_back(st);
        lat_hist.record((st.commit_cb - st.sched) / 1000);
      }
    }
    window_commits = stamps.size();
  } else if (open_loop) {
    stats::LatencyRecorder rec;
    for (auto& eng : engines) {
      rec.merge(eng->recorder());
      res->workload_digest ^= eng->digest();
    }
    lat_hist = rec.intended();
    window_commits = rec.completed();
    scheduled = rec.scheduled();
    overdue = rec.overdue();
    max_backlog = rec.max_backlog();
    res->intended_hist = rec.intended();
    res->service_hist = rec.service();
  } else {
    lat_hist = collector.latency();
    window_commits = collector.committed();
    res->latency_local_hist = collector.latency_local();
    res->latency_multi_hist = collector.latency_multi();
  }
  if (traced) {
    for (auto& eng : engines) res->workload_digest ^= eng->digest();
  }
  res->committed = window_commits;
  res->latency_hist = lat_hist;
  res->scheduled = scheduled;
  res->overdue = overdue;
  res->max_backlog = max_backlog;

  // --- whole-run counters (read after stop: workers are joined) ---
  const auto server = dep.total_server_stats();
  std::uint64_t started = 0, committed_total = 0, keys_read = 0, local_hits = 0, lost = 0;
  std::size_t cache_max = 0;
  for (const auto& c : dep.clients()) {
    if (!dep.backend().local(c->node())) continue;
    const auto& s = c->stats();
    const std::uint64_t done = s.txs_committed + s.read_only_txs;
    started += s.txs_started;
    committed_total += done;
    keys_read += s.keys_read;
    local_hits += s.local_hits;
    cache_max = std::max(cache_max, s.max_cache_size);
    // A client runs one transaction at a time, so at most one may still be
    // in flight at stop; anything beyond that never completed.
    if (s.txs_started > done + 1) lost += s.txs_started - done - 1;
  }
  res->gossip_msgs = server.gossip_msgs_sent;
  res->keys_read = keys_read;
  res->local_hits = local_hits;
  res->max_client_cache = cache_max;
  res->sim_events = dep.backend().events_executed();
  res->bytes_sent = dep.transport().total_bytes_sent();
  if (dep.reliable_transport() != nullptr) res->reliable = dep.reliable_transport()->stats();
  if (dep.socket_backend() != nullptr) res->socket = dep.socket_backend()->stats();

  // --- CPU inside the window ---
  const double window_s = static_cast<double>(wb - wa) / 1e9;
  const double cpu_user = ub.user_us - ua.user_us;
  const double cpu_sys = ub.sys_us - ua.sys_us;
  // Threads the backend started (workers; on sockets the I/O pump first).
  std::vector<int> backend_tids;
  for (const auto& [tid, ns] : ta) {
    if (before_threads.count(tid) == 0) backend_tids.push_back(tid);
  }
  std::sort(backend_tids.begin(), backend_tids.end());
  const auto tcpu = [&](int tid) {
    const auto a = ta.find(tid), b = tb.find(tid);
    return a == ta.end() || b == tb.end() ? 0.0 : static_cast<double>(b->second - a->second);
  };
  double pump_ns = 0, worker_ns = 0;
  std::size_t workers = 0;
  for (std::size_t i = 0; i < backend_tids.size(); ++i) {
    if (dep.socket_backend() != nullptr && i == 0) {
      pump_ns = tcpu(backend_tids[i]);
    } else {
      worker_ns += tcpu(backend_tids[i]);
      ++workers;
    }
  }

  rep->str("runtime", runtime::kind_name(cfg.runtime));
  rep->num("window_s", window_s);
  rep->num("sim_window_s", static_cast<double>(cfg.measure_us) / 1e6);
  rep->num("load_wall_s", static_cast<double>(load_end - load_begin) / 1e9);
  rep->num("mesh_join_ms", mesh_join_ms);
  rep->num("window_commits", static_cast<double>(window_commits));
  rep->num("started", static_cast<double>(started));
  rep->num("committed_total", static_cast<double>(committed_total));
  rep->num("lost", static_cast<double>(lost));
  rep->num("lat_p50_us", hist_quantile(lat_hist, 0.50));
  rep->num("lat_p99_us", hist_quantile(lat_hist, 0.99));
  rep->num("lat_samples", static_cast<double>(lat_hist.count()));
  rep->num("scheduled", static_cast<double>(scheduled));
  rep->num("overdue", static_cast<double>(overdue));
  rep->num("max_backlog", static_cast<double>(max_backlog));
  rep->num("digest_hi", static_cast<double>(res->workload_digest >> 32));
  rep->num("digest_lo", static_cast<double>(res->workload_digest & 0xffffffffu));
  rep->num("cpu_user_us", cpu_user);
  rep->num("cpu_sys_us", cpu_sys);
  rep->num("minflt", ub.minflt - ua.minflt);
  rep->num("ctx_switches", ub.ctx_switches - ua.ctx_switches);
  rep->num("workers", static_cast<double>(workers));
  rep->num("worker_cpu_ns", worker_ns);
  rep->num("pump_cpu_ns", pump_ns);
  rep->nums("slice_s", slice_s);
  rep->nums("slice_cpu_us", slice_cpu_us);
  rep->nums("slice_commits", slice_commits);
  rep->num("events_window", static_cast<double>(eb - ea));
  rep->num("events_total", static_cast<double>(dep.backend().events_executed() - events_begin));
  rep->num("bytes_sent", static_cast<double>(res->bytes_sent));
  rep->num("keys_read", static_cast<double>(keys_read));
  rep->num("local_hits", static_cast<double>(local_hits));
  rep->num("cache_entries_max", static_cast<double>(cache_max));
  rep->num("slices_served", static_cast<double>(server.slices_served));
  rep->num("cohort_prepares", static_cast<double>(server.cohort_prepares));
  rep->num("txs_coordinated", static_cast<double>(server.txs_coordinated));
  rep->num("gossip_msgs", static_cast<double>(server.gossip_msgs_sent));
  const auto& rl = res->reliable;
  rep->num("rel_frames", static_cast<double>(rl.frames_sent));
  rep->num("rel_acks", static_cast<double>(rl.acks_sent));
  rep->num("rel_retransmits", static_cast<double>(rl.retransmits));
  rep->num("rel_coalesced", static_cast<double>(rl.coalesced));
  const auto& so = res->socket;
  rep->num("sock_frames", static_cast<double>(so.frames_out + so.frames_in));
  rep->num("sock_frames_out", static_cast<double>(so.frames_out));
  rep->num("sock_bytes", static_cast<double>(so.bytes_out + so.bytes_in));
  rep->num("sock_syscalls", static_cast<double>(so.read_syscalls + so.write_syscalls));
  rep->num("sock_flushes", static_cast<double>(so.flushes));
  rep->num("sock_backpressure_stalls", static_cast<double>(so.backpressure_stalls));
  rep->num("win_begin_ns", static_cast<double>(win_begin_ns));
  rep->num("win_end_ns", static_cast<double>(win_end_ns));
  rep->nums("vis_decided", flatten(tracer.vis_decided));
  rep->nums("vis_visible", flatten(tracer.visible));

  if (!traced) return;

  // --- traced stages (client spans from the stamps, server spans from the
  // tracer, joined on TxId) ---
  std::vector<double> start_us, read_us, commit_us;
  std::size_t untiled = 0;
  std::unordered_map<std::uint64_t, const Stamp*> by_tx;
  for (const Stamp& st : stamps) {
    start_us.push_back(static_cast<double>(st.start_cb - st.start_call) / 1e3);
    if (st.read_cb > st.read_call) {
      read_us.push_back(static_cast<double>(st.read_cb - st.read_call) / 1e3);
    }
    commit_us.push_back(static_cast<double>(st.commit_cb - st.commit_call) / 1e3);
    // The three client spans must tile the client-observed latency, within
    // 5% of the transaction or 50 µs, whichever is larger.
    const double total = static_cast<double>(st.commit_cb - st.start_call);
    const double gap = total - static_cast<double>((st.start_cb - st.start_call) +
                                                   (st.read_cb - st.read_call) +
                                                   (st.commit_cb - st.commit_call));
    if (gap > std::max(0.05 * total, 50'000.0)) ++untiled;
    if (span_sampled(TxId{st.tx})) by_tx.emplace(st.tx, &st);
  }
  std::vector<double> read_wait_us;
  for (const Event& e : tracer.slices) {
    auto it = by_tx.find(e.tx);
    if (it != by_tx.end() && e.t >= it->second->read_call) {
      read_wait_us.push_back(static_cast<double>(e.t - it->second->read_call) / 1e3);
    }
  }
  std::vector<double> decide_us = join_us(tracer.at_coordinator, tracer.decided,
                                          [](const Event&, const Event&) { return true; });
  std::vector<double> apply_lag_us = join_us(
      tracer.decided, tracer.applied, [](const Event& d, const Event& a) { return a.dc != d.dc; });
  // applied@dc -> visible@dc of the same (transaction, replica, partition).
  std::vector<double> visible_after_apply_us;
  {
    std::unordered_map<std::uint64_t, std::uint64_t> applied_at;
    const auto key = [](const Event& e) {
      return splitmix64(e.tx ^ (static_cast<std::uint64_t>(e.dc) << 56) ^
                        (static_cast<std::uint64_t>(e.p) << 40));
    };
    for (const Event& e : tracer.applied) applied_at.emplace(key(e), e.t);
    for (const Event& e : tracer.visible) {
      auto it = applied_at.find(key(e));
      if (it != applied_at.end() && e.t >= it->second) {
        visible_after_apply_us.push_back(static_cast<double>(e.t - it->second) / 1e3);
      }
    }
  }
  std::vector<double> advance_us;
  {
    std::unordered_map<std::uint64_t, std::uint64_t> last;
    for (const Event& e : tracer.ust_advances) {
      const std::uint64_t k = (static_cast<std::uint64_t>(e.dc) << 32) | e.p;
      auto it = last.find(k);
      if (it != last.end() && e.t >= it->second) {
        advance_us.push_back(static_cast<double>(e.t - it->second) / 1e3);
      }
      last[k] = e.t;
    }
  }
  rep->num("client_start_us_p50", quantile(start_us, 0.5));
  rep->num("client_read_us_p50", quantile(read_us, 0.5));
  rep->num("client_read_us_p99", quantile(read_us, 0.99));
  rep->num("client_commit_us_p50", quantile(commit_us, 0.5));
  rep->num("tiling_untiled_ratio", ratio(static_cast<double>(untiled),
                                         static_cast<double>(stamps.size())));
  rep->num("server_read_wait_us_p50", quantile(read_wait_us, 0.5));
  rep->num("server_decide_us_p50", quantile(decide_us, 0.5));
  rep->num("server_apply_lag_ms_p50", quantile(apply_lag_us, 0.5) / 1e3);
  rep->num("ust_visible_after_apply_ms_p50", quantile(visible_after_apply_us, 0.5) / 1e3);
  rep->num("ust_snapshot_age_ms_p50", quantile(tracer.snapshot_age_us, 0.5) / 1e3);
  rep->num("ust_advance_interval_ms_p50", quantile(advance_us, 0.5) / 1e3);

  write_spans(run_dir + "/spans.tsv", by_tx, tracer);

  // Storage and codec replays of this run's own reads and writes.
  const std::vector<TxMsgs> msgs = tracer.take_msgs();
  rep->num("replay_reads", static_cast<double>(tracer.reads.size()));
  rep->num("replay_writes", static_cast<double>(tracer.writes.size()));
  rep->num("replay_txs", static_cast<double>(msgs.size()));
  const bool codec_ok = replay_layers(tracer.reads, tracer.writes, msgs,
                                      cfg.protocol.gc_interval_us * 1000, rep);
  rep->num("replay_codec_ok", codec_ok ? 1 : 0);
}

}  // namespace perfbench
