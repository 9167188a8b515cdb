// Closed-loop workloads: bulk_batch (in-process Router) and spill_overflow
// (an in-process cluster NodeAgent whose capped bulk lane spills to a forked
// peer node serving the same artifact digest).
//
// Each client thread keeps a fixed window of bulk submissions in flight and
// submits the next one as soon as its oldest completes, so the offered load
// follows the system's own pace. Latency is client-side: from the submit
// call to the moment the client holds the fix.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <thread>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

using noble::serve::Fix;
namespace engine = noble::engine;
namespace fleet = noble::fleet;
namespace obs = noble::obs;
namespace cluster = noble::cluster;

struct ClientTally {
  ClientTally(std::uint64_t window_start, double seconds)
      : wlat(window_start, seconds) {}
  Latencies lat, lat_traced, lat_untraced, submit_us;
  WindowedLatencies wlat;
  Accuracy acc;
  std::uint64_t attempted = 0, failed = 0, mismatches = 0, completed = 0;
};

/// Runs `clients` closed-loop bulk clients against `target` for warm-up +
/// `seconds`. Requests submitted in the second half of the measured window
/// are traced into `ledger` when it is non-null.
std::vector<ClientTally> closed_loop(fleet::Routing& target, const ScanPool& pool,
                                     std::size_t clients, std::size_t window,
                                     double seconds, Ledger* ledger,
                                     std::atomic<std::uint64_t>& completed,
                                     const std::function<void(std::uint64_t)>& on_window_open) {
  const std::uint64_t start = now_ns();
  const std::uint64_t warm_end = start + static_cast<std::uint64_t>(kWarmupS * 1e9);
  std::vector<ClientTally> tallies(clients, ClientTally(warm_end, seconds));
  const std::uint64_t half = warm_end + static_cast<std::uint64_t>(seconds * 0.5 * 1e9);
  const std::uint64_t end = warm_end + static_cast<std::uint64_t>(seconds * 1e9);
  std::atomic<bool> opened{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      struct Pending {
        std::size_t idx;
        std::uint64_t t0, t1;
        std::future<Fix> fut;
        std::shared_ptr<obs::Trace> trace;
      };
      std::deque<Pending> inflight;
      std::size_t next = c;
      std::uint64_t request = c;
      auto settle = [&](Pending& p) {
        Fix fix;
        try {
          fix = p.fut.get();
        } catch (const std::exception&) {
          ++t.failed;
          return;
        }
        const std::uint64_t avail = now_ns();
        if (!(fix == pool.oracle[p.idx])) ++t.mismatches;
        if (p.t0 < warm_end || p.t0 >= end) return;
        ++t.completed;
        completed.fetch_add(1, std::memory_order_relaxed);
        const double us = static_cast<double>(avail - p.t0) / 1000.0;
        t.lat.add(us);
        t.wlat.add(p.t0, us);
        t.acc.add(fix, pool.truth[p.idx]);
        if (p.trace == nullptr) {
          t.lat_untraced.add(us);
          return;
        }
        t.lat_traced.add(us);
        t.submit_us.add(static_cast<double>(p.t1 - p.t0) / 1000.0);
        const std::uint64_t adm = p.trace->mark_ns(obs::Mark::kAdmitted);
        const std::uint64_t deq = p.trace->mark_ns(obs::Mark::kDequeued);
        const std::uint64_t asm_ns = p.trace->mark_ns(obs::Mark::kAssembled);
        const std::uint64_t comp = p.trace->mark_ns(obs::Mark::kComputed);
        if (comp == 0) {
          // Answered by the spill peer: no local engine stage ran it.
          ledger->add(request, {{Layer::kRequest, -1, p.t0, avail},
                                {Layer::kFleetSubmit, 0, p.t0, p.t1},
                                {Layer::kSpill, 0, p.t1, avail}});
        } else {
          ledger->add(request, {{Layer::kRequest, -1, p.t0, avail},
                                {Layer::kFleetSubmit, 0, p.t0, adm},
                                {Layer::kQueueWait, 0, adm, deq},
                                {Layer::kAssembly, 0, deq, asm_ns},
                                {Layer::kCompute, 0, asm_ns, comp},
                                {Layer::kRespond, 0, comp, avail}});
        }
        request += clients;
      };
      for (;;) {
        const std::uint64_t now = now_ns();
        if (now >= end) break;
        if (c == 0 && now >= warm_end && !opened.exchange(true)) on_window_open(end);
        while (inflight.size() < window) {
          const std::size_t idx = next % pool.size();
          next += clients;
          engine::SubmitOptions so = engine::SubmitOptions::bulk();
          const std::uint64_t t0 = now_ns();
          if (ledger != nullptr && t0 >= half) so.trace = obs::Tracer::global().start(t0);
          engine::Submission sub = target.submit(kShard, pool.scans[idx], so);
          const std::uint64_t t1 = now_ns();
          if (t0 >= warm_end && t0 < end) ++t.attempted;
          if (!sub.accepted()) {
            ++t.failed;
            break;
          }
          inflight.push_back({idx, t0, t1, std::move(sub.result), std::move(so.trace)});
        }
        if (inflight.empty()) continue;
        settle(inflight.front());
        inflight.pop_front();
      }
      while (!inflight.empty()) {
        settle(inflight.front());
        inflight.pop_front();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return tallies;
}

ClientTally merge(const std::vector<ClientTally>& tallies) {
  ClientTally m = tallies.front();
  for (std::size_t i = 1; i < tallies.size(); ++i) {
    const ClientTally& t = tallies[i];
    m.wlat.merge(t.wlat);
    m.lat.merge(t.lat);
    m.lat_traced.merge(t.lat_traced);
    m.lat_untraced.merge(t.lat_untraced);
    m.submit_us.merge(t.submit_us);
    m.acc.merge(t.acc);
    m.attempted += t.attempted;
    m.failed += t.failed;
    m.mismatches += t.mismatches;
    m.completed += t.completed;
  }
  return m;
}

/// Shared reporting of a closed-loop run: verdict, end-to-end metrics or the
/// per-layer sheet.
void report_closed(const Options& opts, RunResult& out, const System& sys,
                   const ScanPool& pool, const ClientTally& m, const WindowMonitor& monitor,
                   const engine::EngineStats& delta, const Ledger& ledger) {
  out.attempted = m.attempted;
  out.failed = m.failed;
  out.mismatches = m.mismatches;
  if (m.mismatches != 0) out.fail("served fixes differ from direct inference");
  if (m.completed == 0) out.fail("no fix completed in the measured window");
  out.note("bulk_p50_us", m.lat.pct(50), "us");
  out.note("bulk_p90_us", m.lat.pct(90), "us");
  out.note("bulk_p95_us", m.lat.pct(95), "us");
  out.note("bulk_p99_us", m.lat.pct(99), "us");
  out.note("bulk_samples", static_cast<double>(m.lat.count()), "count");
  out.note("failed_share",
           m.attempted == 0 ? 0.0
                            : static_cast<double>(m.failed) / static_cast<double>(m.attempted),
           "ratio");
  const double qps = monitor.median_rate();
  out.note("bulk_goodput_qps", qps, "1/s");
  note_windows(out, monitor);
  if (!opts.trace) {
    out.set("p50_us", m.wlat.median_of_windows(50, &monitor.kept()), "us");
    out.note("p90_us", m.wlat.median_of_windows(90, &monitor.kept()), "us");
    out.set("throughput_qps", qps, "1/s");
    out.set("cpu_us_per_fix", monitor.median_cpu_us_per_fix(), "us");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    m.acc.emit(out);
    return;
  }
  emit_layer_defaults(out);
  out.set("core.wifi_fit_s", sys.wifi_fit_s, "s");
  out.set("core.imu_fit_s", sys.imu_fit_s, "s");
  out.set("serve.plan_build_ms", sys.plan_build_ms, "ms");
  emit_engine_layer(out, delta);
  out.set("engine.bulk_useful_ratio",
          delta.bulk.accepted == 0 ? 0.0
                                   : static_cast<double>(delta.bulk.accepted -
                                                         delta.bulk.expired) /
                                         static_cast<double>(delta.bulk.accepted),
          "ratio");
  out.set("fleet.submit_us.p50", m.submit_us.pct(50), "us");
  const double p50_off = m.lat_untraced.pct(50);
  out.set("bench.trace_overhead_pct",
          p50_off > 0 ? (m.lat_traced.pct(50) - p50_off) / p50_off * 100.0 : 0.0, "%");
  emit_ledger(out, ledger, m.lat_traced.mean(), opts);
  if (!opts.side_phase) measure_layers(out, sys, pool, make_tracks(sys, 8, opts.seed));
}

}  // namespace

// --- bulk_batch -------------------------------------------------------------------

void run_bulk_batch(const Options& opts, RunResult& out) {
  System sys;
  std::unique_ptr<fleet::Router> router;
  measure_setup(opts, out, [&] {
    router.reset();
    const std::uint64_t t0 = now_ns();
    sys = train_system();
    router = std::make_unique<fleet::Router>();
    fleet::ShardConfig shard{kShard, 1, engine_config(), 0};
    if (!router->add_shard(shard, *sys.wifi)) out.fail("add_shard failed");
    router->submit(kShard, sys.wifi_world->split.test.samples.at(0).rssi).result.get();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  });
  const ScanPool pool = make_scan_pool(sys, 16384, opts.seed);

  // Half the CPUs drive load, each with a window deep enough that every
  // worker pop finds a full max_batch waiting.
  const std::size_t clients = std::max<std::size_t>(1, host_cpus() / 2);
  const std::size_t window = 4 * engine_config().max_batch;
  Ledger ledger(64);
  engine::EngineStats before;
  std::atomic<std::uint64_t> completed{0};
  WindowMonitor monitor(completed, process_cpu_s);
  const std::vector<ClientTally> tallies =
      closed_loop(*router, pool, clients, window, opts.seconds, opts.trace ? &ledger : nullptr,
                  completed, [&](std::uint64_t end) {
                    before = router->stats().total;
                    monitor.start(end);
                  });
  monitor.join();
  const engine::EngineStats delta = engine_delta(before, router->stats().total);
  router->shutdown();
  report_closed(opts, out, sys, pool, merge(tallies), monitor, delta, ledger);
}

// --- spill_overflow -----------------------------------------------------------------

namespace {

/// Engine configuration of each cluster node: the two nodes share one host,
/// so each gets half of its CPUs as workers.
engine::EngineConfig node_config() {
  engine::EngineConfig cfg = engine_config();
  cfg.workers = std::max<std::size_t>(1, host_cpus() / 2);
  return cfg;
}

/// Node B: a forked process serving the same trained model behind its own
/// Router and NodeAgent. The parent forks it while single-threaded, then
/// sends the coordinator port down a pipe; closing the pipe stops it.
class PeerNode {
 public:
  PeerNode() = default;
  PeerNode(const PeerNode&) = delete;
  PeerNode& operator=(const PeerNode&) = delete;
  ~PeerNode() { stop(); }

  bool fork_from(const System& sys) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0) return false;
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    std::fflush(stdout);
    pid_ = fork();
    if (pid_ < 0) {
      for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) close(fd);
      return false;
    }
    if (pid_ == 0) {
      close(to_child[1]);
      close(from_child[0]);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      _exit(child_main(sys, to_child[0], from_child[1]));
    }
    close(to_child[0]);
    close(from_child[1]);
    to_child_ = to_child[1];
    from_child_ = from_child[0];
    return true;
  }

  /// Hands the coordinator port to the child; true once its agent runs.
  bool start(std::uint16_t coordinator_port) {
    if (write(to_child_, &coordinator_port, sizeof coordinator_port) !=
        static_cast<ssize_t>(sizeof coordinator_port)) {
      return false;
    }
    pollfd p{from_child_, POLLIN, 0};
    if (poll(&p, 1, 30'000) != 1) return false;
    char ok = 0;
    return read(from_child_, &ok, 1) == 1 && ok == 1;
  }

  void stop() {
    if (pid_ <= 0) return;
    close(to_child_);
    close(from_child_);
    int status = 0;
    // Orderly stop on pipe EOF; a child that does not exit in time is killed.
    for (int i = 0; i < 500; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      usleep(10'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  int pid() const { return pid_; }

 private:
  static int child_main(const System& sys, int in_fd, int out_fd) {
    std::uint16_t coordinator_port = 0;
    if (read(in_fd, &coordinator_port, sizeof coordinator_port) !=
        static_cast<ssize_t>(sizeof coordinator_port)) {
      return 2;
    }
    {
      fleet::Router router;
      fleet::ShardConfig shard{kShard, 1, node_config(), 0};
      if (!router.add_shard(shard, *sys.wifi)) return 3;
      cluster::NodeConfig nc;
      nc.name = "node-b";
      nc.coordinator_port = coordinator_port;
      cluster::NodeAgent agent(router, nc);
      if (!agent.start()) return 4;
      const char ok = 1;
      if (write(out_fd, &ok, 1) != 1) return 5;
      char buf = 0;
      while (read(in_fd, &buf, 1) > 0) {
      }
      agent.stop();
      router.shutdown();
    }
    return 0;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

}  // namespace

void run_spill_overflow(const Options& opts, RunResult& out) {
  System sys;
  std::unique_ptr<PeerNode> peer;
  std::unique_ptr<cluster::Coordinator> coordinator;
  std::unique_ptr<fleet::Router> router;
  std::unique_ptr<cluster::NodeAgent> agent;
  // Node A's bulk lane holds one max_batch; everything beyond spills.
  engine::EngineConfig cfg_a = node_config();
  cfg_a.bulk_cap = cfg_a.max_batch;
  measure_setup(opts, out, [&] {
    agent.reset();
    router.reset();
    coordinator.reset();
    peer.reset();
    const std::uint64_t t0 = now_ns();
    sys = train_system();
    peer = std::make_unique<PeerNode>();
    if (!peer->fork_from(sys)) {
      out.fail("fork of node B failed");
      return 0.0;
    }
    coordinator = std::make_unique<cluster::Coordinator>(cluster::CoordinatorConfig{});
    if (!coordinator->start()) out.fail("coordinator failed to start");
    if (!peer->start(coordinator->port())) {
      out.fail("node B failed to start");
      return 0.0;
    }
    router = std::make_unique<fleet::Router>();
    fleet::ShardConfig shard{kShard, 1, cfg_a, 0};
    if (!router->add_shard(shard, *sys.wifi)) out.fail("add_shard failed");
    cluster::NodeConfig nc;
    nc.name = "node-a";
    nc.coordinator_port = coordinator->port();
    agent = std::make_unique<cluster::NodeAgent>(*router, nc);
    if (!agent->start()) out.fail("node A failed to start");
    // Serving starts once node A sees node B alive with the same digest.
    const std::uint64_t give_up = now_ns() + 20'000'000'000ull;
    bool joined = false;
    while (!joined && now_ns() < give_up) {
      for (const auto& p : agent->peers()) {
        if (p.name == "node-b" && p.alive && !p.shards.empty()) joined = true;
      }
      if (!joined) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!joined) out.fail("node B never joined the membership");
    agent->submit(kShard, sys.wifi_world->split.test.samples.at(0).rssi).result.get();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  });
  if (!out.correct) return;
  const ScanPool pool = make_scan_pool(sys, 16384, opts.seed);

  const std::size_t clients = std::max<std::size_t>(1, host_cpus() / 2);
  const std::size_t window = 4 * cfg_a.max_batch;
  Ledger ledger(64);
  engine::EngineStats before;
  cluster::NodeCounters counters0;
  std::atomic<std::uint64_t> completed{0};
  // Both nodes' CPU is charged: spilled fixes are computed by node B.
  const int peer_pid = peer->pid();
  WindowMonitor monitor(completed, [peer_pid] { return process_cpu_s() + child_cpu_s(peer_pid); });
  const std::vector<ClientTally> tallies = closed_loop(
      *agent, pool, clients, window, opts.seconds, opts.trace ? &ledger : nullptr, completed,
      [&](std::uint64_t end) {
        before = router->stats().total;
        counters0 = agent->counters();
        monitor.start(end);
      });
  monitor.join();
  const engine::EngineStats delta = engine_delta(before, router->stats().total);
  const cluster::NodeCounters counters1 = agent->counters();
  agent->stop();
  router->shutdown();
  coordinator->stop();
  peer->stop();
  const ClientTally m = merge(tallies);
  const double forwarded =
      static_cast<double>(counters1.spill_forwarded - counters0.spill_forwarded);
  out.note("spill_share", m.attempted == 0 ? 0.0 : forwarded / static_cast<double>(m.attempted),
           "ratio");
  report_closed(opts, out, sys, pool, m, monitor, delta, ledger);
  if (!opts.trace) return;
  out.set("cluster.spill_forwarded", forwarded, "count");
  out.set("cluster.spill_completed",
          static_cast<double>(counters1.spill_completed - counters0.spill_completed), "count");
  out.set("cluster.spill_failed",
          static_cast<double>(counters1.spill_failed - counters0.spill_failed), "count");
  out.set("cluster.spill_share",
          m.attempted == 0 ? 0.0 : forwarded / static_cast<double>(m.attempted), "ratio");
}

}  // namespace perfbench
