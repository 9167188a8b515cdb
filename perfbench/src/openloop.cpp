// Open-loop workloads: wifi_light (in-process Router) and wire_mixed (a
// loopback gateway::Listener driven through pipelined GatewayClient
// connections).
//
// The arrival schedule is a Poisson process pre-computed from the workload
// seed before the clock starts. Each request is timed from its *due* time,
// so a stall that delays later sends is charged to them, and the generator's
// own lateness (send start - due) is reported. Completion is stamped when
// the fix becomes available: in-process, the engine's kComputed trace mark
// (stamped before the promise is fulfilled); over the wire, the moment the
// client's reader thread has the response frame.
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "gateway/client.h"
#include "gateway/gateway.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

using noble::serve::Fix;
namespace engine = noble::engine;
namespace fleet = noble::fleet;
namespace obs = noble::obs;
namespace gw = noble::gateway;

/// Interactive p99 limit the sustained-rate ladder holds to. Above the
/// 2 ms an unloaded server meets on bare metal: on a virtualized 4-vCPU host
/// the p99 of an idle-rate rung already reads 1-4 ms from vCPU stalls alone,
/// while a rung past the knee reads tens of milliseconds.
constexpr double kLatencyLimitUs = 5000.0;
/// Share of failed requests a ladder rung may show and still pass.
constexpr double kFailLimit = 0.01;

/// Exponential inter-arrival times at a piecewise-constant rate.
std::vector<std::uint64_t> poisson_schedule(noble::Rng& rng,
                                            const std::vector<double>& rates,
                                            const std::vector<double>& durations_s,
                                            std::vector<std::uint32_t>* rung_of) {
  std::vector<std::uint64_t> due;
  double t = 0.0, rung_end = 0.0;
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const double rung_start = rung_end;
    rung_end += durations_s[r];
    t = std::max(t, rung_start);
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / rates[r];
      if (t >= rung_end) break;
      due.push_back(static_cast<std::uint64_t>(t * 1e9));
      if (rung_of != nullptr) rung_of->push_back(static_cast<std::uint32_t>(r));
    }
    t = rung_end;
  }
  return due;
}

/// Fails the run when the generator, not the server, set the reported
/// latency (the median): when the generator's median lateness exceeds half
/// the measured median latency. A generator that cannot keep up is late for
/// most arrivals, which shows at its median. The tail is reported but not
/// gated: on a virtualized host one spinning thread's vCPU is descheduled
/// for over a millisecond several times a second even on an idle machine,
/// and in contended stretches such stalls delay a tenth of the arrivals, so
/// a tail percentile of lateness measures the host, not the generator.
void check_generator(RunResult& out, const Latencies& lag, double p50_us) {
  const double lag_p50 = lag.pct(50);
  out.note("bench.gen_lag_us.p50", lag_p50, "us");
  out.note("bench.gen_lag_us.p90", lag.pct(90), "us");
  out.note("bench.gen_lag_us.p99", lag.pct(99), "us");
  out.note("bench.gen_lag_us.max", lag.max(), "us");
  if (lag_p50 > 0.5 * p50_us) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "generator lateness p50 %.1f us exceeds half the measured p50 %.1f us",
                  lag_p50, p50_us);
    out.fail(msg);
  }
}

void emit_gen_lag(RunResult& out, const Latencies& lag) {
  out.set("bench.gen_lag_us.p99", lag.pct(99), "us");
  out.set("bench.gen_lag_us.max", lag.max(), "us");
}

}  // namespace

// --- wifi_light -----------------------------------------------------------------

void run_wifi_light(const Options& opts, RunResult& out) {
  constexpr double kRate = 1000.0;
  // The spinning generator gets a CPU of its own and the server (workers,
  // created during set-up, and the settler) the others. Left to the
  // scheduler, five seeds on a 4-vCPU virtual machine spread by 0.13 (p50)
  // and 0.22 (CPU per fix) IQR/median; pinned, ten seeds spread by 0.06 and
  // 0.05.
  pin_thread(CpuShare::kServer);
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

  noble::Rng rng(opts.seed);
  const std::vector<std::uint64_t> due =
      poisson_schedule(rng, {kRate}, {kWarmupS + opts.seconds}, nullptr);
  // Every arrival gets its own held-out scan: no repeats.
  const ScanPool pool = make_scan_pool(sys, due.size(), opts.seed);
  const std::uint64_t warm_ns = static_cast<std::uint64_t>(kWarmupS * 1e9);
  const std::uint64_t half_ns =
      warm_ns + static_cast<std::uint64_t>(opts.seconds * 0.5 * 1e9);

  struct InFlight {
    std::size_t i;
    std::uint64_t send_ns, return_ns;
    engine::Submission sub;
    std::shared_ptr<obs::Trace> trace;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;

  Latencies lat, lat_untraced, lat_traced, lag, submit_us;
  Accuracy acc;
  Ledger ledger(16);
  std::uint64_t failed = 0, mismatches = 0;
  const std::uint64_t start_ns = now_ns() + 50'000'000;
  WindowedLatencies wlat(start_ns + warm_ns, opts.seconds);
  std::atomic<std::uint64_t> completed{0}, spin_ns{0};
  // Charged to the server: process CPU minus the generator's spin and the
  // settler thread (both are the load generator's, not the system's).
  std::atomic<clockid_t> settler_clock{CLOCK_THREAD_CPUTIME_ID};
  std::atomic<bool> settler_clock_set{false};
  WindowMonitor monitor(completed, [&] {
    const double settler = settler_clock_set.load() ? thread_cpu_s(settler_clock.load()) : 0.0;
    return process_cpu_s() - static_cast<double>(spin_ns.load()) * 1e-9 - settler;
  });

  // Settles in submission order; the availability stamp comes from the
  // trace, so settle order does not bias the latency.
  std::thread settler([&] {
    clockid_t clock{};
    if (pthread_getcpuclockid(pthread_self(), &clock) == 0) {
      settler_clock.store(clock);
      settler_clock_set.store(true);
    }
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      const std::uint64_t due_abs = start_ns + due[f.i];
      const bool measured = due[f.i] >= warm_ns;
      if (!f.sub.accepted()) {
        ++failed;
        continue;
      }
      Fix fix;
      try {
        fix = f.sub.result.get();
      } catch (const std::exception&) {
        ++failed;
        continue;
      }
      if (!(fix == pool.oracle[f.i])) ++mismatches;
      const std::uint64_t avail = f.trace != nullptr
                                      ? f.trace->mark_ns(obs::Mark::kComputed)
                                      : now_ns();
      if (!measured) continue;
      const double us = static_cast<double>(avail - due_abs) / 1000.0;
      lat.add(us);
      wlat.add(due_abs, us);
      completed.fetch_add(1, std::memory_order_relaxed);
      acc.add(fix, pool.truth[f.i]);
      lag.add(static_cast<double>(f.send_ns - due_abs) / 1000.0);
      if (opts.trace && due[f.i] >= half_ns) {
        lat_traced.add(us);
        submit_us.add(static_cast<double>(f.return_ns - f.send_ns) / 1000.0);
        const obs::Trace& t = *f.trace;
        const std::uint64_t adm = t.mark_ns(obs::Mark::kAdmitted);
        const std::uint64_t deq = t.mark_ns(obs::Mark::kDequeued);
        const std::uint64_t asm_ns = t.mark_ns(obs::Mark::kAssembled);
        ledger.add(f.i, {{Layer::kRequest, -1, due_abs, avail},
                         {Layer::kGenLag, 0, due_abs, f.send_ns},
                         {Layer::kFleetSubmit, 0, f.send_ns, adm},
                         {Layer::kQueueWait, 0, adm, deq},
                         {Layer::kAssembly, 0, deq, asm_ns},
                         {Layer::kCompute, 0, asm_ns, avail}});
      } else {
        lat_untraced.add(us);
      }
    }
  });

  engine::EngineStats before;
  bool window_open = false;
  pin_thread(CpuShare::kGenerator);
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (!window_open && due[i] >= warm_ns) {
      before = router->stats().total;
      monitor.start(start_ns + warm_ns + static_cast<std::uint64_t>(opts.seconds * 1e9));
      window_open = true;
    }
    spin_ns.fetch_add(wait_until_ns(start_ns + due[i]), std::memory_order_relaxed);
    InFlight f{i, now_ns(), 0, {}, obs::Tracer::global().start(i + 1)};
    engine::SubmitOptions so;
    so.trace = f.trace;
    f.sub = router->submit(kShard, pool.scans[i], so);
    f.return_ns = now_ns();
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(f));
    }
    cv.notify_one();
  }
  pin_thread(CpuShare::kAll);
  // The monitor reads the settler's CPU clock, so it finishes first.
  monitor.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  settler.join();
  const engine::EngineStats delta = engine_delta(before, router->stats().total);
  router->shutdown();

  out.attempted = due.size();
  out.failed = failed;
  out.mismatches = mismatches;
  if (mismatches != 0) out.fail("served fixes differ from direct inference");
  const double p50 = lat.pct(50);
  check_generator(out, lag, p50);
  out.note("interactive_p50_us", p50, "us");
  out.note("interactive_p90_us", lat.pct(90), "us");
  out.note("interactive_p95_us", lat.pct(95), "us");
  out.note("interactive_p99_us", lat.pct(99), "us");
  out.note("interactive_samples", static_cast<double>(lat.count()), "count");
  out.note("failed_share", static_cast<double>(failed) / static_cast<double>(due.size()),
           "ratio");
  note_windows(out, monitor);
  if (!opts.trace) {
    out.set("p50_us", wlat.median_of_windows(50, &monitor.kept()), "us");
    out.note("p90_us", wlat.median_of_windows(90, &monitor.kept()), "us");
    out.set("throughput_qps", monitor.median_rate(), "1/s");
    out.set("cpu_us_per_fix", monitor.median_cpu_us_per_fix(), "us");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    acc.emit(out);
    return;
  }
  emit_layer_defaults(out);
  out.set("core.wifi_fit_s", sys.wifi_fit_s, "s");
  out.set("core.imu_fit_s", sys.imu_fit_s, "s");
  out.set("serve.plan_build_ms", sys.plan_build_ms, "ms");
  emit_engine_layer(out, delta);
  out.set("fleet.submit_us.p50", submit_us.pct(50), "us");
  emit_gen_lag(out, lag);
  const double p50_off = lat_untraced.pct(50);
  out.set("bench.trace_overhead_pct",
          p50_off > 0 ? (lat_traced.pct(50) - p50_off) / p50_off * 100.0 : 0.0, "%");
  emit_ledger(out, ledger, lat_traced.mean(), opts);
  if (!opts.side_phase) measure_layers(out, sys, pool, make_tracks(sys, 8, opts.seed));
}

// --- wire_mixed -----------------------------------------------------------------

namespace {

enum class Kind : std::uint8_t { kInteractive, kBulk, kSession };

struct Arrival {
  std::uint64_t due;
  std::uint32_t rung;
  Kind kind;
  std::uint32_t conn;
  std::uint32_t item;     ///< pool index (scans) or session index
  std::uint32_t ordinal;  ///< session update ordinal
  std::uint64_t budget_us;
};

struct Sent {
  std::size_t arrival;
  std::uint64_t id;
  std::uint64_t start_ns, end_ns;
};

struct Received {
  std::uint64_t id;
  gw::WireResult result;
  std::uint64_t at_ns;
};

}  // namespace

void run_wire_mixed(const Options& opts, RunResult& out) {
  // A short fixed ladder below the loopback knee of a 4-CPU host; each rung
  // gets an equal share of the measured window.
  const std::vector<double> rates = {1000.0, 2000.0, 4000.0, 6000.0};
  constexpr std::size_t kSessions = 64;
  const std::size_t conns = std::min<std::size_t>(2, host_cpus() - 1);
  static const std::uint64_t kBudgetsUs[] = {10'000, 25'000, 50'000, 100'000};

  System sys;
  std::unique_ptr<fleet::Router> router;
  std::unique_ptr<gw::Listener> listener;
  std::vector<gw::GatewayClient> clients;
  std::optional<gw::GatewayClient> scraper;
  measure_setup(opts, out, [&] {
    clients.clear();
    scraper.reset();
    listener.reset();
    router.reset();
    const std::uint64_t t0 = now_ns();
    sys = train_system();
    router = std::make_unique<fleet::Router>();
    fleet::ShardConfig shard{kShard, 1, engine_config(), 0};
    if (!router->add_shard(shard, *sys.wifi, *sys.imu)) out.fail("add_shard failed");
    listener = std::make_unique<gw::Listener>(*router, gw::GatewayConfig{});
    if (!listener->start()) out.fail("gateway failed to start");
    for (std::size_t c = 0; c < conns; ++c) {
      std::optional<gw::GatewayClient> cl =
          gw::GatewayClient::connect("127.0.0.1", listener->port());
      if (!cl) {
        out.fail("gateway connect failed");
        return 0.0;
      }
      clients.push_back(std::move(*cl));
    }
    scraper = gw::GatewayClient::connect("127.0.0.1", listener->port());
    if (!scraper) out.fail("gateway connect failed");
    if (!clients[0].locate(kShard, sys.wifi_world->split.test.samples.at(0).rssi).ok()) {
      out.fail("first fix over the wire failed");
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  });
  if (!out.correct) return;

  // --- schedule (from the seed) ---
  noble::Rng rng(opts.seed);
  std::vector<double> rungs_rate = {rates[0]};
  std::vector<double> rungs_s = {kWarmupS};
  for (double r : rates) {
    rungs_rate.push_back(r);
    rungs_s.push_back(opts.seconds / static_cast<double>(rates.size()));
  }
  std::vector<std::uint32_t> rung_of;
  const std::vector<std::uint64_t> due = poisson_schedule(rng, rungs_rate, rungs_s, &rung_of);
  const std::vector<Track> tracks = make_tracks(sys, kSessions, opts.seed);
  if (tracks.size() != kSessions) {
    out.fail("not enough held-out IMU paths for the session pool");
    return;
  }
  const ScanPool pool = make_scan_pool(sys, 16384, opts.seed);
  std::vector<Arrival> arrivals(due.size());
  std::vector<std::uint32_t> next_ordinal(kSessions, 0);
  std::vector<std::vector<std::size_t>> session_arrivals(kSessions);
  std::size_t scan_cursor = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    Arrival& a = arrivals[i];
    a.due = due[i];
    a.rung = rung_of[i];
    const double u = rng.uniform();
    a.kind = u < 0.5 ? Kind::kInteractive : (u < 0.75 ? Kind::kBulk : Kind::kSession);
    a.budget_us = 0;
    a.ordinal = 0;
    if (a.kind == Kind::kSession) {
      a.item = static_cast<std::uint32_t>(rng.next_u64() % kSessions);
      a.conn = static_cast<std::uint32_t>(a.item % conns);
      a.ordinal = next_ordinal[a.item]++;
      session_arrivals[a.item].push_back(i);
    } else {
      a.item = static_cast<std::uint32_t>(scan_cursor++ % pool.size());
      a.conn = static_cast<std::uint32_t>(i % conns);
      if (a.kind == Kind::kBulk) a.budget_us = kBudgetsUs[rng.next_u64() % 4];
    }
  }
  // Session oracle: replay each track for its scheduled update ordinals.
  std::vector<std::vector<Fix>> session_oracle(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::vector<std::size_t> ords;
    for (std::size_t i : session_arrivals[s]) ords.push_back(arrivals[i].ordinal);
    session_oracle[s] = replay_track(*sys.imu, tracks[s], ords);
  }
  // Open the sessions (synchronous calls, before the readers start).
  std::vector<std::uint64_t> session_wire_id(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::optional<std::uint64_t> id = clients[s % conns].open_session(kShard, tracks[s].start);
    if (!id) {
      out.fail("open_session over the wire failed");
      return;
    }
    session_wire_id[s] = *id;
  }

  auto scrape = [&]() -> obs::MetricsSnapshot {
    std::optional<std::string> bytes = scraper->stats_snapshot_bytes();
    std::optional<obs::MetricsSnapshot> snap =
        bytes ? obs::decode_snapshot(*bytes) : std::nullopt;
    if (!snap) {
      out.fail("binary scrape failed");
      return {};
    }
    return *snap;
  };
  auto counter = [](const obs::MetricsSnapshot& s, const char* name) -> std::uint64_t {
    const obs::MetricSample* m = s.find(name);
    return m == nullptr ? 0 : m->counter_value;
  };
  auto stage_hist = [](const obs::MetricsSnapshot& s, obs::Stage stage) {
    const obs::MetricSample* m =
        s.find("noble_stage_latency_us", {{"stage", obs::stage_name(stage)}});
    return m != nullptr && m->hist ? *m->hist : noble::Histogram::latency_us();
  };

  // --- run ---
  std::vector<std::vector<Sent>> sent(conns);
  std::vector<std::vector<Received>> received(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    sent[c].reserve(due.size() / conns + 16);
    received[c].reserve(due.size() / conns + 16);
  }
  std::vector<std::atomic<std::uint64_t>> expected(conns);
  for (auto& e : expected) e.store(~0ull);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> readers_done{0};
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns; ++c) {
    readers.emplace_back([&, c] {
      std::uint64_t got = 0;
      while (got < expected[c].load() && !stop.load()) {
        std::optional<std::pair<std::uint64_t, gw::WireResult>> r = clients[c].recv_fix(20);
        if (!r) {
          if (!clients[c].valid()) break;
          continue;
        }
        received[c].push_back({r->first, r->second, now_ns()});
        ++got;
      }
      readers_done.fetch_add(1);
      // Stay alive until told to stop: the CPU accounting reads this
      // thread's clock after the drain.
      while (!stop.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }

  // Charged to the server: process CPU minus the client side (this
  // generator thread and the reader threads).
  std::vector<clockid_t> client_clocks(1);
  pthread_getcpuclockid(pthread_self(), &client_clocks[0]);
  for (std::thread& t : readers) {
    clockid_t clock{};
    if (pthread_getcpuclockid(t.native_handle(), &clock) == 0) client_clocks.push_back(clock);
  }
  auto server_cpu_s = [&] {
    double client = 0.0;
    for (clockid_t c : client_clocks) client += thread_cpu_s(c);
    return process_cpu_s() - client;
  };
  const obs::MetricsSnapshot snap0 = scrape();
  const engine::EngineStats stats0 = router->stats().total;
  const std::uint64_t warm_ns = static_cast<std::uint64_t>(kWarmupS * 1e9);
  const std::uint64_t half_ns =
      warm_ns + static_cast<std::uint64_t>(opts.seconds * 0.5 * 1e9);
  double cpu_window0 = server_cpu_s();
  bool window_open = false;
  engine::EngineStats before = stats0;
  const std::uint64_t start_ns = now_ns() + 1'000'000;
  std::uint64_t send_failures = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (!window_open && a.due >= warm_ns) {
      before = router->stats().total;
      cpu_window0 = server_cpu_s();
      window_open = true;
    }
    wait_until_ns(start_ns + a.due);
    const std::uint64_t t_send = now_ns();
    gw::GatewayClient& cl = clients[a.conn];
    std::uint64_t id = 0;
    switch (a.kind) {
      case Kind::kInteractive:
        id = cl.send_locate(kShard, pool.scans[a.item], engine::RequestClass::kInteractive, 0);
        break;
      case Kind::kBulk:
        id = cl.send_locate(kShard, pool.scans[a.item], engine::RequestClass::kBulk,
                            a.budget_us);
        break;
      case Kind::kSession:
        id = cl.send_track(session_wire_id[a.item],
                           tracks[a.item].segments[a.ordinal % tracks[a.item].segments.size()],
                           engine::RequestClass::kInteractive, 0);
        break;
    }
    if (id == 0) {
      ++send_failures;
      continue;
    }
    sent[a.conn].push_back({i, id, t_send, now_ns()});
  }
  for (std::size_t c = 0; c < conns; ++c) expected[c].store(sent[c].size());
  // Drain: every sent request is answered, or the reader gives up at the
  // deadline (unanswered requests count as wire errors).
  const std::uint64_t drain_deadline = now_ns() + 5'000'000'000ull;
  while (readers_done.load() < conns && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Read before the readers exit: their CPU clocks die with them.
  const double cpu_s = server_cpu_s() - cpu_window0;
  stop.store(true);
  for (std::thread& t : readers) t.join();
  const engine::EngineStats delta = engine_delta(before, router->stats().total);
  const obs::MetricsSnapshot snap1 = scrape();
  listener->stop();
  router->shutdown();

  // --- match responses to arrivals ---
  struct Outcome {
    bool sent = false, answered = false;
    gw::WireResult res;
    std::uint64_t send_start = 0, send_end = 0, recv = 0;
  };
  std::vector<Outcome> oc(arrivals.size());
  std::uint64_t unknown_ids = 0;
  for (std::size_t c = 0; c < conns; ++c) {
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    for (const Sent& s : sent[c]) {
      by_id[s.id] = s.arrival;
      oc[s.arrival].sent = true;
      oc[s.arrival].send_start = s.start_ns;
      oc[s.arrival].send_end = s.end_ns;
    }
    for (const Received& r : received[c]) {
      auto it = by_id.find(r.id);
      if (it == by_id.end()) {
        ++unknown_ids;
        continue;
      }
      oc[it->second].answered = true;
      oc[it->second].res = r.result;
      oc[it->second].recv = r.at_ns;
    }
  }
  if (unknown_ids != 0) out.fail("responses with unknown request ids");

  // --- correctness ---
  std::uint64_t mismatches = 0, failed = 0, wire_errors = 0;
  auto ok = [&](std::size_t i) { return oc[i].answered && oc[i].res.ok(); };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (!ok(i)) {
      ++failed;
      if (!oc[i].answered) ++wire_errors;
      continue;
    }
    if (arrivals[i].kind != Kind::kSession && !(oc[i].res.fix == pool.oracle[arrivals[i].item])) {
      ++mismatches;
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::vector<std::size_t>& idx = session_arrivals[s];
    std::vector<std::size_t> applied, ords;
    for (std::size_t i : idx) {
      if (ok(i)) {
        applied.push_back(i);
        ords.push_back(arrivals[i].ordinal);
      }
    }
    // A failed update is not applied to its track, so replay exactly the
    // updates the server applied.
    const std::vector<Fix> expect = applied.size() == idx.size()
                                        ? session_oracle[s]
                                        : replay_track(*sys.imu, tracks[s], ords);
    for (std::size_t k = 0; k < applied.size(); ++k) {
      if (!(oc[applied[k]].res.fix == expect[k])) ++mismatches;
    }
  }
  out.attempted = arrivals.size();
  out.failed = failed;
  out.mismatches = mismatches;
  if (mismatches != 0) out.fail("served fixes differ from direct inference");
  const std::uint64_t malformed = counter(snap1, "noble_gateway_malformed_frames") -
                                  counter(snap0, "noble_gateway_malformed_frames");
  if (malformed != 0) out.fail("gateway reported malformed frames");

  // --- per-rung latency, goodput and the sustained rate ---
  const std::size_t num_rungs = rungs_rate.size();
  struct Rung {
    Latencies inter, scan, session, lag;
    std::uint64_t attempted = 0, failed = 0, completed = 0, bulk_good = 0;
    std::vector<std::pair<std::uint64_t, double>> inter_by_due;
  };
  std::vector<Rung> rung(num_rungs);
  Latencies all_inter, all_scan, all_session, lag, send_us, lat_traced, lat_untraced;
  WindowedLatencies wlat(start_ns + warm_ns, opts.seconds);
  Accuracy acc;
  Ledger ledger(16);
  std::uint64_t bulk_good_total = 0, completed_total = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    if (a.rung == 0) continue;  // warm-up
    Rung& R = rung[a.rung];
    ++R.attempted;
    const std::uint64_t due_abs = start_ns + a.due;
    if (oc[i].sent) {
      lag.add(static_cast<double>(oc[i].send_start - due_abs) / 1000.0);
      send_us.add(static_cast<double>(oc[i].send_end - oc[i].send_start) / 1000.0);
    }
    if (!ok(i)) {
      ++R.failed;
      continue;
    }
    ++R.completed;
    ++completed_total;
    const double us = static_cast<double>(oc[i].recv - due_abs) / 1000.0;
    if (a.kind == Kind::kBulk) {
      if (us <= static_cast<double>(a.budget_us)) {
        ++R.bulk_good;
        ++bulk_good_total;
      }
    } else {
      R.inter.add(us);
      all_inter.add(us);
      wlat.add(due_abs, us);
      R.inter_by_due.emplace_back(a.due, us);
      (a.kind == Kind::kSession ? R.session : R.scan).add(us);
      (a.kind == Kind::kSession ? all_session : all_scan).add(us);
    }
    if (a.kind != Kind::kSession) acc.add(oc[i].res.fix, pool.truth[a.item]);
    if (opts.trace && a.due >= half_ns) {
      lat_traced.add(us);
      // The reader may hold the response before send_frame has returned on
      // the generator thread; the send span ends no later than the answer.
      const std::uint64_t sent_end = std::min(oc[i].send_end, oc[i].recv);
      ledger.add(i, {{Layer::kRequest, -1, due_abs, oc[i].recv},
                     {Layer::kGenLag, 0, due_abs, oc[i].send_start},
                     {Layer::kNetSend, 0, oc[i].send_start, sent_end},
                     {Layer::kWireWait, 0, sent_end, oc[i].recv}});
    } else {
      lat_untraced.add(us);
    }
  }
  double sustained = 0.0, sustained_achieved = 0.0;
  for (std::size_t r = 1; r < num_rungs; ++r) {
    Rung& R = rung[r];
    const double fail_share =
        R.attempted == 0 ? 1.0 : static_cast<double>(R.failed) / static_cast<double>(R.attempted);
    // Backlog growth: the rung's last quarter must not be much slower than
    // its first quarter.
    std::sort(R.inter_by_due.begin(), R.inter_by_due.end());
    Latencies first, last;
    const std::size_t q = R.inter_by_due.size() / 4;
    for (std::size_t k = 0; k < q; ++k) {
      first.add(R.inter_by_due[k].second);
      last.add(R.inter_by_due[R.inter_by_due.size() - 1 - k].second);
    }
    const bool steady = q == 0 || last.pct(50) <= 2.0 * first.pct(50) + 200.0;
    const bool pass = R.inter.count() > 0 && R.inter.pct(99) <= kLatencyLimitUs &&
                      fail_share <= kFailLimit && steady;
    const double achieved = static_cast<double>(R.completed) / rungs_s[r];
    // The highest passing rung: one rung spoiled by a host stall does not
    // zero the rungs above it.
    if (pass) {
      sustained = rungs_rate[r];
      sustained_achieved = achieved;
    }
    const std::string pre = "rung" + std::to_string(r) + ".";
    out.note(pre + "offered_qps", rungs_rate[r], "1/s");
    out.note(pre + "achieved_qps", achieved, "1/s");
    out.note(pre + "interactive_p50_us", R.scan.pct(50), "us");
    out.note(pre + "interactive_p99_us", R.scan.pct(99), "us");
    out.note(pre + "session_p50_us", R.session.pct(50), "us");
    out.note(pre + "session_p99_us", R.session.pct(99), "us");
    out.note(pre + "bulk_goodput_qps", static_cast<double>(R.bulk_good) / rungs_s[r], "1/s");
    out.note(pre + "failed_share", fail_share, "ratio");
    out.note(pre + "pass", pass ? 1.0 : 0.0, "bool");
  }
  const double p50 = all_inter.pct(50);
  check_generator(out, lag, p50);
  out.note("interactive_p50_us", all_scan.pct(50), "us");
  out.note("interactive_p99_us", all_scan.pct(99), "us");
  out.note("interactive_samples", static_cast<double>(all_scan.count()), "count");
  out.note("session_p50_us", all_session.pct(50), "us");
  out.note("session_p99_us", all_session.pct(99), "us");
  out.note("session_samples", static_cast<double>(all_session.count()), "count");
  out.note("bulk_goodput_qps", static_cast<double>(bulk_good_total) / opts.seconds, "1/s");
  out.note("sustained_qps", sustained, "1/s");
  out.note("sustained_achieved_qps", sustained_achieved, "1/s");
  out.note("failed_share", static_cast<double>(failed) / static_cast<double>(arrivals.size()),
           "ratio");
  out.note("wire_errors", static_cast<double>(wire_errors + send_failures), "count");
  if (!opts.trace) {
    out.set("p50_us", wlat.median_of_windows(50), "us");
    out.note("p90_us", wlat.median_of_windows(90), "us");
    out.set("throughput_qps", static_cast<double>(completed_total) / opts.seconds, "1/s");
    out.set("cpu_us_per_fix",
            cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, completed_total)), "us");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    acc.emit(out);
    return;
  }
  emit_layer_defaults(out);
  out.set("core.wifi_fit_s", sys.wifi_fit_s, "s");
  out.set("core.imu_fit_s", sys.imu_fit_s, "s");
  out.set("serve.plan_build_ms", sys.plan_build_ms, "ms");
  emit_engine_layer(out, delta);
  out.set("engine.bulk_useful_ratio",
          delta.bulk.accepted == 0 ? 0.0
                                   : static_cast<double>(bulk_good_total) /
                                         static_cast<double>(delta.bulk.accepted),
          "ratio");
  out.set("net.send_us.p50", send_us.pct(50), "us");
  noble::Histogram decode = stage_hist(snap1, obs::Stage::kDecode);
  decode.subtract(stage_hist(snap0, obs::Stage::kDecode));
  noble::Histogram respond = stage_hist(snap1, obs::Stage::kRespond);
  respond.subtract(stage_hist(snap0, obs::Stage::kRespond));
  out.set("gateway.decode_us.p50", decode.percentile(50), "us");
  out.set("gateway.respond_us.p50", respond.percentile(50), "us");
  out.set("gateway.window_full",
          static_cast<double>(counter(snap1, "noble_gateway_backpressure_rejects") -
                              counter(snap0, "noble_gateway_backpressure_rejects")),
          "count");
  out.set("gateway.malformed", static_cast<double>(malformed), "count");
  emit_gen_lag(out, lag);
  const double p50_off = lat_untraced.pct(50);
  out.set("bench.trace_overhead_pct",
          p50_off > 0 ? (lat_traced.pct(50) - p50_off) / p50_off * 100.0 : 0.0, "%");
  emit_ledger(out, ledger, lat_traced.mean(), opts);
  if (!opts.side_phase) measure_layers(out, sys, pool, tracks);
}

}  // namespace perfbench
