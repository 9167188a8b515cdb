// System under test, query generation, oracles and shared measurement
// helpers.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "core/noble_imu.h"
#include "core/noble_wifi.h"
#include "harness.h"
#include "ledger.h"
#include "obs/trace.h"
#include "sim/wifi_dataset.h"

namespace perfbench {

using noble::serve::Fix;

std::uint64_t now_ns() { return noble::obs::Trace::now_ns(); }

std::uint64_t wait_until_ns(std::uint64_t deadline_ns) {
  // A sleeping vCPU can wake milliseconds late on a virtualized host (an
  // idle sleep loop measured up to ~10 ms), while a spinning one stays on
  // time, so sleep only through gaps longer than kSpinNs and spin the rest.
  constexpr std::uint64_t kSpinNs = 2'000'000;
  const std::uint64_t now = now_ns();
  if (deadline_ns > now + kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  const double cpu0 = thread_cpu_s(CLOCK_THREAD_CPUTIME_ID);
  while (now_ns() < deadline_ns) {
  }
  return static_cast<std::uint64_t>((thread_cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0) * 1e9);
}

double thread_cpu_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 2 ? 2 : static_cast<std::size_t>(n);
}

void pin_thread(CpuShare share) {
  // The mask the process started with, read before any thread narrows it.
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t k = 0; k < allowed.size(); ++k) {
    const bool first = k == 0;
    if (share == CpuShare::kAll || (share == CpuShare::kGenerator) == first) {
      CPU_SET(allowed[k], &set);
    }
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double child_cpu_s(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double stolen_cpu_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : field) {
    if (!(in >> f)) return 0.0;
  }
  // user nice system idle iowait irq softirq steal, in clock ticks.
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- result sheet -------------------------------------------------------------

void RunResult::set(const std::string& name, double value, const std::string& unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  metrics.emplace_back(name, Metric{value, unit});
}

void RunResult::note(const std::string& name, double value, const std::string& unit) {
  report.emplace_back(name, Metric{value, unit});
}

void RunResult::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

const Metric* RunResult::find(const std::string& name) const {
  for (const auto& [n, m] : metrics) {
    if (n == name) return &m;
  }
  return nullptr;
}

void Latencies::add(double v) {
  ++n_;
  sum_ += v;
  max_ = std::max(max_, v);
  if (us_.size() < capacity_) {
    us_.push_back(v);
    return;
  }
  state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t j = (state_ >> 11) % n_;
  if (j < capacity_) us_[j] = v;
}

void Latencies::merge(const Latencies& other) {
  us_.insert(us_.end(), other.us_.begin(), other.us_.end());
  n_ += other.n_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Latencies::pct(double q) const {
  if (us_.empty()) return 0.0;
  return noble::percentile(us_, q);
}

// --- windowed latency ------------------------------------------------------------

WindowedLatencies::WindowedLatencies(std::uint64_t start_ns, double seconds)
    : start_ns_(start_ns),
      period_ns_(static_cast<std::uint64_t>(kWindowS * 1e9)),
      windows_(static_cast<std::size_t>(std::ceil(seconds / kWindowS)), Latencies(8192)) {}

void WindowedLatencies::add(std::uint64_t at_ns, double us) {
  if (at_ns < start_ns_) return;
  const std::uint64_t w = (at_ns - start_ns_) / period_ns_;
  if (w < windows_.size()) windows_[w].add(us);
}

void WindowedLatencies::merge(const WindowedLatencies& other) {
  for (std::size_t w = 0; w < windows_.size() && w < other.windows_.size(); ++w) {
    windows_[w].merge(other.windows_[w]);
  }
}

double WindowedLatencies::median_of_windows(double q, const std::vector<bool>* kept) const {
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    const bool in = kept == nullptr || (w < kept->size() && (*kept)[w]);
    if (in && windows_[w].count() >= 20) per_window.push_back(windows_[w].pct(q));
  }
  if (per_window.empty() && kept != nullptr) return median_of_windows(q);
  return per_window.empty() ? 0.0 : noble::median(per_window);
}

// --- windowed rates -------------------------------------------------------------

WindowMonitor::WindowMonitor(const std::atomic<std::uint64_t>& completed,
                             std::function<double()> cpu_s)
    : completed_(completed),
      cpu_s_(std::move(cpu_s)),
      period_ns_(static_cast<std::uint64_t>(kWindowS * 1e9)) {}

WindowMonitor::~WindowMonitor() { join(); }

void WindowMonitor::start(std::uint64_t end_ns) {
  thread_ = std::thread([this, end_ns] {
    const double cpus = static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    const std::uint64_t start = now_ns();
    std::uint64_t t = start;
    std::uint64_t n = completed_.load();
    double cpu = cpu_s_();
    double stolen = stolen_cpu_s();
    // On a fixed grid, so window k lines up with the k-th latency window.
    for (std::uint64_t next = start + period_ns_; next <= end_ns; next += period_ns_) {
      const std::uint64_t now = now_ns();
      if (next > now) std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      const std::uint64_t t1 = now_ns();
      const std::uint64_t n1 = completed_.load();
      const double cpu1 = cpu_s_();
      const double stolen1 = stolen_cpu_s();
      const double wall_s = static_cast<double>(t1 - t) * 1e-9;
      Window w;
      w.rate = static_cast<double>(n1 - n) / wall_s;
      w.cpu_us_per_fix = n1 > n ? (cpu1 - cpu) * 1e6 / static_cast<double>(n1 - n) : 0.0;
      w.stolen_share = (stolen1 - stolen) / (cpus * wall_s);
      windows_.push_back(w);
      t = t1;
      n = n1;
      cpu = cpu1;
      stolen = stolen1;
    }
    if (windows_.empty()) return;
    std::vector<double> shares;
    for (const Window& w : windows_) shares.push_back(w.stolen_share);
    const std::size_t eighth = std::max<std::size_t>(1, shares.size() / 8) - 1;
    std::nth_element(shares.begin(), shares.begin() + static_cast<std::ptrdiff_t>(eighth),
                     shares.end());
    const double cut = std::max(kMaxStolenShare, shares[eighth]);
    for (const Window& w : windows_) kept_.push_back(w.stolen_share <= cut);
  });
}

void WindowMonitor::join() {
  if (thread_.joinable()) thread_.join();
}

double WindowMonitor::median_over_kept(double Window::*field) const {
  std::vector<double> v;
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    if (kept_[w] && windows_[w].rate > 0.0) v.push_back(windows_[w].*field);
  }
  return v.empty() ? 0.0 : noble::median(v);
}

double WindowMonitor::median_rate() const { return median_over_kept(&Window::rate); }

double WindowMonitor::median_cpu_us_per_fix() const {
  return median_over_kept(&Window::cpu_us_per_fix);
}

std::size_t WindowMonitor::kept_count() const {
  return static_cast<std::size_t>(std::count(kept_.begin(), kept_.end(), true));
}

double WindowMonitor::median_stolen_share() const {
  std::vector<double> v;
  for (const Window& w : windows_) v.push_back(w.stolen_share);
  return v.empty() ? 0.0 : noble::median(v);
}

void note_windows(RunResult& out, const WindowMonitor& monitor) {
  out.note("host_stolen_share", monitor.median_stolen_share(), "ratio");
  out.note("windows_kept", static_cast<double>(monitor.kept_count()), "count");
}

// --- system under test ----------------------------------------------------------

System train_system() {
  using namespace noble;
  System sys;
  // Fixed seeds and sizes: the models are part of the system under test, not
  // of the workload, so every run serves bit-identical weights.
  core::WifiExperimentConfig wifi_cfg;
  wifi_cfg.total_samples = 3000;
  wifi_cfg.seed = 12;
  sys.wifi_world =
      std::make_unique<core::WifiExperiment>(core::make_uji_experiment(wifi_cfg));
  core::NobleWifiConfig wifi_model_cfg;
  wifi_model_cfg.quantize.tau = 3.0;
  wifi_model_cfg.quantize.coarse_l = 15.0;
  wifi_model_cfg.epochs = 10;
  core::NobleWifiModel wifi_model(wifi_model_cfg);
  std::uint64_t t0 = now_ns();
  wifi_model.fit(sys.wifi_world->split.train, &sys.wifi_world->split.val);
  sys.wifi_fit_s = static_cast<double>(now_ns() - t0) * 1e-9;

  core::ImuExperimentConfig imu_cfg;
  imu_cfg.num_paths = 400;
  imu_cfg.total_walk_time_s = 1000.0;
  imu_cfg.readings_per_segment = 8;
  imu_cfg.imu.ref_interval_s = 15.0;
  imu_cfg.seed = 304;
  sys.imu_world = std::make_unique<core::ImuExperiment>(core::make_imu_experiment(imu_cfg));
  core::NobleImuConfig imu_model_cfg;
  imu_model_cfg.quantize.tau = 2.0;
  imu_model_cfg.epochs = 6;
  imu_model_cfg.projection_dim = 6;
  core::NobleImuTracker tracker(imu_model_cfg);
  t0 = now_ns();
  tracker.fit(sys.imu_world->split.train);
  sys.imu_fit_s = static_cast<double>(now_ns() - t0) * 1e-9;

  t0 = now_ns();
  sys.wifi = std::make_unique<serve::WifiLocalizer>(std::move(wifi_model));
  sys.imu = std::make_unique<serve::ImuLocalizer>(std::move(tracker));
  sys.plan_build_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  return sys;
}

noble::engine::EngineConfig engine_config() {
  noble::engine::EngineConfig cfg;
  cfg.workers = host_cpus();
  return cfg;
}

ScanPool make_scan_pool(const System& sys, std::size_t count, std::uint64_t seed) {
  noble::sim::CollectionConfig cc;
  cc.max_samples = count;
  noble::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5ca7);
  noble::data::WifiDataset ds = noble::sim::collect_wifi_dataset(
      sys.wifi_world->world, *sys.wifi_world->wifi, cc, rng);
  ScanPool pool;
  pool.scans.reserve(ds.samples.size());
  pool.truth.reserve(ds.samples.size());
  for (auto& s : ds.samples) {
    pool.truth.push_back({s.building, s.floor, s.position});
    pool.scans.push_back(std::move(s.rssi));
  }
  pool.oracle.reserve(pool.scans.size());
  for (const auto& scan : pool.scans) pool.oracle.push_back(sys.wifi->locate(scan));
  return pool;
}

std::vector<Track> make_tracks(const System& sys, std::size_t count, std::uint64_t seed) {
  const auto& paths = sys.imu_world->split.test.paths;
  const std::size_t dim = sys.imu->segment_dim();
  std::vector<std::size_t> order(paths.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  noble::Rng rng(seed ^ 0x7ac4ULL);
  rng.shuffle(order);
  std::vector<Track> tracks;
  // Cycles through the shuffled held-out paths, skipping any without a
  // segment; gives up (fewer tracks) only if every path is empty.
  for (std::size_t k = 0; !order.empty() && tracks.size() < count && k < count + order.size();
       ++k) {
    const auto& path = paths[order[k % order.size()]];
    if (path.num_segments == 0) continue;
    Track t;
    t.start = path.start;
    for (std::size_t s = 0; s < path.num_segments; ++s) {
      t.segments.emplace_back(path.features.begin() + static_cast<std::ptrdiff_t>(s * dim),
                              path.features.begin() +
                                  static_cast<std::ptrdiff_t>((s + 1) * dim));
    }
    tracks.push_back(std::move(t));
  }
  return tracks;
}

std::vector<Fix> replay_track(const noble::serve::ImuLocalizer& imu, const Track& track,
                              const std::vector<std::size_t>& ordinals) {
  noble::serve::TrackingSession session = imu.start_session(track.start);
  std::vector<Fix> out;
  out.reserve(ordinals.size());
  for (std::size_t k : ordinals) {
    out.push_back(session.update(track.segments[k % track.segments.size()]));
  }
  return out;
}

// --- accuracy -----------------------------------------------------------------

void Accuracy::add(const Fix& fix, const Truth& truth) {
  ++n;
  if (fix.building == truth.building) ++building_hits;
  if (fix.building == truth.building && fix.floor == truth.floor) ++floor_hits;
  error_sum_m += std::hypot(fix.position.x - truth.position.x,
                            fix.position.y - truth.position.y);
}

void Accuracy::merge(const Accuracy& other) {
  n += other.n;
  building_hits += other.building_hits;
  floor_hits += other.floor_hits;
  error_sum_m += other.error_sum_m;
}

void Accuracy::emit(RunResult& out) const {
  const double d = n == 0 ? 1.0 : static_cast<double>(n);
  out.set("building_hit_pct", 100.0 * static_cast<double>(building_hits) / d, "%");
  out.set("floor_hit_pct", 100.0 * static_cast<double>(floor_hits) / d, "%");
  out.set("position_error_m", error_sum_m / d, "m");
}

// --- set-up -------------------------------------------------------------------

void measure_setup(const Options& opts, RunResult& out, const std::function<double()>& once) {
  std::vector<double> times;
  for (int r = 0; r < (opts.side_phase ? 1 : 3); ++r) times.push_back(once());
  if (opts.trace) {
    out.note("setup_s", noble::median(times), "s");
  } else {
    out.set("setup_s", noble::median(times), "s");
  }
}

// --- engine telemetry -----------------------------------------------------------

noble::engine::EngineStats engine_delta(const noble::engine::EngineStats& before,
                                        const noble::engine::EngineStats& after) {
  noble::engine::EngineStats d = after;
  d.submitted -= before.submitted;
  d.rejected -= before.rejected;
  d.expired -= before.expired;
  d.completed -= before.completed;
  d.batches -= before.batches;
  d.imu_batches -= before.imu_batches;
  d.interactive.accepted -= before.interactive.accepted;
  d.interactive.rejected -= before.interactive.rejected;
  d.interactive.expired -= before.interactive.expired;
  d.bulk.accepted -= before.bulk.accepted;
  d.bulk.rejected -= before.bulk.rejected;
  d.bulk.expired -= before.bulk.expired;
  d.batch_size.subtract(before.batch_size);
  d.imu_batch_size.subtract(before.imu_batch_size);
  d.queue_wait_us.subtract(before.queue_wait_us);
  d.assembly_us.subtract(before.assembly_us);
  d.latency_us.subtract(before.latency_us);
  d.interactive.latency_us.subtract(before.interactive.latency_us);
  d.bulk.latency_us.subtract(before.bulk.latency_us);
  return d;
}

void emit_engine_layer(RunResult& out, const noble::engine::EngineStats& d) {
  out.set("engine.queue_wait_us.p50", d.queue_wait_us.percentile(50), "us");
  out.set("engine.queue_wait_us.p99", d.queue_wait_us.percentile(99), "us");
  out.set("engine.assembly_us.p50", d.assembly_us.percentile(50), "us");
  out.set("engine.batch_size.mean", d.batch_size.mean(), "count");
  out.set("engine.imu_batch_size.mean", d.imu_batch_size.mean(), "count");
  out.set("engine.rejected", static_cast<double>(d.rejected), "count");
  out.set("engine.expired", static_cast<double>(d.expired), "count");
}

void emit_layer_defaults(RunResult& out) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"core.wifi_fit_s", "s"},
      {"core.imu_fit_s", "s"},
      {"serve.plan_build_ms", "ms"},
      {"serve.featurize_us.b1", "us"},
      {"serve.predict_us.b1", "us"},
      {"serve.decode_us", "us"},
      {"serve.predict_us_per_query.b32", "us"},
      {"serve.locate_batch_us_per_query.b32", "us"},
      {"serve.locate_batch_us_per_query.formed", "us"},
      {"serve.imu_update_us.w1", "us"},
      {"serve.imu_update_us_per_track.w8", "us"},
      {"kernels.fp32_gflops.b1", "GFLOP/s"},
      {"kernels.fp32_gflops.b32", "GFLOP/s"},
      {"kernels.peak_gflops", "GFLOP/s"},
      {"kernels.peak_pct.b32", "%"},
      {"kernels.l1_gbps", "GB/s"},
      {"kernels.l2_gbps", "GB/s"},
      {"kernels.flops_per_query", "count"},
      {"kernels.weight_bytes_per_call", "B"},
      {"fleet.submit_us.p50", "us"},
      {"engine.queue_wait_us.p50", "us"},
      {"engine.queue_wait_us.p99", "us"},
      {"engine.assembly_us.p50", "us"},
      {"engine.batch_size.mean", "count"},
      {"engine.imu_batch_size.mean", "count"},
      {"engine.bulk_useful_ratio", "ratio"},
      {"engine.rejected", "count"},
      {"engine.expired", "count"},
      {"net.send_us.p50", "us"},
      {"gateway.decode_us.p50", "us"},
      {"gateway.respond_us.p50", "us"},
      {"gateway.window_full", "count"},
      {"gateway.malformed", "count"},
      {"cluster.spill_forwarded", "count"},
      {"cluster.spill_completed", "count"},
      {"cluster.spill_failed", "count"},
      {"cluster.spill_share", "ratio"},
      {"bench.gen_lag_us.p99", "us"},
      {"bench.gen_lag_us.max", "us"},
      {"bench.trace_overhead_pct", "%"},
      {"ledger.e2e_mean_us", "us"},
      {"ledger.telescope_err_pct", "%"},
  };
  for (const auto& [name, unit] : kLayerMetrics) out.set(name, 0.0, unit);
  for (std::size_t l = 1; l < kNumLayers; ++l) {
    out.set(ledger_metric(static_cast<Layer>(l)), 0.0, "us");
  }
}

void emit_ledger(RunResult& out, const Ledger& ledger, double reference_mean_us,
                 const Options& opts) {
  for (std::size_t l = 1; l < kNumLayers; ++l) {
    out.set(ledger_metric(static_cast<Layer>(l)), ledger.mean_self_us(static_cast<Layer>(l)),
            "us");
  }
  out.set("ledger.e2e_mean_us", reference_mean_us, "us");
  const double err = ledger.telescope_error_pct(reference_mean_us);
  out.set("ledger.telescope_err_pct", err, "%");
  // Stated tolerance: the per-layer self means must sum to the end-to-end
  // mean latency the recorder measured for the same requests within 1%.
  if (err > 1.0) out.fail("per-layer self times do not telescope to the e2e mean");
  if (ledger.rejected_groups() != 0) out.fail("malformed span groups in the ledger");
  const std::string path =
      opts.out_dir + "/spans_" + opts.workload + "_" + std::to_string(opts.seed) + ".csv";
  if (!ledger.write_csv(path)) out.fail("could not write " + path);
}

std::string ledger_metric(Layer layer) {
  return std::string("ledger.") + layer_name(layer) + ".self_us";
}

}  // namespace perfbench
