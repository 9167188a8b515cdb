// Shared vocabulary of the serving benchmark: run options, the metric sheet
// a run prints, the trained system under test with its query pools and
// direct-inference oracles, and the small timing helpers every workload
// uses. Everything here talks to the repo only through the public headers
// under src/.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <time.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/experiment.h"
#include "engine/engine.h"
#include "fleet/router.h"
#include "geo/point.h"
#include "ledger.h"
#include "serve/fix.h"
#include "serve/imu_localizer.h"
#include "serve/wifi_localizer.h"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Set on the extra phase a traced run adds (see main.cpp): one set-up
  /// instead of three, and no ladder/roofline phase.
  bool side_phase = false;
};

/// Monotonic nanoseconds on the clock the program's obs::Trace marks use,
/// so bench-side stamps and engine stage marks share one time base.
std::uint64_t now_ns();

/// Sleeps until `deadline_ns` (same clock as now_ns): coarse sleep, then a
/// spin for the last stretch. Returns the CPU nanoseconds the spin burned,
/// which the CPU-per-fix figures subtract (it is the generator's cost, not
/// the server's).
std::uint64_t wait_until_ns(std::uint64_t deadline_ns);

/// CPU seconds on a clock (CLOCK_THREAD_CPUTIME_ID or another thread's
/// pthread_getcpuclockid clock); 0 when unreadable.
double thread_cpu_s(clockid_t clock);

/// Worker and generator budget: the host's online CPU count (at least 2).
std::size_t host_cpus();

/// Which of the CPUs the process was started on a thread may use.
enum class CpuShare {
  kAll,        ///< every one
  kGenerator,  ///< the first one: the open-loop generator's own CPU
  kServer,     ///< all but the first
};
/// Restricts the calling thread, and the threads it creates from then on, to
/// `share`. Does nothing when the process may use fewer than two CPUs.
void pin_thread(CpuShare share);

/// Process CPU seconds (user + system) so far.
double process_cpu_s();
/// CPU seconds (user + system) of another process, read from /proc; 0 when
/// unreadable.
double child_cpu_s(int pid);
/// CPU seconds the hypervisor has taken from this machine's CPUs so far
/// (the steal column of /proc/stat, summed over CPUs); 0 when unreadable.
double stolen_cpu_s();
/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric sheet plus the run's correctness verdict and counts.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> errors;  ///< why `correct` went false
  std::vector<std::pair<std::string, Metric>> metrics;
  /// Class-level figures printed in the side report (not in the result line).
  std::vector<std::pair<std::string, Metric>> report;

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);
  const Metric* find(const std::string& name) const;
};

/// Latency samples in microseconds. Keeps at most `capacity` samples as a
/// uniform reservoir (deterministic replacement), so the benchmark's own
/// memory does not grow with throughput; count and mean stay exact.
class Latencies {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;
  explicit Latencies(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}
  void add(double v);
  /// Appends another reservoir's samples (for equally loaded clients).
  void merge(const Latencies& other);
  std::uint64_t count() const { return n_; }
  double pct(double q) const;  ///< percentile of the kept samples
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double max() const { return max_; }

 private:
  std::size_t capacity_;
  std::vector<double> us_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

/// Length of the windows the latency percentiles, rates and CPU-per-fix
/// figures are taken over before their median is reported.
inline constexpr double kWindowS = 0.5;

/// Latencies bucketed into fixed time windows (by due or submit time). The
/// reported percentile is the median over the windows of each window's
/// percentile, so a host stall that spoils a few windows does not move it.
class WindowedLatencies {
 public:
  WindowedLatencies(std::uint64_t start_ns, double seconds);
  void add(std::uint64_t at_ns, double us);
  void merge(const WindowedLatencies& other);
  /// Median over windows holding at least 20 samples of their q-th
  /// percentile; with `kept`, over the windows it marks (all of them when
  /// none of those holds 20 samples).
  double median_of_windows(double q, const std::vector<bool>* kept = nullptr) const;

 private:
  std::uint64_t start_ns_;
  std::uint64_t period_ns_;
  std::vector<Latencies> windows_;
};

/// Samples a completion counter, CPU time and stolen CPU time in fixed
/// windows on its own thread, from start() until the given end time, and
/// reports medians over the windows: a host stall that slows one window does
/// not move the run's throughput or CPU-per-fix figure.
///
/// On a shared virtual machine the hypervisor takes CPU time from the guest
/// in bursts, and a multi-threaded server loses far more than the stolen
/// share (a window with 24% stolen ran ~58% slower: threads wait on work
/// held by a descheduled vCPU), and contended stretches can outlast a run.
/// So the medians are taken over the windows in which at most
/// kMaxStolenShare of the CPU time was stolen, or over the least-stolen
/// eighth of the windows when fewer qualify (at 25% stolen, the least-stolen
/// quarter still read 44% slow).
class WindowMonitor {
 public:
  /// `cpu_s` returns the CPU seconds to charge to the system under test.
  WindowMonitor(const std::atomic<std::uint64_t>& completed, std::function<double()> cpu_s);
  ~WindowMonitor();
  WindowMonitor(const WindowMonitor&) = delete;
  WindowMonitor& operator=(const WindowMonitor&) = delete;

  static constexpr double kMaxStolenShare = 0.03;

  /// Starts sampling now, in windows of kWindowS on a grid from now; the last
  /// window ends at or before `end_ns`.
  void start(std::uint64_t end_ns);
  /// Waits for the sampling thread (returns at once if never started).
  void join();
  double median_rate() const;            ///< completions per second
  double median_cpu_us_per_fix() const;  ///< CPU microseconds per completion
  /// Which windows the medians are taken over, by window index from start().
  const std::vector<bool>& kept() const { return kept_; }
  std::size_t kept_count() const;
  /// Median over all windows of the share of CPU time that was stolen.
  double median_stolen_share() const;

 private:
  struct Window {
    double rate = 0.0, cpu_us_per_fix = 0.0, stolen_share = 0.0;
  };
  double median_over_kept(double Window::*field) const;

  const std::atomic<std::uint64_t>& completed_;
  std::function<double()> cpu_s_;
  std::uint64_t period_ns_;
  std::vector<Window> windows_;
  std::vector<bool> kept_;
  std::thread thread_;
};

/// Notes the monitor's median stolen CPU share and how many windows it kept
/// in the side report.
void note_windows(RunResult& out, const WindowMonitor& monitor);

/// Ground truth of one held-out scan (the paper's Table I targets).
struct Truth {
  int building = 0;
  int floor = 0;
  noble::geo::Point2 position;
};

/// One streaming IMU track: anchor plus the segment sequence it consumes
/// (the held-out path's segments, cycled when a session outlives them).
struct Track {
  noble::geo::Point2 start;
  std::vector<noble::serve::ImuSegment> segments;
};

/// The trained system plus the worlds that generate its queries.
struct System {
  std::unique_ptr<noble::core::WifiExperiment> wifi_world;
  std::unique_ptr<noble::core::ImuExperiment> imu_world;
  std::unique_ptr<noble::serve::WifiLocalizer> wifi;
  std::unique_ptr<noble::serve::ImuLocalizer> imu;
  double wifi_fit_s = 0.0;
  double imu_fit_s = 0.0;
  double plan_build_ms = 0.0;  ///< localizer construction (plan build) time
};

/// Trains both models from fixed seeds and builds the serving localizers.
/// Deterministic: every call yields bit-identical models.
System train_system();

/// The benchmark's own engine configuration: repo defaults with one worker
/// per CPU. Reads no environment knob.
noble::engine::EngineConfig engine_config();

/// Warm-up before every measured window: caches fill and lazy set-up
/// finishes before the clock that counts starts.
inline constexpr double kWarmupS = 0.5;

/// Shard key every workload serves.
inline const std::string kShard = "bldg-A";

/// Held-out scans generated from the workload seed, with the oracle fix of
/// each (direct WifiLocalizer::locate) and its ground truth.
struct ScanPool {
  std::vector<noble::serve::RssiVector> scans;
  std::vector<noble::serve::Fix> oracle;
  std::vector<Truth> truth;
  std::size_t size() const { return scans.size(); }
};
ScanPool make_scan_pool(const System& sys, std::size_t count, std::uint64_t seed);

/// Held-out IMU tracks, chosen and ordered by the workload seed.
std::vector<Track> make_tracks(const System& sys, std::size_t count, std::uint64_t seed);

/// Oracle for session traffic: the fixes one TrackingSession produces when
/// fed `track`'s segments (cycled) for the given ordinals in order.
std::vector<noble::serve::Fix> replay_track(const noble::serve::ImuLocalizer& imu,
                                            const Track& track,
                                            const std::vector<std::size_t>& ordinals);

/// Accumulates the paper's Table I quantities over served fixes.
struct Accuracy {
  std::uint64_t n = 0, building_hits = 0, floor_hits = 0;
  double error_sum_m = 0.0;
  void add(const noble::serve::Fix& fix, const Truth& truth);
  void merge(const Accuracy& other);
  /// Writes building_hit_pct / floor_hit_pct / position_error_m.
  void emit(RunResult& out) const;
};

/// Measured set-up: repeats `once` (which trains, starts serving and waits
/// for the first served fix and returns the seconds that took) three times
/// (once in a side phase) and reports the median as setup_s — an end-to-end
/// metric, so traced runs only note it. The last repetition's state is kept
/// by the callback.
void measure_setup(const Options& opts, RunResult& out, const std::function<double()>& once);

/// Start-of-window / end-of-window engine telemetry.
noble::engine::EngineStats engine_delta(const noble::engine::EngineStats& before,
                                        const noble::engine::EngineStats& after);

/// Per-layer metrics taken from a Router::stats() delta (fleet/engine layer).
void emit_engine_layer(RunResult& out, const noble::engine::EngineStats& delta);

/// Metric name of a ledger layer's mean self time ("ledger.<layer>.self_us").
std::string ledger_metric(Layer layer);

/// Writes the ledger's per-layer self times and the telescoping check (fails
/// the run beyond 1% of `reference_mean_us`), and the kept spans to
/// <out_dir>/spans_<workload>_<seed>.csv.
void emit_ledger(RunResult& out, const Ledger& ledger, double reference_mean_us,
                 const Options& opts);

/// Writes every per-layer metric name with value 0 so a traced run always
/// prints the full list; workloads overwrite the ones they measure.
void emit_layer_defaults(RunResult& out);

/// Ladder phase and roofline probe (traced runs): pushes `pool` through
/// kernels -> OptimizedNetwork::predict -> featurize/decode -> locate_batch,
/// and tracks through the IMU session path.
void measure_layers(RunResult& out, const System& sys, const ScanPool& pool,
                    const std::vector<Track>& tracks);

/// Workload entry points. Each fills metrics (end-to-end, or per-layer when
/// opts.trace) and the correctness verdict.
void run_wifi_light(const Options& opts, RunResult& out);
void run_bulk_batch(const Options& opts, RunResult& out);
void run_wire_mixed(const Options& opts, RunResult& out);
void run_spill_overflow(const Options& opts, RunResult& out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
