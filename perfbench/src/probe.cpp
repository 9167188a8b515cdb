// Machine probes: peak and bandwidth loops, dispatched to AVX2 at run time.
#include <cstdint>
#include <vector>

#include "harness.h"
#include "probe.h"

namespace perfbench {

namespace {

// Runtime values the compiler cannot fold: multiplying by one and adding a
// tiny constant keeps every lane normal (no denormals, no overflow).
volatile float g_one = 1.0f;
volatile float g_tiny = 1e-7f;
volatile float g_sink = 0.0f;

bool use_avx2() { return probe_avx2_compiled() && __builtin_cpu_supports("avx2"); }


double peak_scalar(std::uint64_t iters) {
  const float m = g_one, c = g_tiny;
  float a[8] = {1.0f, 1.1f, 1.2f, 1.3f, 1.4f, 1.5f, 1.6f, 1.7f};
  float b[8] = {0.0f, 0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f, 0.7f};
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (int k = 0; k < 8; ++k) {
      a[k] = a[k] * m;
      b[k] = b[k] + c;
    }
  }
  float s = 0.0f;
  for (int k = 0; k < 8; ++k) s += a[k] + b[k];
  g_sink = s;
  return static_cast<double>(iters) * 16.0;
}

double read_scalar(const float* p, std::size_t n, std::uint64_t passes) {
  float s[8] = {};
  for (std::uint64_t r = 0; r < passes; ++r) {
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      for (int k = 0; k < 8; ++k) s[k] += p[i + static_cast<std::size_t>(k)];
    }
  }
  g_sink = s[0] + s[7];
  return static_cast<double>(passes) * static_cast<double>(n / 8 * 8) * sizeof(float);
}

/// Repeats `body(chunk)` (which returns the work it did) until `seconds`
/// pass; returns work per second of the fastest chunk.
template <typename Body>
double best_rate(double seconds, Body body) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  double best = 0.0;
  while (now_ns() < end) {
    const std::uint64_t t0 = now_ns();
    const double work = body();
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    if (dt > 0 && work / dt > best) best = work / dt;
  }
  return best;
}

}  // namespace

const char* probe_isa() { return use_avx2() ? "avx2" : "scalar"; }

double probe_peak_gflops(double seconds) {
  const bool avx2 = use_avx2();
  return best_rate(seconds, [&] {
           if (avx2) {
             float sink = 0.0f;
             const double flops = peak_avx2(1u << 20, g_one, g_tiny, &sink);
             g_sink = sink;
             return flops;
           }
           return peak_scalar(1u << 20);
         }) /
         1e9;
}

double probe_read_gbps(std::size_t bytes, double seconds) {
  std::vector<float> buf(bytes / sizeof(float), 1.0f);
  const std::uint64_t passes = (64u << 20) / bytes + 1;
  const bool avx2 = use_avx2();
  return best_rate(seconds, [&] {
           if (avx2) {
             float sink = 0.0f;
             const double bytes_read = read_avx2(buf.data(), buf.size(), passes, &sink);
             g_sink = sink;
             return bytes_read;
           }
           return read_scalar(buf.data(), buf.size(), passes);
         }) /
         1e9;
}

}  // namespace perfbench
