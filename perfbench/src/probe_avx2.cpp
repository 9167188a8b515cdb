// AVX2 bodies of the machine probes. This translation unit is the only one
// compiled with -mavx2, so it includes no library or standard container
// header: nothing inline from here can leak into baseline code.
#include <cstddef>
#include <cstdint>

#include "probe.h"

#if defined(PERFBENCH_AVX2)
#include <immintrin.h>
#endif

namespace perfbench {

bool probe_avx2_compiled() {
#if defined(PERFBENCH_AVX2)
  return true;
#else
  return false;
#endif
}

#if defined(PERFBENCH_AVX2)
// Four multiply chains and four add chains: enough independent work to keep
// both vector ports busy at a four-cycle latency.
double peak_avx2(std::uint64_t iters, float one, float tiny, float* sink) {
  const __m256 m = _mm256_set1_ps(one);
  const __m256 c = _mm256_set1_ps(tiny);
  __m256 a0 = _mm256_set1_ps(1.0f), a1 = _mm256_set1_ps(1.1f), a2 = _mm256_set1_ps(1.2f),
         a3 = _mm256_set1_ps(1.3f);
  __m256 b0 = _mm256_set1_ps(0.0f), b1 = _mm256_set1_ps(0.1f), b2 = _mm256_set1_ps(0.2f),
         b3 = _mm256_set1_ps(0.3f);
  for (std::uint64_t i = 0; i < iters; ++i) {
    a0 = _mm256_mul_ps(a0, m);
    b0 = _mm256_add_ps(b0, c);
    a1 = _mm256_mul_ps(a1, m);
    b1 = _mm256_add_ps(b1, c);
    a2 = _mm256_mul_ps(a2, m);
    b2 = _mm256_add_ps(b2, c);
    a3 = _mm256_mul_ps(a3, m);
    b3 = _mm256_add_ps(b3, c);
  }
  __m256 s = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)),
                           _mm256_add_ps(_mm256_add_ps(b0, b1), _mm256_add_ps(b2, b3)));
  alignas(32) float out[8];
  _mm256_store_ps(out, s);
  *sink = out[0];
  return static_cast<double>(iters) * 8.0 * 8.0;  // 8 ops x 8 lanes
}

double read_avx2(const float* p, std::size_t n, std::uint64_t passes, float* sink) {
  // Eight independent accumulators so the add latency never limits the
  // two loads per cycle an L1 can serve.
  __m256 s[8];
  for (__m256& v : s) v = _mm256_setzero_ps();
  for (std::uint64_t r = 0; r < passes; ++r) {
    for (std::size_t i = 0; i + 64 <= n; i += 64) {
      for (int k = 0; k < 8; ++k) s[k] = _mm256_add_ps(s[k], _mm256_loadu_ps(p + i + 8 * k));
    }
  }
  for (int k = 1; k < 8; ++k) s[0] = _mm256_add_ps(s[0], s[k]);
  alignas(32) float out[8];
  _mm256_store_ps(out, s[0]);
  *sink = out[0];
  return static_cast<double>(passes) * static_cast<double>(n / 64 * 64) * sizeof(float);
}
#else
double peak_avx2(std::uint64_t, float, float, float*) { return 0.0; }
double read_avx2(const float*, std::size_t, std::uint64_t, float*) { return 0.0; }
#endif

}  // namespace perfbench
