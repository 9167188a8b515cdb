// Machine probes for the roofline rows: a non-FMA multiply + add peak loop
// and a streaming-read bandwidth loop, AVX2 when the CPU has it.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Single-core fp32 GFLOP/s of independent multiply and add chains (one
/// multiply or add = one flop per lane), run for about `seconds`.
double probe_peak_gflops(double seconds);

/// Single-core read bandwidth in GB/s over a `bytes`-sized buffer that stays
/// resident in cache (16 KiB ~ L1, 256 KiB ~ L2), run for about `seconds`.
double probe_read_gbps(std::size_t bytes, double seconds);

/// "avx2" or "scalar": which probe implementation ran.
const char* probe_isa();

// AVX2 bodies (probe_avx2.cpp); call only when probe_avx2_compiled() and the
// CPU supports AVX2. Each returns the work done (flops or bytes read).
bool probe_avx2_compiled();
double peak_avx2(std::uint64_t iters, float one, float tiny, float* sink);
double read_avx2(const float* p, std::size_t n, std::uint64_t passes, float* sink);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
