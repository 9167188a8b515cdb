// Ladder phase of a traced run: the workload's own query pool pushed
// through each serving layer in isolation, bottom up —
//   kernels::dense_forward over the served Dense shapes
//   -> OptimizedNetwork::predict -> featurize / decode_logits
//   -> WifiLocalizer::locate_batch, and the IMU session path —
// at batch 1, batch 32 and the mean batch the workload's engine formed,
// plus the machine probes the kernel rows are read against.
#include <algorithm>
#include <cmath>
#include <span>

#include "harness.h"
#include "kernels/kernels.h"
#include "nn/dense.h"
#include "probe.h"

namespace perfbench {

namespace {

using noble::linalg::Mat;

/// Median over repeated timings of `fn` (each returns its own duration in
/// ns), run for about `seconds`. The timed calls fold a bit of their result
/// into the returned duration so the compiler cannot drop them.
template <typename Fn>
double median_ns(double seconds, Fn fn) {
  std::vector<double> t;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < end || t.size() < 16) t.push_back(static_cast<double>(fn()));
  return noble::median(t);
}

std::vector<noble::serve::RssiVector> slice(const ScanPool& pool, std::size_t start,
                                            std::size_t n) {
  std::vector<noble::serve::RssiVector> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(pool.scans[(start + i) % pool.size()]);
  return out;
}

}  // namespace

void measure_layers(RunResult& out, const System& sys, const ScanPool& pool,
                    const std::vector<Track>& tracks) {
  const noble::serve::WifiLocalizer& wifi = *sys.wifi;
  const auto plan = wifi.plan();
  constexpr double kSlot = 0.15;  // seconds per measured row
  std::size_t cursor = 0;

  // --- serve: featurize / predict / decode at batch 1 ---
  const double feat_ns = median_ns(kSlot, [&] {
    const auto q = slice(pool, cursor++, 1);
    const std::uint64_t t0 = now_ns();
    const Mat x = wifi.featurize(q);
    const std::uint64_t t1 = now_ns();
    return t1 - t0 + (x.rows() == 0 ? 1 : 0);
  });
  const Mat x1 = wifi.featurize(slice(pool, 0, 1));
  const double pred1_ns = median_ns(kSlot, [&] {
    const std::uint64_t t0 = now_ns();
    const Mat y = plan->predict(x1);
    return now_ns() - t0 + (y.rows() == 0 ? 1 : 0);
  });
  const Mat logits = plan->predict(x1);
  const double dec_ns = median_ns(kSlot, [&] {
    const std::uint64_t t0 = now_ns();
    const noble::serve::Fix f = wifi.decode_logits(logits.row(0));
    return now_ns() - t0 + (f.fine_class < 0 ? 1 : 0);
  });
  out.set("serve.featurize_us.b1", feat_ns / 1000.0, "us");
  out.set("serve.predict_us.b1", pred1_ns / 1000.0, "us");
  out.set("serve.decode_us", dec_ns / 1000.0, "us");

  // --- serve: batch 32 and the engine-formed batch ---
  const Mat x32 = wifi.featurize(slice(pool, 0, 32));
  const double pred32_ns = median_ns(kSlot, [&] {
    const std::uint64_t t0 = now_ns();
    const Mat y = plan->predict(x32);
    return now_ns() - t0 + (y.rows() == 0 ? 1 : 0);
  });
  out.set("serve.predict_us_per_query.b32", pred32_ns / 32.0 / 1000.0, "us");
  auto locate_per_query = [&](std::size_t b) {
    return median_ns(kSlot, [&] {
             const auto q = slice(pool, cursor, b);
             cursor += b;
             const std::uint64_t t0 = now_ns();
             const auto fixes = wifi.locate_batch(q);
             return now_ns() - t0 + (fixes.empty() ? 1 : 0);
           }) /
           static_cast<double>(b) / 1000.0;
  };
  out.set("serve.locate_batch_us_per_query.b32", locate_per_query(32), "us");
  const Metric* formed = out.find("engine.batch_size.mean");
  const std::size_t formed_b =
      formed == nullptr ? 1 : std::max<std::size_t>(1, std::lround(formed->value));
  out.set("serve.locate_batch_us_per_query.formed", locate_per_query(formed_b), "us");

  // --- serve: IMU session path ---
  if (!tracks.empty()) {
    std::vector<noble::serve::TrackingSession> sessions;
    for (const Track& t : tracks) sessions.push_back(sys.imu->start_session(t.start));
    std::size_t k = 0;
    const double w1_ns = median_ns(kSlot, [&] {
      const Track& t = tracks[0];
      const auto& seg = t.segments[k++ % t.segments.size()];
      const std::uint64_t t0 = now_ns();
      const noble::serve::Fix f = sessions[0].update(seg);
      return now_ns() - t0 + (f.fine_class < 0 ? 1 : 0);
    });
    const std::size_t w = std::min<std::size_t>(8, tracks.size());
    const double w8_ns = median_ns(kSlot, [&] {
      std::vector<noble::serve::TrackingSession*> ptrs;
      std::vector<const noble::serve::ImuSegment*> segs;
      for (std::size_t i = 0; i < w; ++i) {
        ptrs.push_back(&sessions[i]);
        segs.push_back(&tracks[i].segments[k % tracks[i].segments.size()]);
      }
      ++k;
      const std::uint64_t t0 = now_ns();
      const auto fixes = sys.imu->update_sessions(ptrs, segs);
      return now_ns() - t0 + (fixes.empty() ? 1 : 0);
    });
    out.set("serve.imu_update_us.w1", w1_ns / 1000.0, "us");
    out.set("serve.imu_update_us_per_track.w8", w8_ns / static_cast<double>(w) / 1000.0, "us");
  }

  // --- kernels: dense_forward over the served Dense shapes ---
  struct Shape {
    noble::kernels::PackedDense packed;
    std::vector<float> bias;
  };
  std::vector<Shape> shapes;
  double flops_per_query = 0.0;
  const auto& net = wifi.model().network();
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto* dense = dynamic_cast<const noble::nn::Dense*>(&net.layer(i));
    if (dense == nullptr) continue;
    Shape s{noble::kernels::pack_dense(dense->weights()),
            std::vector<float>(dense->bias().data(),
                               dense->bias().data() + dense->bias().size())};
    flops_per_query += 2.0 * static_cast<double>(dense->weights().rows()) *
                       static_cast<double>(dense->weights().cols());
    shapes.push_back(std::move(s));
  }
  auto gflops = [&](std::size_t m) {
    std::vector<Mat> xs, ys(shapes.size());
    for (const Shape& s : shapes) {
      Mat x(m, s.packed.in_dim());
      x.fill(0.5f);
      xs.push_back(std::move(x));
    }
    const double ns = median_ns(kSlot, [&] {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        noble::kernels::Epilogue ep;
        ep.bias = shapes[i].bias.data();
        noble::kernels::dense_forward(xs[i], shapes[i].packed, ep, ys[i]);
      }
      return now_ns() - t0;
    });
    return flops_per_query * static_cast<double>(m) / ns;  // flop/ns == GFLOP/s
  };
  const double g1 = gflops(1), g32 = gflops(32);
  const double peak = probe_peak_gflops(0.2);
  out.set("kernels.fp32_gflops.b1", g1, "GFLOP/s");
  out.set("kernels.fp32_gflops.b32", g32, "GFLOP/s");
  out.set("kernels.peak_gflops", peak, "GFLOP/s");
  out.set("kernels.peak_pct.b32", peak > 0 ? 100.0 * g32 / peak : 0.0, "%");
  out.set("kernels.l1_gbps", probe_read_gbps(16u << 10, 0.1), "GB/s");
  out.set("kernels.l2_gbps", probe_read_gbps(256u << 10, 0.1), "GB/s");
  // Computed from tensor shapes, not measured.
  out.set("kernels.flops_per_query", flops_per_query, "count");
  out.set("kernels.weight_bytes_per_call", static_cast<double>(plan->stats().packed_bytes),
          "B");
}

}  // namespace perfbench
