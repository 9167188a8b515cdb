#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kGenLag: return "gen_lag";
    case Layer::kFleetSubmit: return "fleet_submit";
    case Layer::kQueueWait: return "queue_wait";
    case Layer::kAssembly: return "assembly";
    case Layer::kCompute: return "compute";
    case Layer::kRespond: return "respond";
    case Layer::kNetSend: return "net_send";
    case Layer::kWireWait: return "wire_wait";
    case Layer::kSpill: return "spill";
    case Layer::kNumLayers: break;
  }
  return "?";
}

Ledger::Ledger(std::uint64_t stride, std::size_t max_kept)
    : stride_(stride == 0 ? 1 : stride), max_kept_(max_kept) {}

namespace {

bool well_formed(const std::vector<Span>& group) {
  if (group.empty() || group[0].parent != -1) return false;
  for (std::size_t i = 0; i < group.size(); ++i) {
    const Span& s = group[i];
    if (s.end_ns < s.start_ns) return false;
    if (i == 0) continue;
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= i) return false;
    const Span& p = group[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) return false;
  }
  return true;
}

}  // namespace

bool Ledger::add(std::uint64_t request, const std::vector<Span>& group) {
  if (!well_formed(group)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++rejected_;
    return false;
  }
  // Self time: duration minus the union of the direct children's intervals.
  double self[kNumLayers] = {};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
  for (std::size_t i = 0; i < group.size(); ++i) {
    children.clear();
    for (std::size_t j = i + 1; j < group.size(); ++j) {
      if (group[j].parent == static_cast<std::int32_t>(i)) {
        children.emplace_back(group[j].start_ns, group[j].end_ns);
      }
    }
    std::sort(children.begin(), children.end());
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : children) {
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const std::uint64_t dur = group[i].end_ns - group[i].start_ns;
    self[static_cast<std::size_t>(group[i].layer)] +=
        static_cast<double>(dur - std::min(dur, covered));
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t n = requests_++;
  for (std::size_t l = 0; l < kNumLayers; ++l) self_ns_sum_[l] += self[l];
  if (n % stride_ == 0 && kept_.size() + group.size() <= max_kept_) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      kept_.push_back({request, static_cast<std::uint32_t>(i), group[i]});
    }
  }
  return true;
}

std::uint64_t Ledger::rejected_groups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

double Ledger::mean_self_us(Layer layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (requests_ == 0) return 0.0;
  return self_ns_sum_[static_cast<std::size_t>(layer)] / 1000.0 /
         static_cast<double>(requests_);
}

double Ledger::telescope_error_pct(double reference_mean_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (requests_ == 0 || reference_mean_us <= 0.0) return 0.0;
  double sum_ns = 0.0;
  for (double s : self_ns_sum_) sum_ns += s;
  const double sum_us = sum_ns / 1000.0 / static_cast<double>(requests_);
  return std::fabs(sum_us - reference_mean_us) / reference_mean_us * 100.0;
}

bool Ledger::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "request,span,parent,layer,start_ns,end_ns\n");
  for (const Kept& k : kept_) {
    std::fprintf(f, "%llu,%u,%d,%s,%llu,%llu\n",
                 static_cast<unsigned long long>(k.request), k.index, k.span.parent,
                 layer_name(k.span.layer),
                 static_cast<unsigned long long>(k.span.start_ns),
                 static_cast<unsigned long long>(k.span.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
