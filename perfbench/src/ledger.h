// In-memory span ledger for traced runs.
//
// Each request contributes a group of spans: a root covering the request
// end to end and child spans at every layer boundary the benchmark can see
// (its own clock reads around calls into the program, plus the stage marks
// the engine publishes on obs::Trace). Spans carry a name, start, end,
// parent and the request id shared by the group. A layer's self time is its
// span's duration minus the part of that interval its children cover; the
// per-layer self times of a request add up to its root duration, so the
// per-layer means must telescope to the end-to-end mean.
//
// All requests are aggregated; raw spans are kept for a bounded sample and
// written out once at exit.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layer names a span can carry, in pipeline order.
enum class Layer : std::uint8_t {
  kRequest = 0,  ///< root: due (or submit) -> fix available
  kGenLag,       ///< generator lateness: due -> send start
  kFleetSubmit,  ///< Router/NodeAgent submit: call -> admitted (or return)
  kQueueWait,    ///< engine: admitted -> dequeued
  kAssembly,     ///< engine: dequeued -> batch assembled
  kCompute,      ///< serve/kernels: assembled -> computed
  kRespond,      ///< computed -> fix available to the client
  kNetSend,      ///< client frame send
  kWireWait,     ///< sent -> response frame read by the client
  kSpill,        ///< cross-node spill hop: forwarded -> answered
  kNumLayers,
};
inline constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::kNumLayers);

/// Stable metric-name fragment of a layer ("gen_lag", "queue_wait", ...).
const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kRequest;
  std::int32_t parent = -1;  ///< index within the request's group; -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Ledger {
 public:
  /// Keeps raw spans of every `stride`-th request, at most `max_kept` spans.
  explicit Ledger(std::uint64_t stride = 1, std::size_t max_kept = 1u << 18);

  /// Adds one request's span group; group[0] must be the root. Returns false
  /// (and records nothing) when a span is inverted or escapes its parent.
  bool add(std::uint64_t request, const std::vector<Span>& group);

  std::uint64_t rejected_groups() const;
  /// Mean self time per request of `layer`, in microseconds.
  double mean_self_us(Layer layer) const;
  /// |sum of per-layer self-time means - reference| / reference, in
  /// percent; the reference is the end-to-end mean latency measured
  /// independently of the spans.
  double telescope_error_pct(double reference_mean_us) const;

  /// Writes the kept spans as CSV (request,span,parent,layer,start_ns,end_ns).
  bool write_csv(const std::string& path) const;

 private:
  struct Kept {
    std::uint64_t request;
    std::uint32_t index;
    Span span;
  };
  mutable std::mutex mu_;
  std::uint64_t stride_;
  std::size_t max_kept_;
  std::uint64_t requests_ = 0;
  std::uint64_t rejected_ = 0;
  double self_ns_sum_[kNumLayers] = {};
  std::vector<Kept> kept_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
