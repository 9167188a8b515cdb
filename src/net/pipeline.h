// The one pipelined client of the shared transport: many callers share one
// FrameSocket, and responses may arrive in any order.
//
// The pipeline owns the socket, serializes whole-frame sends, assigns
// request ids, runs one reader thread and keeps the pending table of
// completions by request id. It knows nothing about bodies: a completion
// decodes its own response (the cluster spill a kSpillResult, the gateway
// load target a kFix, kSessionOpened or kSessionClosed).
//
// The pipeline closes on peer EOF, a malformed stream, an error frame, a
// response whose (id, type) matches no pending call, a failed send, or
// destruction. Closing marks it closed and takes the pending table under
// one lock, so no call can enlist after that point; the reader then runs
// every taken completion with nullptr.
#ifndef NOBLE_NET_PIPELINE_H_
#define NOBLE_NET_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/frame.h"
#include "net/socket.h"

namespace noble::net {

class Pipeline {
 public:
  /// The response, or nullptr when the pipeline closed before it arrived.
  using Completion = std::function<void(const Frame* response)>;

  /// Connects to host:port speaking `set`'s protocol and starts the reader;
  /// nullptr on refusal.
  static std::unique_ptr<Pipeline> connect(const std::string& host, std::uint16_t port,
                                           const MessageSet& set);

  explicit Pipeline(FrameSocket socket);
  /// Hangs up and joins the reader, which first runs every call still in
  /// flight with nullptr.
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Stamps `frame` with a fresh request id, parks `done` under it and
  /// sends the frame. The response must carry type `expect`. True: `done`
  /// runs exactly once, on the reader thread. False (pipeline closed, or
  /// the send failed — which closes it): `done` never runs and nothing
  /// stays pending.
  bool call(Frame frame, TypeId expect, Completion done);

 private:
  struct Waiter {
    TypeId expect;
    Completion done;
  };

  void read_loop();

  FrameSocket sock_;
  std::mutex send_mu_;  ///< whole frames only: senders serialize here
  std::mutex mu_;       ///< guards closed_, next_id_, pending_
  bool closed_ = false;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Waiter> pending_;
  std::thread reader_;
};

}  // namespace noble::net

#endif  // NOBLE_NET_PIPELINE_H_
