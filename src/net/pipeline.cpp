#include "net/pipeline.h"

#include <optional>
#include <utility>

namespace noble::net {

std::unique_ptr<Pipeline> Pipeline::connect(const std::string& host, std::uint16_t port,
                                            const MessageSet& set) {
  std::optional<FrameSocket> sock = FrameSocket::connect(host, port, set);
  if (!sock) return nullptr;
  return std::make_unique<Pipeline>(std::move(*sock));
}

Pipeline::Pipeline(FrameSocket socket) : sock_(std::move(socket)) {
  reader_ = std::thread([this] { read_loop(); });
}

Pipeline::~Pipeline() {
  sock_.shutdown_both();  // the reader observes EOF and fails what is parked
  reader_.join();
}

bool Pipeline::call(Frame frame, TypeId expect, Completion done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    frame.request_id = next_id_++;
    pending_.emplace(frame.request_id, Waiter{expect, std::move(done)});
  }
  bool sent;
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    sent = sock_.send_frame(frame);
  }
  if (sent) return true;
  bool unparked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    unparked = pending_.erase(frame.request_id) > 0;
  }
  sock_.shutdown_both();  // the reader fails every other parked call
  // Not found means the reader already swept it: its completion has run.
  return !unparked;
}

void Pipeline::read_loop() {
  while (std::optional<Frame> frame = sock_.recv_frame(-1)) {
    Completion done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = pending_.find(frame->request_id);
      // An error frame, an unknown id or the wrong response type: the peer
      // and this client no longer agree on the conversation.
      if (it == pending_.end() || it->second.expect != frame->type) break;
      done = std::move(it->second.done);
      pending_.erase(it);
    }
    done(&*frame);
  }
  // EOF, reset, malformed stream or protocol breach: close under the same
  // lock that guards enlisting, so nothing can park after the sweep.
  std::unordered_map<std::uint64_t, Waiter> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    orphans.swap(pending_);
  }
  sock_.shutdown_both();  // after a breach the socket is still open: hang up
  for (auto& [id, waiter] : orphans) {
    (void)id;
    waiter.done(nullptr);
  }
}

}  // namespace noble::net
