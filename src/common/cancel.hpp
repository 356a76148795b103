// Cooperative cancellation for long-running campaigns.
//
// A CancelToken is a cheap shared handle onto one atomic flag: the vppd
// daemon hands a token to every queued job, sweeps check it between sampled
// rows (core/shard), and a client cancel request flips the flag
// from another thread. Checks are acquire loads, cancel() is a release
// store -- no locks on the hot path. A default-constructed token is "never
// cancelled" and costs one shared_ptr; all existing call sites that do not
// care about cancellation pass that.
#pragma once

#include <atomic>
#include <memory>

namespace vppstudy::common {

class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Request cancellation. Idempotent; visible to every copy of the token.
  void cancel() const noexcept {
    flag_->store(true, std::memory_order_release);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace vppstudy::common
