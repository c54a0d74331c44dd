#pragma once
// A timing Exchanger that wraps another one. Every call is forwarded
// unchanged — begin_parts() keeps the wrapped backend's own Parts (so
// DirectExchange still streams), and set_phase() and the delivery-handler
// seam pass straight through — so a wrapped run's y and ledger are
// bitwise those of an unwrapped one (checked at set-up). On the way it
// counts calls and wall time:
//
//  * busy: time inside exchange()/part()/finish() on any thread;
//  * blocked: the share of it spent on the thread that drives the batch
//    (the pipelined driver runs part() on a wire thread, finish() and
//    serialized exchange() on its own thread). The driver's wait for an
//    in-flight part happens inside the library and is not seen here.
//
// set_phase("x-panel") marks the start of a batch: it is the first call a
// batched run makes into its exchanger.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "simt/reliable_exchange.hpp"

namespace perfbench {

class TimingExchanger final : public sttsv::simt::Exchanger {
 public:
  struct Counters {
    std::uint64_t calls = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t blocked_ns = 0;
    std::uint64_t batches = 0;
  };

  /// Wraps `inner` (non-owning; must outlive the wrapper). The
  /// constructing thread is taken as the driver thread.
  explicit TimingExchanger(sttsv::simt::Exchanger& inner);

  std::vector<std::vector<sttsv::simt::Delivery>> exchange(
      std::vector<std::vector<sttsv::simt::Envelope>> outboxes,
      sttsv::simt::Transport transport) override;
  [[nodiscard]] std::unique_ptr<Parts> begin_parts(
      sttsv::simt::Transport transport) override;
  void set_phase(const char* phase) override;
  [[nodiscard]] bool supports_handler_delivery() const override;
  void set_delivery_handler(DeliveryHandler handler) override;

  /// Called on the driver thread at the start of every batch.
  void on_batch_start(std::function<void()> hook) {
    batch_start_ = std::move(hook);
  }

  [[nodiscard]] Counters counters() const;

  /// Times one forwarded call and records it as a span.
  template <class F>
  auto timed(const char* span, F&& call) -> decltype(call());

 private:
  sttsv::simt::Exchanger& inner_;
  std::thread::id driver_;
  std::function<void()> batch_start_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> blocked_ns_{0};
  std::atomic<std::uint64_t> batches_{0};
};

}  // namespace perfbench
