#include "timing_exchanger.hpp"

#include <cstring>
#include <utility>

#include "perfbench.hpp"
#include "spans.hpp"

namespace perfbench {

using sttsv::simt::Delivery;
using sttsv::simt::Envelope;
using sttsv::simt::Transport;

template <class F>
auto TimingExchanger::timed(const char* span, F&& call) -> decltype(call()) {
  const std::uint64_t begin = now_ns();
  auto out = call();
  const std::uint64_t end = now_ns();
  calls_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(end - begin, std::memory_order_relaxed);
  if (std::this_thread::get_id() == driver_) {
    blocked_ns_.fetch_add(end - begin, std::memory_order_relaxed);
  }
  span_log().record(span, begin, end);
  return out;
}

namespace {

/// Forwards a multi-part exchange to the wrapped backend's own Parts.
class TimingParts final : public sttsv::simt::Exchanger::Parts {
 public:
  TimingParts(TimingExchanger& owner, std::unique_ptr<Parts> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  std::vector<std::vector<Delivery>> part(
      std::vector<std::vector<Envelope>> outboxes) override {
    return owner_.timed("exchange.part", [&] {
      return inner_->part(std::move(outboxes));
    });
  }

  std::vector<std::vector<Delivery>> finish() override {
    return owner_.timed("exchange.finish", [&] { return inner_->finish(); });
  }

 private:
  TimingExchanger& owner_;
  std::unique_ptr<Parts> inner_;
};

}  // namespace

TimingExchanger::TimingExchanger(sttsv::simt::Exchanger& inner)
    : Exchanger(inner.machine()),
      inner_(inner),
      driver_(std::this_thread::get_id()) {}

std::vector<std::vector<Delivery>> TimingExchanger::exchange(
    std::vector<std::vector<Envelope>> outboxes, Transport transport) {
  return timed("exchange", [&] {
    return inner_.exchange(std::move(outboxes), transport);
  });
}

std::unique_ptr<sttsv::simt::Exchanger::Parts> TimingExchanger::begin_parts(
    Transport transport) {
  return std::make_unique<TimingParts>(*this, inner_.begin_parts(transport));
}

void TimingExchanger::set_phase(const char* phase) {
  if (std::strcmp(phase, "x-panel") == 0) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (batch_start_) batch_start_();
  }
  inner_.set_phase(phase);
}

bool TimingExchanger::supports_handler_delivery() const {
  return inner_.supports_handler_delivery();
}

void TimingExchanger::set_delivery_handler(DeliveryHandler handler) {
  inner_.set_delivery_handler(std::move(handler));
}

TimingExchanger::Counters TimingExchanger::counters() const {
  return Counters{calls_.load(), busy_ns_.load(), blocked_ns_.load(),
                  batches_.load()};
}

}  // namespace perfbench
