// Bus wrappers: a class template holding a Bus of its own type parameter is
// no wire format itself, so its Bus<Payload> raises no RNP301; each
// `PhaseLink<WrappedMsg> link` instance is a binding of WrappedMsg instead.
// `good` is clean, `drifted` sends with another bits formula (RNP306) and
// `late` sends after its delivering member ran (RNP308).
namespace reconfnet::fx {

struct WrappedMsg {
  int value = 0;
};

template <typename Payload>
class PhaseLink {
 public:
  void send(sim::NodeId from, sim::NodeId to, Payload payload,
            std::uint64_t bits) {
    bus_->send(from, to, std::move(payload), bits);
  }
  template <typename Fn>
  int deliver(Fn&& fn) {
    bus_->step();
    for (const auto& envelope : bus_->inbox(1)) fn(envelope.payload);
    return 1;
  }
  std::size_t queued() const { return bus_->pending(); }

 private:
  std::optional<sim::Bus<Payload>> bus_;
  sim::Bus<Payload> spare_;
};

void good() {
  PhaseLink<WrappedMsg> link(&meter);
  link.send(0, 1, WrappedMsg{1}, kWrappedBits);
  link.deliver(consume);
}

void drifted() {
  PhaseLink<WrappedMsg> link(&meter);
  link.send(0, 1, WrappedMsg{2}, 2 * kWrappedBits);
  link.deliver(consume);
}

void late() {
  PhaseLink<WrappedMsg> link(&meter);
  link.deliver(consume);
  link.queued();
  link.send(0, 1, WrappedMsg{3}, kWrappedBits);
}

}  // namespace reconfnet::fx
