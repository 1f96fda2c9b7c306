#include "transport/reliable_link.hpp"

#include <cstring>
#include <utility>

#include "transport/wire.hpp"

namespace reconfnet::transport {

void encode_link_header(const LinkHeader& header, std::uint8_t* out) {
  put_le(out, kLinkMagic);
  out[2] = kLinkVersion;
  out[3] = static_cast<std::uint8_t>(header.op);
  put_le(out + 4, header.from);
  put_le(out + 12, header.incarnation);
  put_le(out + 16, header.seq);
}

bool decode_link_header(std::span<const std::uint8_t> bytes,
                        LinkHeader& header) {
  if (bytes.size() < kLinkHeaderBytes) return false;
  if (get_le<std::uint16_t>(bytes.data()) != kLinkMagic) return false;
  if (bytes[2] != kLinkVersion) return false;
  if (bytes[3] > static_cast<std::uint8_t>(LinkOp::kAck)) return false;
  header.op = static_cast<LinkOp>(bytes[3]);
  header.from = get_le<std::uint64_t>(bytes.data() + 4);
  header.incarnation = get_le<std::uint32_t>(bytes.data() + 12);
  header.seq = get_le<std::uint32_t>(bytes.data() + 16);
  return true;
}

ReliableLink::ReliableLink(LinkConfig config, sim::NodeId self,
                           std::uint32_t incarnation, std::uint64_t seq_bits)
    : self_(self),
      incarnation_(incarnation),
      sender_({config.initial_timeout_us, config.backoff_cap_us,
               config.max_retries, seq_bits}) {}

std::uint32_t ReliableLink::stage(std::span<const std::uint8_t> payload,
                                  std::int64_t now_us, std::int64_t tag) {
  if (sender_.wrap_if_exhausted(abandon_fn())) {
    // Reused sequence numbers must not land on the peer's old dedup state:
    // the next incarnation makes it start over, and acks for the old era
    // (echoing the old incarnation) are ignored as stale.
    ++incarnation_;
  }
  Outgoing out;
  out.tag = tag;
  out.datagram.resize(kLinkHeaderBytes + payload.size());
  const auto seq = static_cast<std::uint32_t>(sender_.next_seq());
  encode_link_header({LinkOp::kReliable, self_, incarnation_, seq},
                     out.datagram.data());
  std::memcpy(out.datagram.data() + kLinkHeaderBytes, payload.data(),
              payload.size());
  sender_.stage(std::move(out), now_us);
  ++counters_.staged;
  return seq;
}

void ReliableLink::on_ack(std::uint32_t seq, std::uint32_t incarnation) {
  if (incarnation != incarnation_) {
    // An ack addressed to a previous life of this process; our fresh
    // sequence space must not be consumed by it.
    ++counters_.stale_incarnation;
    return;
  }
  if (sender_.ack(seq)) ++counters_.acked;
}

std::size_t ReliableLink::cancel_stale(std::int64_t before_tag) {
  return sender_.drop_if(
      [before_tag](const Pending& entry) {
        return entry.item.tag < before_tag;
      },
      fault::AbandonReason::kReset, abandon_fn());
}

bool ReliableLink::on_data(std::uint32_t seq, std::uint32_t incarnation) {
  if (incarnation < peer_incarnation_) {
    ++counters_.stale_incarnation;
    return false;  // no ack: the sender of this datagram is gone
  }
  if (incarnation > peer_incarnation_) {
    // The peer restarted: new sequence space, fresh dedup state.
    peer_incarnation_ = incarnation;
    receiver_.restart();
  }
  ack_queue_.push_back(seq);
  if (!receiver_.accept(seq)) {
    ++counters_.duplicates;
    return false;
  }
  ++counters_.delivered;
  return true;
}

}  // namespace reconfnet::transport
