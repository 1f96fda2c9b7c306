// In-process transport backend: sim::Bus delivery semantics behind the
// Transport seam (DESIGN.md §15).
//
// The hub owns one Bus<encoded frame> shared by every endpoint; each send
// runs through the wire codec and the FaultPlan-driven PacketMangler — the
// same sender-side seam the UDP backend interposes — so crash and partition
// windows are round-for-round identical across the two backends. Heartbeats
// are metered by the protocol but not transmitted here: the lockstep driver
// needs no liveness signal.
//
// InprocDeployment is the lockstep driver on top: n NodeProtocol instances,
// one bus round per protocol round, crashed nodes skipped (and their
// protocol state reset at restart — a rebooted process starts from the
// initial configuration and must rejoin via the state broadcasts). This is
// the reference run the live UDP deployment is validated against, and —
// with an empty fault plan — it reproduces dos::run_node_level_epoch's
// reorganized tables exactly (tests/transport_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dos/group_table.hpp"
#include "fault/plan.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"
#include "transport/mangler.hpp"
#include "transport/node_protocol.hpp"
#include "transport/transport.hpp"

namespace reconfnet::transport {

/// One encoded frame on the in-process bus: the exact bytes UdpTransport
/// would put in a datagram (registered in tools/protocheck/protocol.toml).
struct Frame {
  std::vector<std::uint8_t> bytes;
};

/// Shared state of one in-process deployment: the bus, the work meter and
/// the packet mangler all endpoints route through.
class InprocHub {
 private:
  // State precedes the methods: the protocol-conformance checker
  // (tools/protocheck) attributes send/inbox/step sites to the nearest
  // preceding Bus binding.
  sim::WorkMeter meter_;
  sim::Bus<Frame> bus_;
  PacketMangler mangler_;

 public:
  InprocHub(fault::FaultPlan plan, std::uint64_t fault_salt)
      : bus_(&meter_), mangler_(std::move(plan), fault_salt) {}

  [[nodiscard]] PacketMangler& mangler() { return mangler_; }
  [[nodiscard]] const sim::WorkMeter& meter() const { return meter_; }
  [[nodiscard]] sim::Round round() const { return bus_.round(); }

  /// Ships one encoded frame, charged at its exact byte length.
  void send(sim::NodeId from, sim::NodeId to,
            const std::vector<std::uint8_t>& bytes) {
    bus_.send(from, to, Frame{bytes}, 8ull * bytes.size());
  }

  /// Frames delivered to `node` for the current round.
  [[nodiscard]] std::span<const sim::Envelope<Frame>> inbox(sim::NodeId node) {
    return bus_.inbox(node);
  }

  /// Advances the round boundary (no DoS blocking on the transport path).
  void step() { bus_.step(); }
};

/// One node's endpoint on the hub.
class InprocTransport final : public Transport {
 public:
  struct Counters {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t decode_failures = 0;
  };

  InprocTransport(InprocHub* hub, sim::NodeId self)
      : hub_(hub), self_(self) {}

  void send(sim::NodeId to, const Message& msg) override;
  void poll(std::vector<sim::Envelope<Message>>& out) override;
  void advance_round(sim::Round round) override { (void)round; }

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  InprocHub* hub_;
  sim::NodeId self_;
  Counters counters_;
  std::vector<std::uint8_t> encode_scratch_;
};

/// Lockstep driver: the whole Section 5 deployment in one process.
struct InprocDeploymentConfig {
  int nodes = 64;
  int dimension = 3;
  std::uint64_t table_seed = 1;  ///< seeds GroupTable::random
  NodeProtocol::Config protocol{};
  fault::FaultPlan plan{};  ///< scripted crashes / id_below partitions / loss
  std::uint64_t fault_salt = 0x7261ull;
  sim::Round max_rounds = 4096;  ///< hard cap: a wedge fails, never hangs
};

class InprocDeployment {
 public:
  struct Report {
    sim::Round rounds = 0;
    int finished = 0;        ///< protocols that completed all epochs
    int crashed_forever = 0; ///< crash-stop nodes (excluded from wedging)
    bool all_live_finished = false;  ///< no live node hit the round cap
  };

  explicit InprocDeployment(InprocDeploymentConfig config);

  /// Runs rounds until every live node finished (or the cap strikes).
  Report run();

  [[nodiscard]] const NodeProtocol& node(sim::NodeId id) const {
    return *protocols_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const dos::GroupTable& initial_table() const {
    return *initial_table_;
  }

 private:
  InprocDeploymentConfig config_;
  InprocHub hub_;
  std::unique_ptr<dos::GroupTable> initial_table_;
  std::vector<std::unique_ptr<NodeProtocol>> protocols_;
  std::vector<std::unique_ptr<InprocTransport>> endpoints_;
};

}  // namespace reconfnet::transport
