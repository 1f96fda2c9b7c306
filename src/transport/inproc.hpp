// In-process lockstep driver of the Section 5 protocol (DESIGN.md §15).
//
// InprocDeployment runs n NodeProtocol instances on one sim::Bus<Message>,
// one bus round per protocol round. Frames travel typed, their bodies shared
// by handle; the wire codec runs only at the UDP edge. Every send passes the
// FaultPlan-driven PacketMangler — the same sender-side seam the UDP backend
// interposes — so crash and partition windows are round-for-round identical
// across the two backends. Crashed nodes are skipped, and their protocol
// state is reset at restart: a rebooted process starts from the initial
// configuration and must rejoin via the state broadcasts. This is the
// reference run the live UDP deployment is validated against, and — with an
// empty fault plan — it reproduces dos::run_node_level_epoch's reorganized
// tables exactly (tests/transport_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dos/group_table.hpp"
#include "fault/plan.hpp"
#include "sim/types.hpp"
#include "transport/node_protocol.hpp"
#include "transport/wire.hpp"

namespace reconfnet::transport {

struct InprocDeploymentConfig {
  int nodes = 64;
  int dimension = 3;
  std::uint64_t table_seed = 1;  ///< seeds GroupTable::random
  NodeProtocol::Config protocol{};
  fault::FaultPlan plan{};  ///< scripted crashes / id_below partitions / loss
  std::uint64_t fault_salt = 0x7261ull;
  sim::Round max_rounds = 4096;  ///< hard cap: a wedge fails, never hangs
  /// Optional observer of every frame a running node sends, before the
  /// fault plan decides its fate (tests run the wire codec over the trace).
  std::function<void(sim::NodeId from, sim::NodeId to, const Message& msg)>
      on_send;
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
  std::shared_ptr<const dos::GroupTable> initial_table_;
  std::vector<std::unique_ptr<NodeProtocol>> protocols_;
};

}  // namespace reconfnet::transport
