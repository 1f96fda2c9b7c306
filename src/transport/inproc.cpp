#include "transport/inproc.hpp"

#include <limits>

#include "sim/bus.hpp"
#include "support/rng.hpp"
#include "transport/mangler.hpp"

namespace reconfnet::transport {

InprocDeployment::InprocDeployment(InprocDeploymentConfig config)
    : config_(std::move(config)) {
  std::vector<sim::NodeId> ids;
  ids.reserve(static_cast<std::size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    ids.push_back(static_cast<sim::NodeId>(i));
  }
  support::Rng table_rng(config_.table_seed);
  initial_table_ = std::make_shared<const dos::GroupTable>(
      dos::GroupTable::random(config_.dimension, ids, table_rng));
  protocols_.reserve(ids.size());
  for (const sim::NodeId id : ids) {
    protocols_.push_back(
        std::make_unique<NodeProtocol>(id, initial_table_, config_.protocol));
  }
}

InprocDeployment::Report InprocDeployment::run() {
  Report report;
  const auto n = static_cast<std::size_t>(config_.nodes);
  PacketMangler mangler(config_.plan, config_.fault_salt);
  // No DoS blocking and no work meter: each NodeProtocol counts its own
  // frames' wire bits, so the bus is charged nothing.
  constexpr std::uint64_t kUnmeteredBits = 0;
  sim::Bus<Message> bus;
  std::vector<sim::NodeId> dead;  // crash-stop nodes, sorted
  NodeProtocol::Outbox outbox;

  for (sim::Round round = 0; round < config_.max_rounds; ++round) {
    // Crash-stop nodes are dead for good; nodes inside a (crash, restart)
    // window sit the rounds out and reboot with a fresh protocol instance —
    // initial configuration, no memory — once the window closes.
    dead.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<sim::NodeId>(i);
      if (fault::crash_stopped(config_.plan, id, round)) dead.push_back(id);
    }
    bool all_live_done = true;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<sim::NodeId>(i);
      if (mangler.is_crashed(id, round)) continue;
      if (round > 0 && mangler.is_crashed(id, round - 1)) {
        protocols_[i] = std::make_unique<NodeProtocol>(id, initial_table_,
                                                       config_.protocol);
      }
      outbox.clear();
      const bool running =
          protocols_[i]->on_round(round, bus.inbox(id), outbox, dead);
      for (auto& [to, msg] : outbox) {
        if (config_.on_send) config_.on_send(id, to, msg);
        if (mangler.drop(id, to, round, /*attempt=*/0)) continue;
        bus.send(id, to, std::move(msg), kUnmeteredBits);
      }
      if (running) all_live_done = false;
    }
    bus.step();
    report.rounds = round + 1;
    if (all_live_done) {
      report.all_live_finished = true;
      break;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<sim::NodeId>(i);
    // Down at the end and crash-stopped at some point: gone for good.
    if (mangler.is_crashed(id, report.rounds) &&
        fault::crash_stopped(config_.plan, id,
                             std::numeric_limits<sim::Round>::max())) {
      ++report.crashed_forever;
      continue;
    }
    if (protocols_[i]->finished()) ++report.finished;
  }
  return report;
}

}  // namespace reconfnet::transport
