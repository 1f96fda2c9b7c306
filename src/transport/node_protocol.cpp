#include "transport/node_protocol.hpp"

#include <algorithm>

#include "apps/dht/robust_store.hpp"

namespace reconfnet::transport {
namespace {

using Core = sampling::HypercubeSamplerCore;

/// Greedy bit-fixing next hop: flip the lowest bit where `cur` and `home`
/// differ (the k-ary overlay's digit fixing with k = 2).
std::uint64_t next_hop(std::uint64_t cur, std::uint64_t home) {
  const std::uint64_t diff = cur ^ home;
  return cur ^ (diff & (~diff + 1));
}

}  // namespace

NodeProtocol::NodeProtocol(sim::NodeId self,
                           std::shared_ptr<const dos::GroupTable> initial,
                           Config config)
    : self_(self), config_(std::move(config)), table_(std::move(initial)) {
  if (config_.epochs <= 0) {
    mode_ = Mode::kDone;
    metrics_.finished = true;
    epoch_rounds_ = 1;
    return;
  }
  begin_attempt(0);
}

void NodeProtocol::begin_attempt(sim::Round start_round) {
  const dos::GroupTable& table = *table_;
  epoch_start_ = start_round;
  supernode_ = table.supernode_of(self_);
  ++metrics_.attempts;

  // Schedule, with the samples-per-supernode requirement of the final phase:
  // every member of the largest group needs a sample of its own.
  const int d = table.dimension();
  const auto estimate = sampling::SizeEstimate::from_true_size(table.size());
  auto sampling_config = config_.sampling;
  const double needed_c =
      static_cast<double>(table.max_group_size() + 1) /
      static_cast<double>(estimate.log_n_estimate());
  sampling_config.c = std::max(sampling_config.c, needed_c);
  sampling_config.beta = std::min(sampling_config.beta, sampling_config.c);
  schedule_ = sampling::hypercube_schedule(estimate, d, sampling_config);
  primitive_rounds_ = 2 * schedule_.iterations + 1;
  epoch_rounds_ = 2 * primitive_rounds_ + d + 6;

  // The epoch master stream: the first attempt of epoch 0 uses the driver's
  // stream (Rng(seed) unless one was handed in); retries and later epochs
  // remix from the seed so an aborted attempt's stragglers can never collide
  // with the retry's draws.
  support::Rng master =
      config_.first_master.value_or(support::Rng(config_.seed));
  if (epoch_ != 0 || attempt_ != 0) {
    std::uint64_t remix =
        config_.seed ^
        (static_cast<std::uint64_t>(epoch_) * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(attempt_) + 1) * 0xD1B54A32D192ED03ULL;
    master = support::Rng(support::splitmix64(remix));
  }

  // Rng::split advances the parent, so every node walks the full x-major,
  // id-ascending split order and keeps only its own two streams: the
  // supernode's Phase 1 coin flips (shared by its whole group, as the paper
  // seeds them from the synchronized initial state) and its own stream.
  support::Rng my_init{0};
  for (std::uint64_t x = 0; x < table.supernodes(); ++x) {
    for (const sim::NodeId id : table.group(x)) {
      auto init_rng = master.split(0xA000 + x);
      auto node_rng = master.split(0xB0000 + id);
      if (id == self_) {
        my_init = init_rng;
        rng_ = node_rng;
      }
    }
  }
  Core core(d, supernode_, schedule_);
  core.init(my_init);
  auto initial = std::make_shared<Body>();
  initial->state.blocks = core.release_blocks();
  replica_ = std::move(initial);

  doomed_ = false;
  fresh_group_.reset();
  view_ = GroupView{};
  gathered_.clear();
  gather_conflict_ = false;
  vote_complete_ = false;
  veto_seen_ = false;
}

bool NodeProtocol::on_round(sim::Round round,
                            std::span<const sim::Envelope<Message>> inbox,
                            Outbox& out,
                            std::span<const sim::NodeId> dead) {
  if (mode_ == Mode::kDone) return false;
  current_round_ = round;
  inbox_ = inbox;
  ++metrics_.rounds_total;
  if (mode_ == Mode::kEpochs) check_doomed(dead);

  for (const auto& envelope : inbox) {
    if (envelope.payload.kind == MsgKind::kHeartbeat) continue;
    ++metrics_.frames_received;
    metrics_.bits_received += 8ull * encoded_bytes(envelope.payload);
    if (!current_tag(envelope.payload)) ++metrics_.stale_frames;
  }

  if (mode_ == Mode::kEpochs && round - epoch_start_ >= epoch_rounds_) {
    // A resync jump carried us past the commit boundary: the decision is
    // gone, so fall back to the old table and restart the attempt here.
    // The handlers filter by the new tags, so this round's frames of the
    // aborted attempt cannot leak into the retry.
    advance_epoch(/*committed=*/false, round);
  }

  if (mode_ == Mode::kSmoke) {
    smoke_round(round, out);
  } else if (mode_ == Mode::kEpochs) {
    const std::int64_t r = round - epoch_start_;
    const int two_p = 2 * primitive_rounds_;
    const int d = table_->dimension();
    if (r < two_p) {
      if (r % 2 == 0) {
        sampler_sim_round(static_cast<int>(r / 2) + 1, out);
      } else {
        sampler_sync_round(out);
      }
    } else if (r == two_p) {
      reorg_round_a(out);
    } else if (r == two_p + 1) {
      reorg_round_b(out);
    } else if (r == two_p + 2) {
      reorg_round_c(out);
    } else if (r == two_p + 3) {
      reorg_round_d();
    } else if (r < two_p + 4 + d) {
      allgather_round(static_cast<int>(r - (two_p + 4)), out);
    } else if (r == two_p + 4 + d) {
      vote_round(out);
    } else {
      commit_round(round);
    }
  }

  inbox_ = {};
  return !metrics_.finished;
}

// --- sampler phase ----------------------------------------------------------

void NodeProtocol::sampler_sim_round(int seq, Outbox& out) {
  const auto d = static_cast<std::size_t>(table_->dimension());
  // Resynchronize from the freshest state seen (own or broadcast), then
  // apply this primitive round's deduplicated supernode messages.
  const Message* best = nullptr;
  std::int32_t best_seq = replica_->state.seq;
  super_dedup_.clear();
  accepted([&](const sim::Envelope<Message>& envelope) {
    const Message& msg = envelope.payload;
    if (msg.kind == MsgKind::kStateBroadcast &&
        msg.contents().state.blocks.size() == d) {
      if (msg.body->state.seq > best_seq) {
        best = &msg;
        best_seq = msg.body->state.seq;
      }
    } else if (msg.kind == MsgKind::kSuper && msg.super.seq == seq - 1) {
      super_dedup_.emplace(std::make_pair(msg.super.src, msg.super.index),
                           msg.super);
    }
  });
  if (best != nullptr) {
    ++metrics_.resyncs;
    replica_ = best->body;
  }
  if (replica_->state.seq != seq - 1) return;  // still stale: sit out

  super_scratch_.clear();
  for (const auto& [key, super] : super_dedup_) super_scratch_.push_back(super);

  // The candidate goes to the whole group (self included); our own copy is
  // adopted — or outvoted — in the synchronization round.
  Message msg;
  msg.kind = MsgKind::kCandidate;
  msg.supernode = supernode_;
  msg.body = advance(replica_->state, super_scratch_);
  emit(out, table_->group(supernode_), std::move(msg));
}

void NodeProtocol::sampler_sync_round(Outbox& out) {
  const auto d = static_cast<std::size_t>(table_->dimension());
  // Adopt the candidate of the freshest state, lowest sender id first.
  const Message* winner = nullptr;
  sim::NodeId winner_from = sim::kNoNode;
  accepted([&](const sim::Envelope<Message>& envelope) {
    const Message& msg = envelope.payload;
    if (msg.kind != MsgKind::kCandidate ||
        msg.contents().state.blocks.size() != d) {
      return;
    }
    const std::int32_t seq = msg.body->state.seq;
    const bool better =
        winner == nullptr || seq > winner->body->state.seq ||
        (seq == winner->body->state.seq && envelope.from < winner_from);
    if (better) {
      winner = &msg;
      winner_from = envelope.from;
    }
  });
  if (winner == nullptr) return;  // group silent this step

  const std::int32_t adopted = winner->body->state.seq;
  if (replica_->state.seq < adopted && replica_->state.seq != adopted - 1) {
    ++metrics_.resyncs;
  }
  replica_ = winner->body;

  // Forward the supernode's outgoing messages to every member of each target
  // group, and rebroadcast the adopted state to our own group.
  for (const SuperMsg& super : replica_->outbox) {
    if (super.dest >= table_->supernodes()) continue;
    Message msg;
    msg.kind = MsgKind::kSuper;
    msg.super = super;
    emit(out, table_->group(super.dest), std::move(msg));
  }
  Message broadcast;
  broadcast.kind = MsgKind::kStateBroadcast;
  broadcast.supernode = supernode_;
  broadcast.body = replica_;
  emit(out, table_->group(supernode_), std::move(broadcast));
}

// --- reorganization (Lemma 15) ----------------------------------------------

void NodeProtocol::reorg_round_a(Outbox& out) {
  // The i-th member (by id) of R(x) goes to the i-th sampled supernode; the
  // old group of that supernode learns the assignment.
  const SamplerState& state = replica_->state;
  if (state.seq != primitive_rounds_) return;
  const auto& samples = state.blocks.front();  // M_1
  const auto& members = table_->group(supernode_);
  if (samples.size() < members.size()) {
    ++metrics_.sample_shortages;
    return;
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    Message msg;
    msg.kind = MsgKind::kAssign;
    msg.assigned = members[i];
    msg.supernode = samples[i];
    emit(out, table_->group(samples[i]), std::move(msg));
  }
}

void NodeProtocol::reorg_round_b(Outbox& out) {
  // Collect R'(supernode_) and gossip it to its members and to the
  // neighboring old groups.
  auto fresh = std::make_shared<Body>();
  accepted([&](const sim::Envelope<Message>& envelope) {
    const Message& msg = envelope.payload;
    if (msg.kind == MsgKind::kAssign && msg.supernode == supernode_) {
      fresh->group.push_back(msg.assigned);
    }
  });
  auto& group = fresh->group;
  std::sort(group.begin(), group.end());
  group.erase(std::unique(group.begin(), group.end()), group.end());
  fresh_group_ = std::move(fresh);

  Message msg;
  msg.kind = MsgKind::kNewGroup;
  msg.supernode = supernode_;
  msg.body = fresh_group_;
  emit(out, fresh_group_->group, msg);
  for (int bit = 0; bit < table_->dimension(); ++bit) {
    const std::uint64_t y = supernode_ ^ (std::uint64_t{1} << bit);
    emit(out, table_->group(y), msg);
  }
}

void NodeProtocol::reorg_round_c(Outbox& out) {
  accepted([&](const sim::Envelope<Message>& envelope) {
    const Message& msg = envelope.payload;
    if (msg.kind != MsgKind::kNewGroup) return;
    // New-member role: this is my new group iff it lists me.
    const auto& group = msg.contents().group;
    if (std::binary_search(group.begin(), group.end(), self_)) {
      view_.own = msg.body;
      view_.own_supernode = msg.supernode;
    }
    // Old-member role: forward neighbor groups to my supernode's new members.
    if (msg.supernode != supernode_ && fresh_group_ != nullptr) {
      Message forward;
      forward.kind = MsgKind::kNeighborGroup;
      forward.supernode = msg.supernode;
      forward.body = msg.body;
      emit(out, fresh_group_->group, std::move(forward));
    }
  });
}

void NodeProtocol::reorg_round_d() {
  accepted([&](const sim::Envelope<Message>& envelope) {
    const Message& msg = envelope.payload;
    if (msg.kind == MsgKind::kNeighborGroup) {
      view_.neighbors[msg.supernode] = msg.body;
    }
  });
}

// --- table all-gather, vote, commit -----------------------------------------

void NodeProtocol::merge_table(std::span<const TableEntry> fragment) {
  for (const TableEntry& entry : fragment) {
    auto [it, inserted] = gathered_.try_emplace(entry.supernode,
                                                entry.members);
    if (!inserted && it->second != entry.members) gather_conflict_ = true;
  }
}

bool NodeProtocol::table_complete() const {
  if (gather_conflict_ || gathered_.size() != table_->supernodes()) {
    return false;
  }
  std::set<sim::NodeId> seen;
  for (const auto& [x, members] : gathered_) {
    if (x >= table_->supernodes() || members.empty()) return false;
    for (const sim::NodeId id : members) {
      if (!seen.insert(id).second) return false;
    }
  }
  return seen.size() == table_->size();
}

void NodeProtocol::allgather_round(int dim, Outbox& out) {
  accepted([&](const sim::Envelope<Message>& envelope) {
    if (envelope.payload.kind == MsgKind::kTableFrag) {
      merge_table(envelope.payload.contents().table);
    }
  });
  if (dim == 0 && fresh_group_ != nullptr) {
    const TableEntry own{supernode_, fresh_group_->group};
    merge_table({&own, 1});
  }
  if (gathered_.empty()) return;

  auto fragment = std::make_shared<Body>();
  fragment->table.reserve(gathered_.size());
  for (const auto& [x, members] : gathered_) {
    fragment->table.push_back(TableEntry{x, members});
  }
  Message msg;
  msg.kind = MsgKind::kTableFrag;
  msg.supernode = supernode_;
  msg.body = std::move(fragment);
  const std::uint64_t partner =
      supernode_ ^ (std::uint64_t{1} << static_cast<unsigned>(dim));
  emit(out, table_->group(partner), std::move(msg));
}

void NodeProtocol::vote_round(Outbox& out) {
  accepted([&](const sim::Envelope<Message>& envelope) {
    if (envelope.payload.kind == MsgKind::kTableFrag) {
      merge_table(envelope.payload.contents().table);
    }
  });
  vote_complete_ = !doomed_ && table_complete();

  Message msg;
  msg.kind = MsgKind::kCommitVote;
  msg.supernode = supernode_;
  msg.complete = vote_complete_;
  emit(out, table_->group(supernode_), std::move(msg));
}

void NodeProtocol::commit_round(sim::Round round) {
  accepted([&](const sim::Envelope<Message>& envelope) {
    const Message& msg = envelope.payload;
    if (msg.kind == MsgKind::kCommitVote && !msg.complete) veto_seen_ = true;
  });
  const bool commit = vote_complete_ && !veto_seen_;
  if (commit) {
    std::vector<std::vector<sim::NodeId>> groups;
    groups.reserve(gathered_.size());
    for (const auto& [x, members] : gathered_) groups.push_back(members);
    table_ = std::make_shared<const dos::GroupTable>(table_->dimension(),
                                                     std::move(groups));
    // Lemma 15 view check: we learned our own new group and all d of its
    // neighbor groups through rounds C/D (not just through the all-gather).
    bool knowledge = view_.own != nullptr;
    for (int bit = 0; knowledge && bit < table_->dimension(); ++bit) {
      const std::uint64_t y =
          view_.own_supernode ^ (std::uint64_t{1} << bit);
      knowledge = view_.neighbors.count(y) > 0;
    }
    if (knowledge) ++metrics_.knowledge_epochs;
  }
  advance_epoch(commit, round + 1);
}

void NodeProtocol::advance_epoch(bool committed, sim::Round next_start) {
  if (committed) {
    ++metrics_.epochs_completed;
    ++epoch_;
    attempt_ = 0;
  } else {
    ++metrics_.fallbacks;
    if (doomed_) ++metrics_.doomed_attempts;
    ++attempt_;
    if (attempt_ >= config_.max_attempts) {
      ++metrics_.epochs_failed;
      ++epoch_;
      attempt_ = 0;
    }
  }
  if (epoch_ >= config_.epochs) {
    if (config_.dht_smoke) {
      mode_ = Mode::kSmoke;
      smoke_start_ = next_start;
    } else {
      mode_ = Mode::kDone;
      metrics_.finished = true;
    }
    return;
  }
  begin_attempt(next_start);
}

void NodeProtocol::check_doomed(std::span<const sim::NodeId> dead) {
  if (doomed_ || dead.empty()) return;
  for (std::uint64_t x = 0; x < table_->supernodes(); ++x) {
    bool alive = false;
    for (const sim::NodeId id : table_->group(x)) {
      if (!std::binary_search(dead.begin(), dead.end(), id)) {
        alive = true;
        break;
      }
    }
    if (!alive) {
      doomed_ = true;
      return;
    }
  }
}

// --- DHT smoke phase --------------------------------------------------------

void NodeProtocol::smoke_round(sim::Round round, Outbox& out) {
  const dos::GroupTable& table = *table_;
  const int d = table.dimension();
  const std::int64_t r = round - smoke_start_;
  const std::uint64_t cur = table.supernode_of(self_);
  if (r <= 0) {
    // Every node looks up its own id as the key.
    const std::uint64_t home = apps::RobustStore::hypercube_home(self_, d);
    if (cur == home) {
      metrics_.lookup_ok = true;
      return;
    }
    Message msg;
    msg.kind = MsgKind::kLookup;
    msg.key = self_;
    msg.origin = self_;
    msg.supernode = home;
    emit(out, table.group(next_hop(cur, home)), std::move(msg));
    return;
  }
  accepted([&](const sim::Envelope<Message>& envelope) {
    const Message& msg = envelope.payload;
    if (msg.kind == MsgKind::kLookup) {
      if (msg.supernode >= table.supernodes()) return;
      if (!lookups_seen_.insert(msg.origin).second) return;
      if (cur == msg.supernode) {
        Message reply;
        reply.kind = MsgKind::kLookupReply;
        reply.key = msg.key;
        reply.origin = msg.origin;
        emit(out, {&msg.origin, 1}, std::move(reply));
      } else {
        emit(out, table.group(next_hop(cur, msg.supernode)), msg);
      }
    } else if (msg.kind == MsgKind::kLookupReply && msg.origin == self_) {
      metrics_.lookup_ok = true;
    }
  });
  // Worst case: d forwarding hops plus the reply hop, all in by r = d + 1.
  if (r >= d + 1) {
    mode_ = Mode::kDone;
    metrics_.finished = true;
  }
}

// --- sampler state ----------------------------------------------------------

BodyPtr NodeProtocol::advance(const SamplerState& prev,
                              std::span<const SuperMsg> incoming) {
  // Odd seq = request phase (accept last responses, emit this iteration's
  // requests); even seq = response phase (serve requests, discard consumed
  // blocks). seq 2I+1 only accepts the final responses. Replicas that
  // advance the same state with the same stream draw identically.
  Core core(table_->dimension(), supernode_, schedule_);
  core.restore_blocks(prev.blocks);
  auto next = std::make_shared<Body>();
  const std::int32_t seq = prev.seq + 1;
  std::uint32_t index = 0;
  if (seq % 2 == 1) {
    for (const SuperMsg& msg : incoming) {
      if (!msg.is_request) core.accept({msg.vertex, msg.j, msg.ok}, rng_);
    }
    const int iteration = (seq + 1) / 2;
    if (iteration <= schedule_.iterations) {
      for (const auto& [dest, request] :
           core.make_requests(iteration, rng_)) {
        next->outbox.push_back({.src = supernode_,
                                .dest = dest,
                                .vertex = request.requester,
                                .seq = seq,
                                .index = index++,
                                .j = request.j,
                                .is_request = true});
      }
    }
  } else {
    const int iteration = seq / 2;
    for (const SuperMsg& msg : incoming) {
      if (!msg.is_request) continue;
      const auto response = core.serve({msg.vertex, msg.j}, iteration, rng_);
      next->outbox.push_back({.src = supernode_,
                              .dest = msg.vertex,
                              .vertex = response.vertex,
                              .seq = seq,
                              .index = index++,
                              .j = response.j,
                              .ok = response.ok});
    }
    core.discard_consumed(iteration);
  }
  next->state.seq = seq;
  next->state.blocks = core.release_blocks();
  return next;
}

// --- framing helpers --------------------------------------------------------

void NodeProtocol::emit(Outbox& out, std::span<const sim::NodeId> to,
                        Message msg) {
  msg.round = current_round_;
  msg.epoch = epoch_;
  msg.attempt = attempt_;
  metrics_.frames_sent += to.size();
  metrics_.bits_sent += to.size() * 8ull * encoded_bytes(msg);
  for (const sim::NodeId dest : to) out.emplace_back(dest, msg);
}

bool NodeProtocol::current_tag(const Message& msg) const {
  return msg.epoch == epoch_ && msg.attempt == attempt_;
}

std::vector<sim::NodeId> NodeProtocol::peers() const {
  // Every node in the table, not just the routing neighborhood: the bus is
  // globally synchronous, so the live pacer must hear from EVERY live node
  // before it may leave a round. Tracking only group+neighbors lets the
  // pacer advance while a cross-neighborhood frame (all-gather table, reorg
  // assignment into a fresh group, forwarded supernode traffic) is still in
  // flight — the frame then lands one round late and is dropped, silently
  // diverging from the in-process reference.
  std::vector<sim::NodeId> out;
  out.reserve(table_->size());
  for (std::uint64_t x = 0; x < table_->supernodes(); ++x) {
    for (const sim::NodeId id : table_->group(x)) {
      if (id != self_) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace reconfnet::transport
