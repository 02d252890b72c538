#include "src/dsm/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "src/common/log.h"

namespace asvm {

namespace {

SimTime SatAdd(SimTime t, SimDuration d) {
  const SimTime limit = std::numeric_limits<SimTime>::max();
  return d > limit - t ? limit : t + d;
}

}  // namespace

Cluster::Cluster(ClusterParams params) : params_(params) {
  ASVM_CHECK_MSG(params_.shards >= 1, "cluster shards must be >= 1");
  // Shards partition the node space along I/O-group boundaries so a paging
  // disk and every node it serves live on one engine; more shards than blocks
  // cannot be used, so clamp rather than reject — the timeline is identical
  // at every shard count, making the request a pure performance preference.
  const int blocks = (params_.node_count + params_.nodes_per_io_group - 1) /
                     params_.nodes_per_io_group;
  params_.shards = std::min(params_.shards, blocks);
  engines_ = std::make_unique<ShardedEngine>(params_.shards, params_.node_count,
                                             params_.nodes_per_io_group, params_.scheduler);
  messages_ = std::make_unique<ShardMailbox<MeshRecord>>(*engines_);
  mutations_ = std::make_unique<ShardMailbox<EventFn>>(*engines_);
  Engine& root = engine();

  fault_plan_ = std::make_unique<FaultPlan>(root, params_.fault, params_.node_count, stats_);
  network_ = std::make_unique<Network>(Topology::ForNodeCount(params_.node_count), params_.mesh,
                                       *fault_plan_, stats_, trace_sink_);
  sts_ = std::make_unique<Transport>(*engines_, *messages_, "sts", StsCosts(), *fault_plan_,
                                     stats_, trace_sink_);
  sts_ctl_ = std::make_unique<Transport>(*engines_, *messages_, "sts_ctl", StsCtlCosts(),
                                         *fault_plan_, stats_, trace_sink_);
  norma_ = std::make_unique<Transport>(*engines_, *messages_, "norma", NormaIpcCosts(),
                                       *fault_plan_, stats_, trace_sink_);

  // Conservative lookahead: the cheapest causal chain from an event on one
  // node to an event on any other node is a software send on the cheapest
  // transport, route setup, and one mesh hop. Slow-node factors below 1 can
  // only shrink the software leg, so fold the smallest per-node factor in
  // (floor: never round the bound up).
  min_send_sw_ = std::min({sts_->costs().send_sw_ns, sts_ctl_->costs().send_sw_ns,
                           norma_->costs().send_sw_ns});
  if (!params_.fault.slow_nodes.empty()) {
    double min_factor = 1.0;
    for (NodeId n = 0; n < params_.node_count; ++n) {
      double f = 1.0;
      for (const NodeSlowdown& s : params_.fault.slow_nodes) {
        if (s.node == n) {
          f *= s.cost_factor;
        }
      }
      min_factor = std::min(min_factor, f);
    }
    if (min_factor < 1.0) {
      min_send_sw_ = static_cast<SimDuration>(
          std::floor(static_cast<double>(min_send_sw_) * min_factor));
    }
  }
  lookahead_ = min_send_sw_ + params_.mesh.route_setup_ns + params_.mesh.per_hop_ns;
  ASVM_CHECK_MSG(lookahead_ >= 1, "sharded lookahead collapsed to zero");

  const int groups = (params_.node_count + params_.nodes_per_io_group - 1) /
                     params_.nodes_per_io_group;
  for (int g = 0; g < groups; ++g) {
    const NodeId leader = g * params_.nodes_per_io_group;
    disks_.push_back(std::make_unique<Disk>(engine_for(leader), leader, params_.disk, stats_,
                                            trace_sink_));
  }
  // Dedicated spindles for the mapped file system, so file traffic and paging
  // traffic do not artificially serialize in single-group configurations.
  // Pager i runs on node i (striped configurations spread I/O nodes).
  const int pagers = std::max(1, std::min(params_.file_pager_count, params_.node_count));
  for (int i = 0; i < pagers; ++i) {
    Engine& pager_engine = engine_for(i);
    file_disks_.push_back(
        std::make_unique<Disk>(pager_engine, i, params_.disk, stats_, trace_sink_));
    file_pagers_.push_back(std::make_unique<FilePager>(
        pager_engine, /*io_node=*/i, file_disks_.back().get(), params_.file_pager, stats_));
  }

  nodes_.resize(params_.node_count);
  for (NodeId n = 0; n < params_.node_count; ++n) {
    Engine& node_engine = engine_for(n);
    nodes_[n].vm = std::make_unique<NodeVm>(node_engine, n, params_.vm, stats_);
    nodes_[n].default_pager = std::make_unique<DefaultPager>(node_engine, &paging_disk(n), stats_);
    nodes_[n].vm->SetDefaultPager(nodes_[n].default_pager.get());
  }

  // Stall-watchdog probe: page faults whose coroutine is still alive when the
  // machine drains are blocked forever (nothing outside the queues can resume
  // them). Inert unless a stall handler is installed.
  AddStallProbe([this](std::string& report) {
    bool blocked = false;
    for (const auto& node : nodes_) {
      const auto& faults = node.vm->faults_in_flight();
      if (faults.empty()) {
        continue;
      }
      blocked = true;
      for (const auto& [serial, fault] : faults) {
        report += "  node " + std::to_string(node.vm->node()) + ": page fault on addr " +
                  std::to_string(fault.addr) + " (" + ToString(fault.desired) +
                  ") in flight since t=" + std::to_string(fault.started) + " ns\n";
      }
    }
    return blocked;
  });
}

Cluster::~Cluster() = default;

void Cluster::EnablePerTypeMessageStats() {
  sts_->set_per_type_stats(true);
  sts_ctl_->set_per_type_stats(true);
  norma_->set_per_type_stats(true);
}

bool Cluster::Empty() const {
  return mutations_->Empty() && messages_->Empty() && engines_->AllEmpty();
}

int Cluster::AddStallProbe(StallProbe probe) {
  const int id = next_stall_probe_id_++;
  stall_probes_.emplace_back(id, std::move(probe));
  return id;
}

void Cluster::RemoveStallProbe(int id) {
  std::erase_if(stall_probes_, [id](const auto& entry) { return entry.first == id; });
}

void Cluster::CheckStall() {
  if (!stall_handler_) {
    return;
  }
  std::string report;
  bool blocked = false;
  for (auto& [id, probe] : stall_probes_) {
    blocked |= probe(report);
  }
  if (!blocked) {
    return;
  }
  ++stalls_detected_;
  stall_handler_("simulation stalled at t=" + std::to_string(Now()) +
                 " ns: event queue drained while work is still blocked\n" + report);
}

void Cluster::SyncClocks(SimTime time) {
  for (int s = 0; s < params_.shards; ++s) {
    engines_->shard(s).AdvanceTo(time);
  }
}

SimTime Cluster::ReplayMessages() {
  // Replays every message whose send time is safely below the conservative
  // horizon N0 + min_send_sw_: any event still pending on any shard fires at
  // or after N0, so any message it might yet send stamps send_time >= that
  // horizon — nothing can slot in front of the messages replayed here, and
  // the fabric's endpoint busy channels update in exactly the canonical
  // (send_time, src, seq) order. Injected deliveries can become the new
  // earliest event, so the horizon is re-tightened as messages land.
  // With no event pending the horizon saturates, and every message replays.
  SimTime n0 = engines_->MinNextTime();
  while (messages_->NextTime() < SatAdd(n0, min_send_sw_)) {
    ShardMailbox<MeshRecord>::Entry m = messages_->Pop();
    records_replayed_.Add(stats_, "sim.sharded.records_replayed");
    const SimTime rx_done = network_->Admit(m.time, m.src, m.value.dst, m.value.bytes);
    if (rx_done >= 0) {
      engine_for(m.value.dst).ScheduleAt(rx_done, std::move(m.value.deliver));
      n0 = std::min(n0, rx_done);
    }
  }
  return n0;
}

SimTime Cluster::NextMutationTime() const {
  return SatAdd(mutations_->NextTime(), lookahead_);
}

void Cluster::ApplyMutations(SimTime when) {
  ASVM_CHECK_MSG(NextMutationTime() >= when, "mutation missed its apply time");
  while (NextMutationTime() == when) {
    ShardMailbox<EventFn>::Entry m = mutations_->Pop();
    mutations_applied_.Add(stats_, "sim.mutations_applied");
    m.value();
  }
}

bool Cluster::DrainSharded(SimTime until) {
  for (;;) {
    messages_->Collect();
    mutations_->Collect();
    const SimTime n0 = ReplayMessages();
    const SimTime m = NextMutationTime();
    if (n0 == ShardedEngine::kNoEvent && m == ShardMailbox<EventFn>::kNever) {
      // ReplayMessages replays everything once all queues are empty.
      ASVM_CHECK_MSG(messages_->Empty(), "drained with messages still pending");
      // A drained engine's clock stops at its own last event, so the shard
      // clocks have diverged. The single-threaded timeline this run must
      // reproduce has ONE clock: re-synchronize every shard to the global
      // last-event time, so work the driver issues next starts from the same
      // instant on every node (otherwise a lagging shard could send a message
      // whose arrival lands in a faster shard's past).
      SyncClocks(engines_->MaxNow());
      CheckStall();
      return true;
    }
    if (std::min(n0, m) > until) {
      // Deadline exit: park every shard clock exactly at the deadline, where
      // Engine::RunUntil leaves a clock that still has events pending.
      SyncClocks(until);
      return false;
    }
    if (m <= n0) {
      // Mutation sequencing point: every engine is quiescent strictly before
      // m (windows are capped at m - 1 below) and no un-replayed message can
      // deliver before n0 + min_send_sw > m, so advancing all clocks to m is
      // safe. Mutations at m apply before any engine event at m.
      SyncClocks(m);
      ApplyMutations(m);
      continue;
    }
    // Events strictly below n0 + lookahead cannot be affected by any message
    // another shard has yet to send (those arrive at or after n0 + lookahead),
    // and everything already sent has been replayed — so the window up to and
    // including n0 + lookahead - 1 is causally closed. Pending mutations cap
    // the window at m - 1 so they apply on time.
    if (params_.shards > 1) {
      // Counts barrier hand-offs; a single shard runs its windows inline.
      windows_.Add(stats_, "sim.sharded.windows");
    }
    in_window_ = true;
    engines_->RunWindow(std::min({until, SatAdd(n0, lookahead_) - 1, m - 1}));
    in_window_ = false;
  }
}

uint64_t Cluster::Run() {
  const uint64_t start = engines_->TotalExecuted();
  DrainSharded(std::numeric_limits<SimTime>::max());
  return engines_->TotalExecuted() - start;
}

bool Cluster::RunFor(SimDuration d) {
  ASVM_CHECK_MSG(d >= 0, "negative RunFor duration");
  return DrainSharded(SatAdd(engines_->MaxNow(), d));
}

void Cluster::set_event_limit(uint64_t per_engine_limit) {
  engines_->set_event_limit(per_engine_limit);
}

}  // namespace asvm
