#include "src/dsm/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
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
  outboxes_.resize(static_cast<size_t>(params_.shards));
  record_seq_.assign(static_cast<size_t>(params_.node_count), 0);
  engines_ = std::make_unique<ShardedEngine>(params_.shards, params_.node_count,
                                             params_.nodes_per_io_group, params_.scheduler);
  for (int s = 0; s < params_.shards; ++s) {
    // Shard queues drain many times per window while work legitimately waits
    // on outboxed messages or pending mutations; the real stall check runs
    // once, at the final drain of Cluster::Run/RunFor.
    engines_->shard(s).set_defer_stall_checks(true);
  }
  Engine& root = engine();

  network_ = std::make_unique<Network>(Topology::ForNodeCount(params_.node_count), params_.mesh,
                                       stats_, trace_sink_);
  sts_ = std::make_unique<Transport>(*engines_, outboxes_, "sts", StsCosts(), stats_, trace_sink_);
  sts_ctl_ = std::make_unique<Transport>(*engines_, outboxes_, "sts_ctl", StsCtlCosts(), stats_,
                                         trace_sink_);
  norma_ = std::make_unique<Transport>(*engines_, outboxes_, "norma", NormaIpcCosts(), stats_,
                                       trace_sink_);
  if (!params_.fault.Empty()) {
    fault_plan_ = std::make_unique<FaultPlan>(root, params_.fault, params_.node_count, stats_);
    network_->set_fault_plan(fault_plan_.get());
    sts_->set_fault_plan(fault_plan_.get());
    sts_ctl_->set_fault_plan(fault_plan_.get());
    norma_->set_fault_plan(fault_plan_.get());
  }

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
  // Cluster mutations ride the same conservative bound as cross-shard
  // messages: enqueued at t, applied at t + lookahead, when every engine is
  // provably quiescent at the apply time.
  mutator_ = std::make_unique<ClusterMutator>(*engines_, lookahead_, stats_);

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
  // event queue drains are blocked forever (nothing outside the queue can
  // resume them). Inert unless a stall handler is installed on the engine.
  // Registered on the root engine; it only fires from ForceStallCheck at the
  // final global drain, when every shard is quiescent.
  root.AddStallProbe([this](std::string& report) {
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
  if (!mutator_->Idle() || !pending_.empty()) {
    return false;
  }
  for (const auto& outbox : outboxes_) {
    if (!outbox.empty()) {
      return false;
    }
  }
  return engines_->AllEmpty();
}

void Cluster::CollectOutbox(std::vector<MeshRecord>& outbox) {
  for (MeshRecord& r : outbox) {
    PendingRecord pr;
    pr.send_time = r.send_time;
    // One shard thread emits a node's records in that node's causal order,
    // so a per-node counter assigned in drain order reproduces it.
    pr.seq = ++record_seq_[r.src];
    pr.record = std::move(r);
    pending_.push(std::move(pr));
  }
  outbox.clear();
}

void Cluster::SyncClocks(SimTime time) {
  for (int s = 0; s < params_.shards; ++s) {
    engines_->shard(s).AdvanceTo(time);
  }
}

SimTime Cluster::ProcessPending() {
  // Replays every record whose send time is safely below the conservative
  // horizon N0 + min_send_sw_: any event still pending on any shard fires at
  // or after N0, so any record it might yet emit stamps send_time >= that
  // horizon — nothing can slot in front of the records replayed here, and the
  // fabric's endpoint busy channels update in exactly the canonical
  // (send_time, src, seq) order. Injected deliveries can become the new
  // earliest event, so the horizon is re-tightened as records land.
  SimTime n0 = engines_->MinNextTime();
  while (!pending_.empty()) {
    if (n0 != ShardedEngine::kNoEvent &&
        pending_.top().send_time >= SatAdd(n0, min_send_sw_)) {
      break;
    }
    PendingRecord rec = std::move(const_cast<PendingRecord&>(pending_.top()));
    pending_.pop();
    records_replayed_.Add(stats_, "sim.sharded.records_replayed");
    const SimTime rx_done = network_->ProcessRecord(rec.record);
    if (rx_done >= 0) {
      engine_for(rec.record.dst).ScheduleAt(rx_done, std::move(rec.record.deliver));
      n0 = std::min(n0, rx_done);
    }
  }
  return n0;
}

bool Cluster::DrainSharded(SimTime until) {
  for (;;) {
    CollectOutboxes();
    mutator_->Collect();
    const SimTime n0 = ProcessPending();
    const SimTime m = mutator_->NextApplyTime();
    if (n0 == ShardedEngine::kNoEvent && m == ClusterMutator::kNever) {
      // ProcessPending replays everything once all queues are empty.
      ASVM_CHECK_MSG(pending_.empty(), "drained with records still pending");
      // A drained engine's clock stops at its own last event, so the shard
      // clocks have diverged. The single-threaded timeline this run must
      // reproduce has ONE clock: re-synchronize every shard to the global
      // last-event time, so work the driver issues next starts from the same
      // instant on every node (otherwise a lagging shard could send a message
      // whose arrival lands in a faster shard's past).
      SyncClocks(engines_->MaxNow());
      engines_->shard(0).ForceStallCheck();
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
      // m (windows are capped at m - 1 below) and no un-replayed record can
      // deliver before n0 + min_send_sw > m, so advancing all clocks to m is
      // safe. Mutations at m apply before any engine event at m.
      SyncClocks(m);
      mutator_->ApplyAt(m);
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
