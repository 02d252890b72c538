#include "src/core/machine.h"

#include "src/common/log.h"

namespace asvm {

const char* ToString(DsmKind kind) {
  switch (kind) {
    case DsmKind::kAsvm:
      return "ASVM";
    case DsmKind::kXmm:
      return "XMM";
    case DsmKind::kIvy:
      return "IVY";
  }
  return "?";
}

ClusterParams MachineConfig::ToClusterParams() const {
  ClusterParams params;
  params.node_count = nodes;
  params.scheduler = scheduler;
  params.vm.page_size = page_size;
  params.vm.frame_capacity = user_memory_bytes / page_size;
  params.vm.costs = vm_costs;
  params.mesh = mesh;
  params.disk = disk;
  params.file_pager = file_pager;
  params.file_pager_count = file_pager_count;
  params.nodes_per_io_group = nodes_per_io_group;
  params.fault = fault;
  params.retry = retry;
  params.failover = failover;
  params.shards = shards;
  return params;
}

Machine::Machine(const MachineConfig& config) : config_(config) {
  cluster_ = std::make_unique<Cluster>(config.ToClusterParams());
  if (config.per_type_message_stats) {
    cluster_->EnablePerTypeMessageStats();
  }
  switch (config.dsm) {
    case DsmKind::kAsvm:
      dsm_ = std::make_unique<AsvmSystem>(*cluster_, config.asvm);
      break;
    case DsmKind::kXmm:
      dsm_ = std::make_unique<XmmSystem>(*cluster_, config.xmm);
      break;
    case DsmKind::kIvy:
      dsm_ = std::make_unique<IvySystem>(*cluster_, config.ivy);
      break;
  }
  if (config.failover.enabled) {
    for (const NodeRemoval& r : cluster_->fault_plan().params().removals) {
      if (r.restore_at == 0) {
        continue;
      }
      // One-shot rejoin wake on the node's own engine (removal only severs
      // the fabric; the engine keeps running), from where the cold restart
      // is posted as a mutation exactly like any other origin-side request.
      const NodeId node = r.node;
      cluster_->engine_for(node).Schedule(r.restore_at, [this, node]() {
        cluster_->Mutate(node, [this, node]() { dsm_->ColdRestart(node); });
      });
    }
  }
  if (config.stall_watchdog || !config.fault.Empty()) {
    cluster_->SetStallHandler([this](const std::string& report) {
      last_stall_report_ = report;
      cluster_->stats().Add("sim.stalls_detected");
      ASVM_LOG_ERROR << report;
    });
  }
}

Machine::~Machine() = default;

MemObjectId Machine::CreateMappedFile(const std::string& name, VmSize pages, bool prefilled) {
  int32_t file_id = cluster_->file_pager().CreateFile(name, pages, prefilled);
  return dsm_->CreateFileRegion(file_id, pages);
}

MemObjectId Machine::CreateStripedFile(const std::string& name, VmSize pages, int stripes,
                                       bool prefilled) {
  ASVM_CHECK_MSG(stripes >= 1 && stripes <= cluster_->file_pager_count(),
                 "not enough file pagers for the requested stripe count");
  std::vector<StripedBacking::Stripe> parts;
  const VmSize per_stripe = (pages + stripes - 1) / stripes;
  for (int i = 0; i < stripes; ++i) {
    FilePager& pager = cluster_->file_pager(i);
    parts.push_back({&pager, pager.CreateFile(name + ".s" + std::to_string(i), per_stripe,
                                              prefilled)});
  }
  return dsm_->CreateStripedRegion(parts, pages);
}

TaskMemory& Machine::MapRegion(NodeId node, const MemObjectId& id, VmOffset at_page) {
  auto repr = dsm_->Attach(node, id);
  NodeVm& vm = cluster_->vm(node);
  VmMap* map = vm.CreateMap();
  Status s = map->Map(at_page, repr->page_count(), repr, 0, Inheritance::kShare);
  ASVM_CHECK(IsOk(s));
  tasks_.push_back(std::make_unique<TaskMemory>(vm, *map));
  return *tasks_.back();
}

TaskMemory& Machine::CreatePrivateTask(NodeId node, VmSize pages) {
  NodeVm& vm = cluster_->vm(node);
  VmMap* map = vm.CreateMap();
  auto obj = vm.CreateObject(pages, CopyStrategy::kSymmetric);
  Status s = map->Map(0, pages, obj, 0, Inheritance::kCopy);
  ASVM_CHECK(IsOk(s));
  tasks_.push_back(std::make_unique<TaskMemory>(vm, *map));
  return *tasks_.back();
}

TaskMemory& Machine::WrapMap(NodeId node, VmMap* map) {
  ASVM_CHECK(map != nullptr);
  tasks_.push_back(std::make_unique<TaskMemory>(cluster_->vm(node), *map));
  return *tasks_.back();
}

}  // namespace asvm
