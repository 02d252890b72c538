// Backend skeleton shared by XMM and IVY (DESIGN.md §16): a directory of
// object records anchored at a home node, region creation, attach, remote
// fork through Mach-style internal copy pagers (src/dsm/copy_pager.h), and the
// resident-page purge of a cold restart. The backends differ in everything
// that happens on the fault path; this holds what they do alike.
//
// Agent is the backend's per-node agent. It befriends this class and
// provides vm_, reprs_ (the node's representation of each attached object),
// copy_pager_ and MetadataBytes(). The members are defined here and need
// Agent's definition: code that calls them on the concrete system includes
// the backend's agent header.
#ifndef SRC_DSM_DIRECTORY_SYSTEM_H_
#define SRC_DSM_DIRECTORY_SYSTEM_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/log.h"
#include "src/common/types.h"
#include "src/dsm/backing.h"
#include "src/dsm/cluster.h"
#include "src/dsm/dsm_system.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {

// Directory record of one object; page-level state lives in the agents.
struct DirectoryRecord {
  MemObjectId id;
  VmSize pages = 0;
  // Where the object is anchored and its backing store lives. XMM: the
  // centralized manager. IVY: every page's initial owner, and the fallback
  // when a probable-owner hint is cut.
  NodeId home = kInvalidNode;
  std::unique_ptr<ObjectBacking> backing;  // null for copy-pager objects
  bool file_backed = false;                // served by the file pager (own CPU model)
  // Copy-pager objects: where the internal pager (and the frozen local copy
  // of the source address space) lives.
  NodeId copy_pager_node = kInvalidNode;
  // Failover epoch: bumped on every XMM promotion or IVY reclaim of this
  // object, and carried by the trace so recovery timelines are auditable.
  uint64_t epoch = 0;
  bool IsCopyObject() const { return copy_pager_node != kInvalidNode; }
};

template <class Agent>
class DirectorySystem : public DsmSystem {
 public:
  MemObjectId CreateSharedRegion(NodeId home, VmSize pages) override {
    cluster_.AssertDriverQuiescent("CreateSharedRegion from inside a shard window");
    DirectoryRecord& rec = NewRecord(home, pages);
    rec.backing = std::make_unique<AnonBacking>(cluster_.engine_for(home),
                                                cluster_.default_pager(home), NextBackingKey());
    OnRegionCreated(rec);
    return rec.id;
  }

  MemObjectId CreateFileRegion(int32_t file_id, VmSize pages) override {
    cluster_.AssertDriverQuiescent("CreateFileRegion from inside a shard window");
    FilePager& pager = cluster_.file_pager();
    DirectoryRecord& rec = NewRecord(pager.node(), pages);
    rec.backing = std::make_unique<FileBacking>(pager, file_id);
    rec.file_backed = true;
    OnRegionCreated(rec);
    return rec.id;
  }

  // The stripes scale the disks, but the first stripe's pager node still
  // anchors the whole object: XMM keeps exactly one manager.
  MemObjectId CreateStripedRegion(const std::vector<StripedBacking::Stripe>& stripes,
                                  VmSize pages) override {
    cluster_.AssertDriverQuiescent("CreateStripedRegion from inside a shard window");
    ASVM_CHECK(!stripes.empty());
    DirectoryRecord& rec = NewRecord(stripes[0].pager->node(), pages);
    rec.backing = std::make_unique<StripedBacking>(stripes);
    rec.file_backed = true;
    OnRegionCreated(rec);
    return rec.id;
  }

  std::shared_ptr<VmObject> Attach(NodeId node, const MemObjectId& id) override {
    Agent& a = agent(node);
    auto it = a.reprs_.find(id);
    if (it != a.reprs_.end()) {
      return it->second;
    }
    auto repr = a.vm_.CreateObject(info(id).pages, CopyStrategy::kAsymmetric);
    a.vm_.RegisterManaged(repr, id, &a);
    a.reprs_[id] = repr;
    return repr;
  }

  Future<VmMap*> RemoteFork(NodeId src, VmMap& parent, NodeId dst) override {
    Promise<VmMap*> done(cluster_.engine_for(src));
    (void)RemoteForkTask(src, parent, dst, done);
    return done.GetFuture();
  }

  size_t MetadataBytes(NodeId node) const override { return agents_.at(node)->MetadataBytes(); }

  Cluster& cluster() override { return cluster_; }
  Agent& agent(NodeId node) { return *agents_.at(node); }

  DirectoryRecord& info(const MemObjectId& id) {
    auto it = directory_.find(id);
    ASVM_CHECK_MSG(it != directory_.end(), "unknown object");
    return *it->second;
  }
  MemObjectId NewObjectId(NodeId origin) { return MemObjectId{origin, next_seq_++}; }

 protected:
  // `backing_tag` is a high bit that keeps this backend's paging-space keys
  // disjoint from local VM object serials and from the other backends' keys.
  DirectorySystem(Cluster& cluster, uint64_t backing_tag)
      : cluster_(cluster), backing_tag_(backing_tag) {
    InitOpIds(cluster.node_count());
  }

  // Run by the derived constructor once its config is set (agents read it).
  template <class System>
  void CreateAgents(System& system) {
    agents_.reserve(cluster_.node_count());
    for (NodeId n = 0; n < cluster_.node_count(); ++n) {
      agents_.push_back(std::make_unique<Agent>(system, n));
    }
    AddAgentStallProbe();
  }

  // Hook run after a region's record is created.
  virtual void OnRegionCreated(const DirectoryRecord& rec) { (void)rec; }

  ProtocolAgent& protocol_agent(NodeId node) override { return agent(node); }

  uint64_t NextBackingKey() { return backing_tag_ | next_backing_key_++; }

  // Cold restart: every resident page of every local representation on
  // `node` died with it. Objects and pages go in sorted order, so the rebuild
  // is shard-count invariant.
  void PurgeResidentPages(NodeId node) {
    Agent& a = agent(node);
    for (const MemObjectId& id : SortedKeys(a.reprs_)) {
      VmObject& repr = *a.reprs_.at(id);
      for (PageIndex page : SortedKeys(repr.resident_pages())) {
        a.vm_.RemovePage(repr, page);
      }
    }
  }

  Cluster& cluster_;

 private:
  DirectoryRecord& NewRecord(NodeId home, VmSize pages) {
    const MemObjectId id = NewObjectId(home);
    std::unique_ptr<DirectoryRecord>& rec = directory_[id];
    rec = std::make_unique<DirectoryRecord>();
    rec->id = id;
    rec->pages = pages;
    rec->home = home;
    return *rec;
  }

  Task RemoteForkTask(NodeId src, VmMap& parent, NodeId dst, Promise<VmMap*> done) {
    Engine& engine = cluster_.engine_for(src);
    // Task creation ships the map description over NORMA.
    co_await Delay(engine, 800 * kMicrosecond);
    // The structural work mutates the directory and both nodes' VM state, so
    // it runs as one mutation at the next deterministic sequencing point
    // (every engine quiescent), one lookahead after this instant.
    Promise<VmMap*> built(engine);
    VmMap* parent_ptr = &parent;
    cluster_.Mutate(src, [this, src, parent_ptr, dst, built]() {
      built.Set(ApplyRemoteFork(src, *parent_ptr, dst));
    });
    done.Set(co_await built.GetFuture());
  }

  // The structural half of a fork: NMK13 leaves the work to the source
  // node's VM, which takes a local fork-style copy of the address space and
  // exports each copied range through an internal pager (§2.3.3).
  VmMap* ApplyRemoteFork(NodeId src, VmMap& parent, NodeId dst) {
    cluster_.stats().Add(std::string(name()) + ".remote_forks");
    VmMap* copy_map = cluster_.vm(src).ForkMap(parent);
    VmMap* child = cluster_.vm(dst).CreateMap();
    for (auto& [start, copy_entry] : copy_map->entries()) {
      if (copy_entry.inheritance == Inheritance::kNone) {
        continue;
      }
      std::shared_ptr<VmObject> repr;
      if (copy_entry.inheritance == Inheritance::kShare) {
        ASVM_CHECK_MSG(copy_entry.object->managed(),
                       "cannot share anonymous memory across nodes");
        repr = Attach(dst, copy_entry.object->id());
      } else {
        // One internal pager per copied memory object.
        DirectoryRecord& rec = NewRecord(src, copy_entry.object->page_count());
        rec.copy_pager_node = src;
        agent(src).copy_pager_.AddPager(rec.id, copy_map,
                                        copy_entry.start_page - copy_entry.object_offset);
        cluster_.stats().Add(std::string(name()) + ".internal_pagers");
        repr = Attach(dst, rec.id);
      }
      Status s = child->Map(copy_entry.start_page, copy_entry.page_count, repr,
                            copy_entry.object_offset, copy_entry.inheritance);
      ASVM_CHECK(IsOk(s));
    }
    return child;
  }

  std::vector<std::unique_ptr<Agent>> agents_;
  std::unordered_map<MemObjectId, std::unique_ptr<DirectoryRecord>> directory_;
  uint32_t next_seq_ = 1;
  // Per-system (not process-global) so that identical machines allocate
  // identical paging-space positions — traces must be byte-stable run to run.
  uint64_t next_backing_key_ = 0;
  uint64_t backing_tag_;
};

}  // namespace asvm

#endif  // SRC_DSM_DIRECTORY_SYSTEM_H_
