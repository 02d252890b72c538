#include "src/machvm/node_vm.h"

#include <utility>

#include "src/common/log.h"
#include "src/machvm/default_pager.h"

namespace asvm {

NodeVm::NodeVm(Engine& engine, NodeId node, VmParams params, StatsRegistry& stats)
    : engine_(engine), node_(node), params_(params), stats_(stats) {}

NodeVm::~NodeVm() {
  // Shadow/copy links form intentional shared_ptr cycles (source.copy_ and
  // copy.shadow_ reference each other); break them so teardown reclaims all
  // objects.
  for (auto& object : owned_objects_) {
    object->set_shadow(nullptr);
    object->set_copy(nullptr);
  }
}

std::shared_ptr<VmObject> NodeVm::CreateObject(VmSize page_count, CopyStrategy strategy) {
  auto object = std::make_shared<VmObject>(*this, next_serial_++, page_count, strategy);
  owned_objects_.push_back(object);
  return object;
}

void NodeVm::RegisterManaged(const std::shared_ptr<VmObject>& object, const MemObjectId& id,
                             Pager* pager) {
  ASVM_CHECK(object != nullptr && pager != nullptr && id.valid());
  object->SetManager(id, pager);
  managed_[id] = object;
}

std::shared_ptr<VmObject> NodeVm::FindManaged(const MemObjectId& id) const {
  auto it = managed_.find(id);
  if (it == managed_.end()) {
    return nullptr;
  }
  return it->second.lock();
}

VmMap* NodeVm::CreateMap() {
  maps_.push_back(std::make_unique<VmMap>(params_.page_size));
  return maps_.back().get();
}

VmMap* NodeVm::ForkMap(VmMap& parent) {
  VmMap* child = CreateMap();
  for (auto& [start, entry] : parent.entries()) {
    switch (entry.inheritance) {
      case Inheritance::kNone:
        break;
      case Inheritance::kShare: {
        Status s = child->Map(entry.start_page, entry.page_count, entry.object,
                              entry.object_offset, entry.inheritance);
        ASVM_CHECK(IsOk(s));
        break;
      }
      case Inheritance::kCopy: {
        if (entry.object->copy_strategy() == CopyStrategy::kSymmetric &&
            !entry.object->managed()) {
          // Symmetric: both sides keep the (now frozen) object and shadow it
          // lazily on first write.
          Status s = child->Map(entry.start_page, entry.page_count, entry.object,
                                entry.object_offset, entry.inheritance);
          ASVM_CHECK(IsOk(s));
          entry.needs_copy = true;
          child->LookupPage(entry.start_page)->needs_copy = true;
        } else {
          // Asymmetric: explicit copy object with push/pull links — required
          // whenever source modifications must keep reaching the pager.
          auto copy = CreateAsymmetricCopy(entry.object);
          Status s = child->Map(entry.start_page, entry.page_count, std::move(copy),
                                entry.object_offset, entry.inheritance);
          ASVM_CHECK(IsOk(s));
        }
        break;
      }
    }
  }
  stats_.Add("vm.forks");
  return child;
}

std::shared_ptr<VmObject> NodeVm::CreateAsymmetricCopy(const std::shared_ptr<VmObject>& source) {
  auto copy = CreateObject(source->page_count(), CopyStrategy::kSymmetric);
  copy->set_shadow(source);
  // New copies enter the copy chain immediately after their source (§2.2):
  // the older copy now reads through the fresh one, whose contents at this
  // instant are identical.
  std::shared_ptr<VmObject> older = source->copy();
  if (older != nullptr) {
    older->set_shadow(copy);
  }
  source->set_copy(copy);
  stats_.Add("vm.asymmetric_copies");
  return copy;
}

// --- Fault path --------------------------------------------------------------

NodeVm::Classified NodeVm::Classify(VmMap& map, VmOffset addr, PageAccess desired) {
  Classified c;
  VmMap::Resolution res = map.Resolve(addr);
  if (res.entry == nullptr) {
    c.kind = Classified::Kind::kUnmapped;
    return c;
  }
  c.entry = res.entry;
  c.page = res.object_page;
  c.top = res.entry->object.get();
  if (c.page < 0 || static_cast<VmSize>(c.page) >= c.top->page_count()) {
    c.kind = Classified::Kind::kUnmapped;
    return c;
  }

  // Symmetric copy-on-write: the first write through a needs_copy entry
  // interposes a fresh shadow object (paper Figure 2).
  if (desired == PageAccess::kWrite && res.entry->needs_copy) {
    c.kind = Classified::Kind::kCreateShadow;
    return c;
  }

  // Walk the shadow chain looking for the page. The walk stops at the first
  // managed object that lacks the page: its memory manager is the authority
  // beyond this point (paper §3.7.3).
  VmObject* obj = c.top;
  while (true) {
    VmPage* vp = obj->FindResident(c.page);
    if (vp != nullptr) {
      c.found = vp;
      c.found_in = obj;
      break;
    }
    if (obj->managed()) {
      c.target = obj;
      if (obj->OutstandingRequest(c.page) != PageAccess::kNone) {
        c.kind = Classified::Kind::kWaitPager;
      } else {
        c.kind = Classified::Kind::kNeedRequest;
        c.request_access = obj == c.top ? desired : PageAccess::kRead;
      }
      return c;
    }
    if (default_pager_ != nullptr && default_pager_->HasPage(obj->serial(), c.page)) {
      c.target = obj;
      // A concurrent faulter may already have the page-in under way.
      c.kind = obj->OutstandingRequest(c.page) != PageAccess::kNone
                   ? Classified::Kind::kWaitPager
                   : Classified::Kind::kNeedPagingSpace;
      return c;
    }
    if (obj->shadow() != nullptr) {
      obj = obj->shadow().get();
      continue;
    }
    c.target = c.top;
    c.kind = Classified::Kind::kZeroFill;
    return c;
  }

  if (desired == PageAccess::kRead) {
    // Reads are satisfied directly from wherever the page was found; pages
    // found through a shadow link are NOT copied (delayed-copy property).
    c.kind = Classified::Kind::kResolved;
    return c;
  }

  // Write access.
  if (c.found_in != c.top) {
    c.target = c.top;
    c.kind = Classified::Kind::kCowCopy;
    return c;
  }
  if (!AccessAllows(c.found->lock, PageAccess::kWrite)) {
    ASVM_CHECK_MSG(c.top->managed(), "write-locked page in unmanaged object");
    c.target = c.top;
    if (c.top->OutstandingRequest(c.page) != PageAccess::kNone) {
      c.kind = Classified::Kind::kWaitPager;
    } else {
      c.kind = Classified::Kind::kNeedUnlock;
    }
    return c;
  }
  if (c.top->copy() != nullptr && !CopyHasPage(*c.top->copy(), c.page)) {
    ASVM_CHECK_MSG(!c.top->copy()->managed() || c.top->managed(),
                   "unmanaged source with managed copy");
    if (!c.top->managed()) {
      c.target = c.top;
      c.kind = Classified::Kind::kNeedLocalPush;
      return c;
    }
    // Managed sources coordinate pushes through their manager: after any copy
    // creation the manager read-locks resident pages, so a write fault always
    // funnels through kNeedUnlock above. Reaching here means the manager has
    // already granted write for this epoch.
  }
  c.kind = Classified::Kind::kResolved;
  return c;
}

bool NodeVm::CopyHasPage(VmObject& copy, PageIndex page) const {
  if (copy.FindResident(page) != nullptr) {
    return true;
  }
  return default_pager_ != nullptr && default_pager_->HasPage(copy.serial(), page);
}

bool NodeVm::PushToLocalCopy(VmObject& source, PageIndex page, VmPage& from) {
  VmObject* copy = source.copy().get();
  if (copy == nullptr || CopyHasPage(*copy, page)) {
    return false;
  }
  // Pushed pages exist nowhere else from the copy's point of view: dirty.
  InstallPage(*copy, page, from.Share(), PageAccess::kWrite, /*dirty=*/true);
  counters_.local_pushes.Add(stats_, "vm.local_pushes");
  return true;
}

Future<Status> NodeVm::Fault(VmMap& map, VmOffset addr, PageAccess desired) {
  Promise<Status> done(engine_);
  (void)FaultTask(map, addr, desired, done);
  return done.GetFuture();
}

Task NodeVm::FaultTask(VmMap& map, VmOffset addr, PageAccess desired, Promise<Status> done) {
  counters_.faults.Add(stats_, "vm.faults");
  if (desired == PageAccess::kWrite) {
    counters_.faults_write.Add(stats_, "vm.faults_write");
  } else {
    counters_.faults_read.Add(stats_, "vm.faults_read");
  }
  const uint64_t fault_serial = next_fault_serial_++;
  faults_in_flight_.emplace(fault_serial, InFlightFault{addr, desired, engine_.Now()});
  // Coroutine frames are destroyed at final suspend, so this guard's
  // destructor deregisters the fault on every exit path — including a frame
  // that never completes only if the whole NodeVm dies with it.
  struct Tracker {
    NodeVm* vm;
    uint64_t serial;
    ~Tracker() { vm->faults_in_flight_.erase(serial); }
  } tracker{this, fault_serial};
  co_await Delay(engine_, params_.costs.fault_base_ns);

  for (int iteration = 0;; ++iteration) {
    ASVM_CHECK_MSG(iteration < 1000, "fault failed to converge");
    Classified c = Classify(map, addr, desired);
    switch (c.kind) {
      case Classified::Kind::kResolved: {
        if (desired == PageAccess::kWrite) {
          c.found->dirty = true;
        }
        done.Set(Status::kOk);
        co_return;
      }
      case Classified::Kind::kUnmapped: {
        done.Set(Status::kInvalidArgument);
        co_return;
      }
      case Classified::Kind::kCreateShadow: {
        auto shadow_holder = c.entry->object;
        auto fresh = CreateObject(shadow_holder->page_count(), CopyStrategy::kSymmetric);
        fresh->set_shadow(shadow_holder);
        c.entry->object = std::move(fresh);
        c.entry->needs_copy = false;
        counters_.shadow_objects.Add(stats_, "vm.shadow_objects");
        co_await Delay(engine_, params_.costs.map_op_ns);
        continue;
      }
      case Classified::Kind::kWaitPager: {
        Promise<Status> wake(engine_);
        c.target->AddWaiter(c.page, wake);
        Status s = co_await wake.GetFuture();
        if (!IsOk(s)) {
          done.Set(s);
          co_return;
        }
        continue;
      }
      case Classified::Kind::kNeedRequest: {
        c.target->SetOutstandingRequest(c.page, c.request_access);
        Promise<Status> wake(engine_);
        c.target->AddWaiter(c.page, wake);
        co_await Delay(engine_, params_.costs.pager_call_ns);
        c.target->pager()->DataRequest(*c.target, c.page, c.request_access);
        Status s = co_await wake.GetFuture();
        if (!IsOk(s)) {
          done.Set(s);
          co_return;
        }
        continue;
      }
      case Classified::Kind::kNeedUnlock: {
        c.target->SetOutstandingRequest(c.page, PageAccess::kWrite);
        Promise<Status> wake(engine_);
        c.target->AddWaiter(c.page, wake);
        co_await Delay(engine_, params_.costs.pager_call_ns);
        c.target->pager()->DataUnlock(*c.target, c.page, PageAccess::kWrite);
        Status s = co_await wake.GetFuture();
        if (!IsOk(s)) {
          done.Set(s);
          co_return;
        }
        continue;
      }
      case Classified::Kind::kNeedPagingSpace: {
        // Mark the request outstanding so concurrent faulters park instead of
        // issuing duplicate disk reads.
        c.target->SetOutstandingRequest(c.page, PageAccess::kRead);
        Promise<PageBuffer> read_done(engine_);
        default_pager_->ReadPage(c.target->serial(), c.page,
                                 [read_done](PageBuffer data) { read_done.Set(std::move(data)); });
        PageBuffer data = co_await read_done.GetFuture();
        c.target->ClearOutstandingRequest(c.page);
        // Clean: paging space still holds a copy until the page is redirtied.
        InstallPage(*c.target, c.page, std::move(data), PageAccess::kWrite, /*dirty=*/false);
        c.target->WakeWaiters(c.page, Status::kOk);
        continue;
      }
      case Classified::Kind::kZeroFill: {
        co_await Delay(engine_, params_.costs.zero_fill_ns);
        InstallZeroPage(*c.target, c.page, PageAccess::kWrite,
                        /*dirty=*/desired == PageAccess::kWrite);
        counters_.zero_fills.Add(stats_, "vm.zero_fills");
        continue;
      }
      case Classified::Kind::kCowCopy: {
        // Pre-write contents must reach the copy chain before the write is
        // visible in the source (delayed-copy push rule). The top object takes
        // the same contents; the write that follows copies them.
        PageBuffer pre_write = c.found->Share();
        bool pushed = PushToLocalCopy(*c.target, c.page, *c.found);
        InstallPage(*c.target, c.page, std::move(pre_write), PageAccess::kWrite,
                    /*dirty=*/true);
        counters_.cow_copies.Add(stats_, "vm.cow_copies");
        co_await Delay(engine_, params_.costs.page_copy_ns * (pushed ? 2 : 1));
        continue;
      }
      case Classified::Kind::kNeedLocalPush: {
        VmPage* vp = c.target->FindResident(c.page);
        ASVM_CHECK(vp != nullptr);
        PushToLocalCopy(*c.target, c.page, *vp);
        co_await Delay(engine_, params_.costs.page_copy_ns);
        continue;
      }
    }
  }
}

const std::byte* NodeVm::TryRead(VmMap& map, VmOffset addr) {
  Classified c = Classify(map, addr, PageAccess::kRead);
  if (c.kind != Classified::Kind::kResolved) {
    return nullptr;
  }
  return c.found->contents().data() + (addr % params_.page_size);
}

std::byte* NodeVm::TryWrite(VmMap& map, VmOffset addr) {
  Classified c = Classify(map, addr, PageAccess::kWrite);
  if (c.kind != Classified::Kind::kResolved) {
    return nullptr;
  }
  c.found->dirty = true;
  return c.found->Writable() + (addr % params_.page_size);
}

// --- EMMI kernel side --------------------------------------------------------

void NodeVm::DataSupply(VmObject& object, PageIndex page, PageBuffer data, PageAccess lock,
                        SupplyMode mode, bool dirty) {
  ASVM_CHECK(data != nullptr);
  if (mode == SupplyMode::kPushToCopy) {
    // ASVM extension: deliver the page down the copy chain instead of into
    // the object itself (remote side of a push operation, §3.7.2).
    VmObject* copy = object.copy().get();
    ASVM_CHECK_MSG(copy != nullptr, "push supply on object without a copy");
    if (!CopyHasPage(*copy, page)) {
      InstallPage(*copy, page, std::move(data), PageAccess::kWrite, /*dirty=*/true);
      counters_.push_supplies.Add(stats_, "vm.push_supplies");
    }
    copy->WakeWaiters(page, Status::kOk);
    return;
  }
  InstallPage(object, page, std::move(data), lock, dirty);
  object.ClearOutstandingRequest(page);
  object.WakeWaiters(page, Status::kOk);
  counters_.data_supplies.Add(stats_, "vm.data_supplies");
}

void NodeVm::DataUnavailable(VmObject& object, PageIndex page, PageAccess lock) {
  InstallZeroPage(object, page, lock, /*dirty=*/false);
  object.ClearOutstandingRequest(page);
  object.WakeWaiters(page, Status::kOk);
  counters_.data_unavailable.Add(stats_, "vm.data_unavailable");
}

void NodeVm::LockGranted(VmObject& object, PageIndex page, PageAccess new_lock) {
  VmPage* vp = object.FindResident(page);
  ASVM_CHECK_MSG(vp != nullptr, "lock granted on non-resident page");
  vp->lock = new_lock;
  object.ClearOutstandingRequest(page);
  object.WakeWaiters(page, Status::kOk);
}

void NodeVm::FaultFailed(VmObject& object, PageIndex page, Status status) {
  object.ClearOutstandingRequest(page);
  object.WakeWaiters(page, status);
}

void NodeVm::LockRequest(VmObject& object, PageIndex page, PageAccess new_lock, LockMode mode,
                         std::function<void(LockResult)> completed) {
  VmPage* vp = object.FindResident(page);
  if (vp == nullptr) {
    engine_.Schedule(params_.costs.pager_call_ns,
                     [completed = std::move(completed)]() { completed(LockResult::kNotResident); });
    return;
  }
  SimDuration cost = params_.costs.pager_call_ns;
  if (mode == LockMode::kPushAndLock || mode == LockMode::kPushAndFlush) {
    if (PushToLocalCopy(object, page, *vp)) {
      cost += params_.costs.page_copy_ns;
    }
  }
  if (mode == LockMode::kFlush || mode == LockMode::kPushAndFlush) {
    RemovePage(object, page);
  } else {
    vp->lock = new_lock;
  }
  counters_.lock_requests.Add(stats_, "vm.lock_requests");
  engine_.Schedule(cost, [completed = std::move(completed)]() { completed(LockResult::kDone); });
}

void NodeVm::PullRequest(VmObject& object, PageIndex page,
                         std::function<void(PullResult)> completed) {
  counters_.pull_requests.Add(stats_, "vm.pull_requests");
  VmObject* cur = &object;
  while (cur != nullptr) {
    VmPage* vp = cur->FindResident(page);
    if (vp != nullptr) {
      PullResult r;
      r.kind = PullResult::Kind::kData;
      r.data = vp->Share();
      engine_.Schedule(params_.costs.pager_call_ns,
                       [completed = std::move(completed), r]() { completed(r); });
      return;
    }
    if (cur->managed() && cur != &object) {
      // The chain continues behind another memory manager: the caller must
      // forward the request to it (paper §3.7.3, result 3).
      PullResult r;
      r.kind = PullResult::Kind::kAskShadow;
      r.shadow_object = cur->id();
      engine_.Schedule(params_.costs.pager_call_ns,
                       [completed = std::move(completed), r]() { completed(r); });
      return;
    }
    if (default_pager_ != nullptr && default_pager_->HasPage(cur->serial(), page)) {
      default_pager_->ReadPage(cur->serial(), page,
                               [completed = std::move(completed)](PageBuffer data) {
                                 PullResult r;
                                 r.kind = PullResult::Kind::kData;
                                 r.data = std::move(data);
                                 completed(r);
                               });
      return;
    }
    cur = cur->shadow().get();
  }
  PullResult r;
  r.kind = PullResult::Kind::kZeroFill;
  engine_.Schedule(params_.costs.pager_call_ns,
                   [completed = std::move(completed), r]() { completed(r); });
}

NodeVm::Extracted NodeVm::ExtractPage(VmObject& object, PageIndex page) {
  Extracted result;
  VmPage* vp = object.FindResident(page);
  if (vp == nullptr) {
    return result;
  }
  result.was_resident = true;
  result.data = vp->Share();
  result.dirty = vp->dirty;
  RemovePage(object, page);
  return result;
}

// --- Physical memory ---------------------------------------------------------

VmPage& NodeVm::InstallPage(VmObject& object, PageIndex page, PageBuffer data, PageAccess lock,
                            bool dirty) {
  VmPage* existing = object.FindResident(page);
  if (existing == nullptr) {
    ASVM_CHECK_MSG(ReserveFrame(), "out of page frames and nothing evictable");
  }
  VmPage& vp = object.InsertPage(page, std::move(data), lock, dirty);
  vp.last_use = tick_++;
  evict_queue_.push_back(EvictRef{object.weak_from_this(), page, vp.last_use});
  return vp;
}

VmPage& NodeVm::InstallZeroPage(VmObject& object, PageIndex page, PageAccess lock,
                                bool dirty) {
  VmPage& vp = InstallPage(object, page, nullptr, lock, dirty);
  vp.HoldPrivately(std::make_shared<std::vector<std::byte>>(params_.page_size));
  return vp;
}

void NodeVm::RemovePage(VmObject& object, PageIndex page) {
  if (object.FindResident(page) == nullptr) {
    return;
  }
  object.DropPage(page);
  ReleaseFrame();
}

bool NodeVm::ReserveFrame() {
  while (frames_used_ >= params_.frame_capacity) {
    if (!IsOk(EvictOnePage())) {
      return false;
    }
  }
  ++frames_used_;
  return true;
}

void NodeVm::ReleaseFrame() {
  ASVM_CHECK(frames_used_ > 0);
  --frames_used_;
}

Status NodeVm::EvictOnePage() {
  // Bounded scan: wired pages rotate to the back; if everything resident is
  // wired (or stale) we report failure rather than spin.
  size_t budget = evict_queue_.size();
  while (budget-- > 0 && !evict_queue_.empty()) {
    EvictRef ref = std::move(evict_queue_.front());
    evict_queue_.pop_front();
    std::shared_ptr<VmObject> object = ref.object.lock();
    if (object == nullptr) {
      continue;
    }
    VmPage* vp = object->FindResident(ref.page);
    if (vp == nullptr || vp->last_use != ref.tick) {
      continue;  // stale entry: page already evicted or re-installed
    }
    if (vp->wire_count > 0) {
      evict_queue_.push_back(std::move(ref));
      continue;
    }

    PageBuffer data = vp->Share();
    const bool dirty = vp->dirty;
    counters_.pageouts.Add(stats_, "vm.pageouts");
    if (object->managed()) {
      EvictAction action = object->pager()->OnEvict(*object, ref.page, data, dirty);
      (void)action;  // the pager has taken care of the contents either way
      RemovePage(*object, ref.page);
      return Status::kOk;
    }
    if (dirty) {
      ASVM_CHECK_MSG(default_pager_ != nullptr, "dirty anonymous page with no default pager");
      default_pager_->WritePage(object->serial(), ref.page, data);
    }
    RemovePage(*object, ref.page);
    return Status::kOk;
  }
  return Status::kNotFound;
}

void NodeVm::WirePage(VmObject& object, PageIndex page) {
  VmPage* vp = object.FindResident(page);
  ASVM_CHECK_MSG(vp != nullptr, "wiring non-resident page");
  ++vp->wire_count;
}

void NodeVm::UnwirePage(VmObject& object, PageIndex page) {
  VmPage* vp = object.FindResident(page);
  ASVM_CHECK_MSG(vp != nullptr && vp->wire_count > 0, "unwiring page that is not wired");
  --vp->wire_count;
}

void NodeVm::OnObjectDestroyed(size_t resident_pages) {
  ASVM_CHECK(frames_used_ >= resident_pages);
  frames_used_ -= resident_pages;
}

}  // namespace asvm
