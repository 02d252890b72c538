#include "src/machvm/task_memory.h"

#include <cstring>

namespace asvm {

namespace {

// u64 accesses must not straddle a page boundary; workloads align data.
bool StraddlesPage(VmOffset addr, size_t width, size_t page_size) {
  return addr / page_size != (addr + width - 1) / page_size;
}

// True when the access can proceed without a fault (a write marks the page
// dirty, as the write that follows would).
bool Accessible(NodeVm& vm, VmMap& map, VmOffset addr, PageAccess desired) {
  return desired == PageAccess::kWrite ? vm.TryWrite(map, addr) != nullptr
                                       : vm.TryRead(map, addr) != nullptr;
}

}  // namespace

Future<Status> TaskMemory::Touch(VmOffset addr, VmSize len, PageAccess desired) {
  Promise<Status> done(vm_.engine());
  // Fast path: every page already accessible.
  const size_t ps = map_.page_size();
  bool all_ok = true;
  for (VmOffset a = addr & ~(ps - 1); a < addr + len; a += ps) {
    if (!Accessible(vm_, map_, a, desired)) {
      all_ok = false;
      break;
    }
  }
  if (all_ok || len == 0) {
    done.Set(Status::kOk);
  } else {
    (void)TouchTask(addr, len, desired, done);
  }
  return done.GetFuture();
}

Task TaskMemory::TouchTask(VmOffset addr, VmSize len, PageAccess desired,
                           Promise<Status> done) {
  const size_t ps = map_.page_size();
  for (VmOffset a = addr & ~(ps - 1); a < addr + len; a += ps) {
    if (Accessible(vm_, map_, a, desired)) {
      continue;
    }
    Status s = co_await vm_.Fault(map_, a, desired);
    if (!IsOk(s)) {
      done.Set(s);
      co_return;
    }
  }
  done.Set(Status::kOk);
}

Future<uint64_t> TaskMemory::ReadU64(VmOffset addr) {
  ASVM_CHECK(!StraddlesPage(addr, 8, map_.page_size()));
  Promise<uint64_t> done(vm_.engine());
  uint64_t value = 0;
  if (TryReadU64(addr, &value)) {
    done.Set(value);
  } else {
    (void)ReadU64Task(addr, done);
  }
  return done.GetFuture();
}

Task TaskMemory::ReadU64Task(VmOffset addr, Promise<uint64_t> done) {
  for (;;) {
    uint64_t value = 0;
    if (TryReadU64(addr, &value)) {
      done.Set(value);
      co_return;
    }
    Status s = co_await vm_.Fault(map_, addr, PageAccess::kRead);
    ASVM_CHECK_MSG(IsOk(s), "read fault failed");
  }
}

Future<Status> TaskMemory::WriteU64(VmOffset addr, uint64_t value) {
  ASVM_CHECK(!StraddlesPage(addr, 8, map_.page_size()));
  Promise<Status> done(vm_.engine());
  if (TryWriteU64(addr, value)) {
    done.Set(Status::kOk);
  } else {
    (void)WriteU64Task(addr, value, done);
  }
  return done.GetFuture();
}

Task TaskMemory::WriteU64Task(VmOffset addr, uint64_t value, Promise<Status> done) {
  for (;;) {
    if (TryWriteU64(addr, value)) {
      done.Set(Status::kOk);
      co_return;
    }
    Status s = co_await vm_.Fault(map_, addr, PageAccess::kWrite);
    if (!IsOk(s)) {
      done.Set(s);
      co_return;
    }
  }
}

bool TaskMemory::TryReadU64(VmOffset addr, uint64_t* out) {
  const std::byte* p = vm_.TryRead(map_, addr);
  if (p == nullptr) {
    return false;
  }
  std::memcpy(out, p, sizeof(*out));
  return true;
}

bool TaskMemory::TryWriteU64(VmOffset addr, uint64_t value) {
  std::byte* p = vm_.TryWrite(map_, addr);
  if (p == nullptr) {
    return false;
  }
  std::memcpy(p, &value, sizeof(value));
  return true;
}

Future<Status> TaskMemory::ReadBytes(VmOffset addr, std::span<std::byte> out) {
  Promise<Status> done(vm_.engine());
  (void)ReadBytesTask(addr, out, done);
  return done.GetFuture();
}

Task TaskMemory::ReadBytesTask(VmOffset addr, std::span<std::byte> out, Promise<Status> done) {
  const size_t ps = map_.page_size();
  size_t copied = 0;
  while (copied < out.size()) {
    const VmOffset a = addr + copied;
    const size_t in_page = std::min(out.size() - copied, ps - (a % ps));
    const std::byte* p = vm_.TryRead(map_, a);
    if (p == nullptr) {
      Status s = co_await vm_.Fault(map_, a, PageAccess::kRead);
      if (!IsOk(s)) {
        done.Set(s);
        co_return;
      }
      continue;
    }
    std::memcpy(out.data() + copied, p, in_page);
    copied += in_page;
  }
  done.Set(Status::kOk);
}

Future<Status> TaskMemory::WriteBytes(VmOffset addr, std::span<const std::byte> in) {
  Promise<Status> done(vm_.engine());
  (void)WriteBytesTask(addr, in, done);
  return done.GetFuture();
}

Task TaskMemory::WriteBytesTask(VmOffset addr, std::span<const std::byte> in,
                                Promise<Status> done) {
  const size_t ps = map_.page_size();
  size_t copied = 0;
  while (copied < in.size()) {
    const VmOffset a = addr + copied;
    const size_t in_page = std::min(in.size() - copied, ps - (a % ps));
    std::byte* p = vm_.TryWrite(map_, a);
    if (p == nullptr) {
      Status s = co_await vm_.Fault(map_, a, PageAccess::kWrite);
      if (!IsOk(s)) {
        done.Set(s);
        co_return;
      }
      continue;
    }
    std::memcpy(p, in.data() + copied, in_page);
    copied += in_page;
  }
  done.Set(Status::kOk);
}

}  // namespace asvm
