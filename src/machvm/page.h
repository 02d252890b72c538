// Page frames and page buffers. A PageBuffer holds the actual bytes of a
// simulated physical page; VmPage is the kernel's bookkeeping for one resident
// page of a VM object.
//
// Page contents are immutable once shared. A PageBuffer is a reference to
// const bytes, so a reply, push, pageout, pager store or shadow copy hands out
// the page's buffer itself, and a page served to eight readers is one buffer.
// There is one writer, NodeVm::TryWrite: it writes in place only while its
// VmPage holds the contents privately (the VM zero-filled or copied them and
// has handed them to no one), and otherwise copies them first. This is Mach's
// delayed copy (paper §3.7) applied to the host's memory; it moves no
// simulated event.
#ifndef SRC_MACHVM_PAGE_H_
#define SRC_MACHVM_PAGE_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/transport/message.h"  // PageBuffer

namespace asvm {

inline PageBuffer AllocPage(size_t page_size) {
  return std::make_shared<std::vector<std::byte>>(page_size);
}

inline bool PageIsZero(const PageBuffer& page) {
  if (!page) {
    return true;
  }
  for (std::byte b : *page) {
    if (b != std::byte{0}) {
      return false;
    }
  }
  return true;
}

// One resident page of a VM object on one node.
class VmPage {
 public:
  // Hands the contents out by reference. From here on they are shared, so the
  // page's next write copies them first. Every hand-out goes through here.
  PageBuffer Share() {
    private_ = nullptr;
    return data_;
  }

  // The contents in place, read-only. Hands nothing out.
  const std::vector<std::byte>& contents() const { return *data_; }

  // Highest access the object's memory manager has granted the kernel for
  // this page (kRead or kWrite). Unmanaged objects always hold kWrite.
  PageAccess lock = PageAccess::kWrite;

  // Set when the page has been modified since it was supplied/cleaned.
  bool dirty = false;

  // Pages wired by an in-progress protocol operation are skipped by pageout.
  int wire_count = 0;

  // Monotonic per-node tick of the last fault/supply touching this page;
  // pageout evicts in ascending order (approximate LRU).
  uint64_t last_use = 0;

 private:
  friend class VmObject;  // InsertPage
  friend class NodeVm;    // zero fill, and the one writer (TryWrite)

  // Installs contents that whoever supplied them may still reference.
  void Hold(PageBuffer data) {
    data_ = std::move(data);
    private_ = nullptr;
  }

  // Installs contents that no one else references.
  void HoldPrivately(std::shared_ptr<std::vector<std::byte>> bytes) {
    private_ = bytes.get();
    data_ = std::move(bytes);
  }

  // The bytes to write, copied first unless the page holds them privately.
  std::byte* Writable() {
    if (private_ == nullptr) {
      HoldPrivately(std::make_shared<std::vector<std::byte>>(*data_));
    }
    return private_->data();
  }

  PageBuffer data_;
  // The private bit: data_'s bytes, writable, while no one else references
  // them; null from the first Share() until the next copy.
  std::vector<std::byte>* private_ = nullptr;
};

}  // namespace asvm

#endif  // SRC_MACHVM_PAGE_H_
