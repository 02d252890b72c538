// Task address maps: ranges of virtual pages mapped to VM objects, with
// per-entry inheritance and the symmetric-copy needs_copy flag.
#ifndef SRC_MACHVM_VM_MAP_H_
#define SRC_MACHVM_VM_MAP_H_

#include <map>
#include <memory>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/machvm/vm_object.h"

namespace asvm {

// What a child task receives for this range on fork (Mach VM_INHERIT_*).
enum class Inheritance {
  kShare,  // child shares the same object
  kCopy,   // child receives a delayed copy
  kNone,   // range absent in the child
};

struct VmMapEntry {
  VmOffset start_page = 0;  // first virtual page of the range
  VmSize page_count = 0;
  std::shared_ptr<VmObject> object;
  VmOffset object_offset = 0;  // object page corresponding to start_page
  Inheritance inheritance = Inheritance::kCopy;
  // Symmetric copy strategy: true when the entry references a frozen object
  // that must be shadowed before the first write through this entry.
  bool needs_copy = false;
};

class VmMap {
 public:
  explicit VmMap(size_t page_size) : page_size_(page_size) {}

  size_t page_size() const { return page_size_; }

  // Maps `page_count` pages of `object` (starting at object_offset) at
  // virtual page `start_page`. Fails on overlap.
  Status Map(VmOffset start_page, VmSize page_count, std::shared_ptr<VmObject> object,
             VmOffset object_offset, Inheritance inheritance);

  Status Unmap(VmOffset start_page);

  // Entry containing the virtual page, or nullptr.
  VmMapEntry* LookupPage(VmOffset vpage);
  const VmMapEntry* LookupPage(VmOffset vpage) const;

  // Translates a virtual address to (entry, object page index). Returns
  // nullptr entry when unmapped.
  struct Resolution {
    VmMapEntry* entry = nullptr;
    PageIndex object_page = kInvalidPage;
  };
  Resolution Resolve(VmOffset addr);

  std::map<VmOffset, VmMapEntry>& entries() { return entries_; }
  const std::map<VmOffset, VmMapEntry>& entries() const { return entries_; }

 private:
  size_t page_size_;
  std::map<VmOffset, VmMapEntry> entries_;  // keyed by start_page
};

}  // namespace asvm

#endif  // SRC_MACHVM_VM_MAP_H_
