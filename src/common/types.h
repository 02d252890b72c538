// Fundamental identifier and unit types shared by every module.
#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace asvm {

// Identifies a processing node of the simulated multicomputer. Nodes are numbered
// densely from 0; the value kInvalidNode marks "no node".
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

// Index of a page within a memory object's virtual address range.
using PageIndex = int64_t;
inline constexpr PageIndex kInvalidPage = -1;

// Byte offset / length within an object or address space.
using VmOffset = uint64_t;
using VmSize = uint64_t;

// Globally unique identifier of a distributed memory object. Composed of the
// creating node and a per-node sequence number so ids can be minted without
// coordination.
struct MemObjectId {
  NodeId origin = kInvalidNode;
  uint32_t seq = 0;

  friend bool operator==(const MemObjectId&, const MemObjectId&) = default;
  friend auto operator<=>(const MemObjectId&, const MemObjectId&) = default;

  bool valid() const { return origin != kInvalidNode; }
  std::string ToString() const;
};

inline constexpr MemObjectId kInvalidObject{};

// Access rights a node's VM system holds on a page, mirroring Mach protections
// as used by the EMMI protocol (VM_PROT_*).
enum class PageAccess : uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,  // Write implies read.
};

const char* ToString(PageAccess access);

inline bool AccessAllows(PageAccess held, PageAccess wanted) {
  return static_cast<uint8_t>(held) >= static_cast<uint8_t>(wanted);
}

// A sorted snapshot of a map's keys. Walks over unordered tables go through
// it, so host iteration order never decides simulated behaviour or report
// order, and the walk may mutate the table.
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& entry : map) {
    keys.push_back(entry.first);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace asvm

template <>
struct std::hash<asvm::MemObjectId> {
  size_t operator()(const asvm::MemObjectId& id) const noexcept {
    return std::hash<uint64_t>()((static_cast<uint64_t>(static_cast<uint32_t>(id.origin)) << 32) |
                                 id.seq);
  }
};

#endif  // SRC_COMMON_TYPES_H_
