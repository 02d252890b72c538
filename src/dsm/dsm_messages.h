// Wire bodies of the shared DSM components (src/dsm). Each protocol carries
// them as alternatives of its own body variant, under its own type tags, so
// message stats and traces still name the protocol that sent them.
#ifndef SRC_DSM_DSM_MESSAGES_H_
#define SRC_DSM_DSM_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace asvm {

// Failover shadow stream (ShadowStream, DESIGN.md §14): a primary streams the
// page contents it just committed to its backup (kShadowUpdate, page payload
// attached). The backup keeps the newest buffer per page; at promotion or
// reclaim it stands in for the paging space that died with the primary. The
// same body without a payload rides kShadowManifest to the backup's own
// successor: a witness record that the page was committed, so recovery that
// finds neither shadow data nor a surviving copy can tell "never written"
// (zero-fill) apart from "written and lost" (kDataLost).
struct ShadowUpdate {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  uint64_t version = 0;  // ASVM's page version; XMM and IVY send 0
};

// Internal copy pager (InternalCopyPager): a remote child's fault on a
// copy-pager object, sent to the fork source whose pager thread blocks for
// the whole fault.
struct CopyFault {
  MemObjectId object;  // the internal-pager object
  PageIndex page = kInvalidPage;
  NodeId origin = kInvalidNode;
  // Nodes whose copy-pager threads are blocked on this request chain; used
  // for the deadlock the paper ascribes to XMM's synchronous design (§3.1).
  std::vector<NodeId> path;
};

struct CopyFaultReply {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  bool zero_fill = false;
  bool deadlock = false;
};

}  // namespace asvm

#endif  // SRC_DSM_DSM_MESSAGES_H_
