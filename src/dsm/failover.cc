#include "src/dsm/failover.h"

namespace asvm {

NodeId RingSuccessor(NodeId node, int node_count, const FaultPlan& plan, SimTime now) {
  for (int step = 1; step < node_count; ++step) {
    const NodeId candidate = static_cast<NodeId>((node + step) % node_count);
    if (plan.NodeAlive(candidate, now)) {
      return candidate;
    }
  }
  return kInvalidNode;
}

}  // namespace asvm
