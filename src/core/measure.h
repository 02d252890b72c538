// Measurement helpers for experiments: run the engine until an operation
// completes and report its simulated latency, as the paper does from user
// task context ("performing read or write operations and timing them").
#ifndef SRC_CORE_MEASURE_H_
#define SRC_CORE_MEASURE_H_

#include "src/common/log.h"
#include "src/core/machine.h"
#include "src/sim/future.h"

namespace asvm {

// Runs the engine until `f` is ready; returns the simulated time that took.
// Background traffic continuing after completion is NOT drained (call
// machine.Run() between measurements for quiescence).
template <typename T>
SimDuration AwaitLatency(Machine& machine, const Future<T>& f) {
  const SimTime start = machine.Now();
  while (!f.ready()) {
    // Cluster-level emptiness: shard 0's queue alone being drained does not
    // mean the operation is stuck — another shard or a mailbox may still
    // carry the completion.
    ASVM_CHECK_MSG(!machine.cluster().Empty(), "operation can never complete");
    machine.RunFor(5 * kMicrosecond);
  }
  return machine.Now() - start;
}

// Convenience: measure one write access (returns milliseconds, like Table 1).
inline double MeasureWriteMs(Machine& machine, TaskMemory& mem, VmOffset addr,
                             uint64_t value) {
  SimDuration d = AwaitLatency(machine, mem.WriteU64(addr, value));
  machine.Run();
  return ToMilliseconds(d);
}

inline double MeasureReadMs(Machine& machine, TaskMemory& mem, VmOffset addr,
                            uint64_t* out = nullptr) {
  auto f = mem.ReadU64(addr);
  SimDuration d = AwaitLatency(machine, f);
  if (out != nullptr) {
    *out = f.value();
  }
  machine.Run();
  return ToMilliseconds(d);
}

}  // namespace asvm

#endif  // SRC_CORE_MEASURE_H_
