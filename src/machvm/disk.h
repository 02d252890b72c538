// Simulated disk drive: operations serialize on the spindle; an operation
// that continues sequentially from the previous one skips the positioning
// cost (modeling track buffers / read-ahead on UFS-style sequential access).
#ifndef SRC_MACHVM_DISK_H_
#define SRC_MACHVM_DISK_H_

#include <cstdint>
#include <functional>

#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/sim/engine.h"

namespace asvm {

struct DiskParams {
  SimDuration seek_ns = 22 * kMillisecond;  // average positioning (seek + rotation)
  double bandwidth_bytes_per_ns = 0.003;    // 3 MB/s media rate (early-90s SCSI)
};

class Disk {
 public:
  // `node` labels which node this spindle serves in the trace (the I/O group
  // leader or the pager node).
  Disk(Engine& engine, NodeId node, DiskParams params, StatsRegistry& stats, TraceSink& trace)
      : engine_(engine), node_(node), params_(params), stats_(stats), trace_(trace) {}

  // `position` identifies the block being accessed (file id << 32 | page);
  // an access at last_position+1 is sequential. `done` runs when the
  // operation completes.
  void Read(int64_t position, size_t bytes, EventFn done);
  void Write(int64_t position, size_t bytes, EventFn done);

  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }

 private:
  void Access(int64_t position, size_t bytes, EventFn done);
  void TraceOp(TraceKind kind, int64_t position, size_t bytes);

  Engine& engine_;
  NodeId node_;
  DiskParams params_;
  StatsRegistry& stats_;
  TraceSink& trace_;
  SimTime busy_until_ = 0;
  int64_t last_position_ = -100;  // far from any first access
  int64_t reads_ = 0;
  int64_t writes_ = 0;
  CounterHandle reads_counter_;
  CounterHandle bytes_read_;
  CounterHandle writes_counter_;
  CounterHandle bytes_written_;
};

}  // namespace asvm

#endif  // SRC_MACHVM_DISK_H_
