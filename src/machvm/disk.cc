#include "src/machvm/disk.h"

#include <algorithm>
#include <cmath>

namespace asvm {

void Disk::Read(int64_t position, size_t bytes, EventFn done) {
  ++reads_;
  reads_counter_.Add(stats_, "disk.reads");
  bytes_read_.Add(stats_, "disk.bytes_read", static_cast<int64_t>(bytes));
  TraceOp(TraceKind::kDiskRead, position, bytes);
  Access(position, bytes, std::move(done));
}

void Disk::Write(int64_t position, size_t bytes, EventFn done) {
  ++writes_;
  writes_counter_.Add(stats_, "disk.writes");
  bytes_written_.Add(stats_, "disk.bytes_written", static_cast<int64_t>(bytes));
  TraceOp(TraceKind::kDiskWrite, position, bytes);
  Access(position, bytes, std::move(done));
}

void Disk::TraceOp(TraceKind kind, int64_t position, size_t bytes) {
  if (!trace_.enabled()) {
    return;
  }
  TraceEvent e;
  e.time = engine_.Now();
  e.node = node_;
  e.protocol = TraceProtocol::kDisk;
  e.kind = kind;
  // position packs (file id << 32 | page); the low half is the page index.
  e.page = position & 0xffffffff;
  e.aux = static_cast<int64_t>(bytes);
  trace_.Emit(e);
}

void Disk::Access(int64_t position, size_t bytes, EventFn done) {
  const bool sequential = position == last_position_ + 1;
  last_position_ = position;
  const SimDuration transfer = static_cast<SimDuration>(
      std::llround(static_cast<double>(bytes) / params_.bandwidth_bytes_per_ns));
  const SimDuration op = (sequential ? 0 : params_.seek_ns) + transfer;
  const SimTime now = engine_.Now();
  const SimTime complete = std::max(now, busy_until_) + op;
  busy_until_ = complete;
  engine_.Schedule(complete - now, std::move(done));
}

}  // namespace asvm
