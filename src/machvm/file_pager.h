// The file pager: a user-level pager task on an I/O node that backs memory
// mapped files with a disk (paper §4.2 — the UFS mapped filesystem). The
// pager's CPU processes one request at a time, which bounds the combined
// transfer rate all nodes can extract from one file — exactly the limit
// Table 2 measures.
#ifndef SRC_MACHVM_FILE_PAGER_H_
#define SRC_MACHVM_FILE_PAGER_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/machvm/disk.h"
#include "src/machvm/page.h"
#include "src/sim/engine.h"

namespace asvm {

struct FilePagerParams {
  // CPU cost of handling one page request in the user-level pager.
  SimDuration request_cpu_ns = 600 * kMicrosecond;
  // Page-in clustering (the paper's §6: "a clustering of page-out and page-in
  // requests has to be implemented ... to achieve adequate bandwidths"): a
  // disk read also stages this many following pages, so a sequential scan
  // pays one positioning per cluster. 0 disables (the measured-paper default).
  int readahead_pages = 0;
};

class FilePager {
 public:
  FilePager(Engine& engine, NodeId io_node, Disk* disk, FilePagerParams params,
            StatsRegistry& stats)
      : engine_(engine), io_node_(io_node), disk_(disk), params_(params), stats_(stats) {}

  NodeId node() const { return io_node_; }

  // Creates a file of `pages` pages. If `prefilled`, the file already has
  // contents on disk (deterministic per (file,page), see FillPattern).
  int32_t CreateFile(const std::string& name, VmSize pages, bool prefilled);

  VmSize FilePages(int32_t file_id) const;

  // True when the page has real contents (prefilled or previously written);
  // false means it is fresh and reads as zeros without touching the disk.
  bool HasData(int32_t file_id, PageIndex page) const;

  // Serves a page: pager CPU + disk read when the data lives on disk.
  void ReadPage(int32_t file_id, PageIndex page, size_t page_size,
                std::function<void(PageBuffer)> done);

  // Accepts a written page (pager CPU; disk write proceeds asynchronously —
  // "asynchronous writes" per §4.2).
  void WritePage(int32_t file_id, PageIndex page, PageBuffer data,
                 std::function<void()> done);

  // Grants a fresh (zero-fill) page: pager CPU only, no disk.
  void GrantFresh(int32_t file_id, PageIndex page, std::function<void()> done);

  // Deterministic contents of a prefilled page, for integrity checks: the
  // little-endian words of a counter-mode splitmix64 stream seeded by
  // (file, page). Synthetic; the only definition of a prefilled file's bytes.
  static void FillPattern(int32_t file_id, PageIndex page, std::vector<std::byte>& out);

 private:
  struct File {
    std::string name;
    VmSize pages = 0;
    bool prefilled = false;
    std::unordered_map<PageIndex, PageBuffer> written;
    // Pages staged in the pager's buffer by read-ahead; served without disk.
    std::unordered_map<PageIndex, bool> staged;
    // Host-side memo of a prefilled file's contents, one buffer per page,
    // generated on the page's first read and shared by every later one. It
    // only saves regenerating the bytes: which reads go to disk is decided by
    // `staged` and `written` alone.
    std::vector<PageBuffer> filled;
  };

  // The contents of a prefilled page (FillPattern), from the memo.
  PageBuffer Prefilled(int32_t file_id, PageIndex page, size_t page_size);

  // Serializes `fn` through the pager's single CPU with the per-request cost.
  void Process(std::function<void()> fn);

  int64_t DiskPosition(int32_t file_id, PageIndex page) const {
    return (static_cast<int64_t>(file_id) << 32) | page;
  }

  Engine& engine_;
  NodeId io_node_;
  Disk* disk_;
  FilePagerParams params_;
  StatsRegistry& stats_;
  CounterHandle reads_;
  CounterHandle readahead_hits_;
  CounterHandle writes_;
  CounterHandle fresh_grants_;
  SimTime cpu_busy_until_ = 0;
  std::vector<File> files_;
};

}  // namespace asvm

#endif  // SRC_MACHVM_FILE_PAGER_H_
