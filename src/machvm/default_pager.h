// The default pager: backing store for anonymous (temporary) memory. Pages
// evicted dirty are written to paging space on the node's paging disk and can
// be read back on a later fault.
#ifndef SRC_MACHVM_DEFAULT_PAGER_H_
#define SRC_MACHVM_DEFAULT_PAGER_H_

#include <functional>
#include <unordered_map>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/machvm/disk.h"
#include "src/machvm/page.h"
#include "src/sim/engine.h"

namespace asvm {

class DefaultPager {
 public:
  // `disk` is the paging disk (on the node's I/O node; shared between the
  // nodes of an I/O group). May be null in configurations that must never
  // page, in which case writes abort.
  DefaultPager(Engine& engine, Disk* disk, StatsRegistry& stats)
      : engine_(engine), disk_(disk), stats_(stats) {}

  // True when paging space holds contents for (object serial, page).
  bool HasPage(uint64_t object_serial, PageIndex page) const;

  // Reads the page back from paging space (disk latency applies).
  void ReadPage(uint64_t object_serial, PageIndex page, std::function<void(PageBuffer)> done);

  // Writes the page to paging space. `done` (optional) runs at I/O completion;
  // the contents are logically in paging space immediately (buffered write).
  void WritePage(uint64_t object_serial, PageIndex page, PageBuffer data,
                 std::function<void()> done = {});

  // Discards a paged-out page (object destroyed or page superseded).
  void Drop(uint64_t object_serial, PageIndex page);

  // Re-files every page held under `from` as `to`, which must be unused. A
  // host-side rename: no disk operation is simulated.
  void Rename(uint64_t from, uint64_t to);

  size_t stored_pages() const { return count_; }

 private:
  static int64_t PositionKey(uint64_t object_serial, PageIndex page) {
    return static_cast<int64_t>((object_serial << 24) ^ static_cast<uint64_t>(page));
  }

  Engine& engine_;
  Disk* disk_;
  StatsRegistry& stats_;
  CounterHandle pageins_;
  CounterHandle pageouts_;
  std::unordered_map<uint64_t, std::unordered_map<PageIndex, PageBuffer>> store_;
  size_t count_ = 0;
};

}  // namespace asvm

#endif  // SRC_MACHVM_DEFAULT_PAGER_H_
