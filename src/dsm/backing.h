// Backing stores for distributed memory objects, used by the DSM layer on an
// object's home node when no cached copy exists anywhere: anonymous regions
// fall back to paging space, file regions to the file pager.
#ifndef SRC_DSM_BACKING_H_
#define SRC_DSM_BACKING_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/machvm/default_pager.h"
#include "src/machvm/file_pager.h"
#include "src/machvm/page.h"
#include "src/sim/future.h"

namespace asvm {

class ObjectBacking {
 public:
  virtual ~ObjectBacking() = default;

  // True when the backing holds real contents for the page; false means the
  // page is fresh (reads as zeros, no I/O needed).
  virtual bool HasData(PageIndex page) const = 0;

  virtual void Read(PageIndex page, size_t page_size,
                    std::function<void(PageBuffer)> done) = 0;

  virtual void Write(PageIndex page, PageBuffer data, std::function<void()> done) = 0;

  // Cost the pager charges for granting a fresh page (zero-fill permission).
  virtual void GrantFresh(PageIndex page, std::function<void()> done) = 0;

  // Awaitable Read and GrantFresh: the future resolves where `done` would run.
  Future<PageBuffer> ReadAsync(Engine& engine, PageIndex page, size_t page_size) {
    Promise<PageBuffer> read(engine);
    Read(page, page_size, [read](PageBuffer data) { read.Set(std::move(data)); });
    return read.GetFuture();
  }
  Future<Status> GrantFreshAsync(Engine& engine, PageIndex page) {
    Promise<Status> granted(engine);
    GrantFresh(page, [granted]() { granted.Set(Status::kOk); });
    return granted.GetFuture();
  }
};

// Anonymous shared region: fresh until written; evictions that reach the
// pager land in the home node's paging space.
class AnonBacking : public ObjectBacking {
 public:
  AnonBacking(Engine& engine, DefaultPager& pager, uint64_t key)
      : engine_(engine), pager_(pager), key_(key) {}

  bool HasData(PageIndex page) const override { return pager_.HasPage(key_, page); }

  void Read(PageIndex page, size_t page_size, std::function<void(PageBuffer)> done) override {
    if (!HasData(page)) {
      engine_.Post([page_size, done = std::move(done)]() { done(AllocPage(page_size)); });
      return;
    }
    pager_.ReadPage(key_, page, std::move(done));
  }

  void Write(PageIndex page, PageBuffer data, std::function<void()> done) override {
    pager_.WritePage(key_, page, std::move(data), std::move(done));
  }

  void GrantFresh(PageIndex, std::function<void()> done) override {
    engine_.Post(std::move(done));
  }

 private:
  Engine& engine_;
  DefaultPager& pager_;
  uint64_t key_;
};

// Mapped file region served by the user-level file pager on an I/O node.
class FileBacking : public ObjectBacking {
 public:
  FileBacking(FilePager& pager, int32_t file_id) : pager_(pager), file_id_(file_id) {}

  bool HasData(PageIndex page) const override { return pager_.HasData(file_id_, page); }

  void Read(PageIndex page, size_t page_size, std::function<void(PageBuffer)> done) override {
    pager_.ReadPage(file_id_, page, page_size, std::move(done));
  }

  void Write(PageIndex page, PageBuffer data, std::function<void()> done) override {
    pager_.WritePage(file_id_, page, std::move(data), std::move(done));
  }

  void GrantFresh(PageIndex page, std::function<void()> done) override {
    pager_.GrantFresh(file_id_, page, std::move(done));
  }

 private:
  FilePager& pager_;
  int32_t file_id_;
};

// §6 future-work: a striped file — page p lives on stripe p % k, each stripe
// served by its own file pager (and disk) on its own I/O node. This is the
// PFS side of the UFS/PFS hybrid the paper sketches; combined with the DSM's
// caching it gives striping + local caching + full Unix semantics.
class StripedBacking : public ObjectBacking {
 public:
  struct Stripe {
    FilePager* pager = nullptr;
    int32_t file_id = -1;
  };

  explicit StripedBacking(std::vector<Stripe> stripes) : stripes_(std::move(stripes)) {}

  size_t stripe_count() const { return stripes_.size(); }
  const Stripe& stripe_of(PageIndex page) const {
    return stripes_[static_cast<size_t>(page) % stripes_.size()];
  }
  NodeId stripe_node(PageIndex page) const { return stripe_of(page).pager->node(); }

  bool HasData(PageIndex page) const override {
    const Stripe& s = stripe_of(page);
    return s.pager->HasData(s.file_id, StripePage(page));
  }

  void Read(PageIndex page, size_t page_size, std::function<void(PageBuffer)> done) override {
    const Stripe& s = stripe_of(page);
    s.pager->ReadPage(s.file_id, StripePage(page), page_size, std::move(done));
  }

  void Write(PageIndex page, PageBuffer data, std::function<void()> done) override {
    const Stripe& s = stripe_of(page);
    s.pager->WritePage(s.file_id, StripePage(page), std::move(data), std::move(done));
  }

  void GrantFresh(PageIndex page, std::function<void()> done) override {
    const Stripe& s = stripe_of(page);
    s.pager->GrantFresh(s.file_id, StripePage(page), std::move(done));
  }

 private:
  PageIndex StripePage(PageIndex page) const {
    return page / static_cast<PageIndex>(stripes_.size());
  }

  std::vector<Stripe> stripes_;
};

}  // namespace asvm

#endif  // SRC_DSM_BACKING_H_
