#include "src/machvm/default_pager.h"

#include "src/common/log.h"

namespace asvm {

bool DefaultPager::HasPage(uint64_t object_serial, PageIndex page) const {
  auto it = store_.find(object_serial);
  if (it == store_.end()) {
    return false;
  }
  return it->second.find(page) != it->second.end();
}

void DefaultPager::ReadPage(uint64_t object_serial, PageIndex page,
                            std::function<void(PageBuffer)> done) {
  auto it = store_.find(object_serial);
  ASVM_CHECK_MSG(it != store_.end() && it->second.count(page) != 0,
                 "default pager read of page not in paging space");
  PageBuffer data = it->second[page];
  pageins_.Add(stats_, "default_pager.pageins");
  ASVM_CHECK_MSG(disk_ != nullptr, "paging without a paging disk");
  disk_->Read(PositionKey(object_serial, page), data->size(),
              [data, done = std::move(done)]() { done(data); });
}

void DefaultPager::WritePage(uint64_t object_serial, PageIndex page, PageBuffer data,
                             std::function<void()> done) {
  ASVM_CHECK_MSG(disk_ != nullptr, "paging without a paging disk");
  ASVM_CHECK(data != nullptr);
  auto& slot = store_[object_serial][page];
  if (!slot) {
    ++count_;
  }
  slot = data;
  pageouts_.Add(stats_, "default_pager.pageouts");
  const size_t bytes = data->size();
  disk_->Write(PositionKey(object_serial, page), bytes, [done = std::move(done)]() {
    if (done) {
      done();
    }
  });
}

void DefaultPager::Drop(uint64_t object_serial, PageIndex page) {
  auto it = store_.find(object_serial);
  if (it == store_.end()) {
    return;
  }
  if (it->second.erase(page) > 0) {
    --count_;
  }
}

void DefaultPager::Rename(uint64_t from, uint64_t to) {
  auto pages = store_.extract(from);
  if (pages.empty()) {
    return;
  }
  ASVM_CHECK_MSG(store_.count(to) == 0, "paging-space rename onto a key in use");
  pages.key() = to;
  store_.insert(std::move(pages));
}

}  // namespace asvm
