#include "src/machvm/file_pager.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/log.h"

namespace asvm {

int32_t FilePager::CreateFile(const std::string& name, VmSize pages, bool prefilled) {
  File file;
  file.name = name;
  file.pages = pages;
  file.prefilled = prefilled;
  if (prefilled) {
    file.filled.resize(static_cast<size_t>(pages));
  }
  files_.push_back(std::move(file));
  return static_cast<int32_t>(files_.size() - 1);
}

VmSize FilePager::FilePages(int32_t file_id) const {
  ASVM_CHECK(file_id >= 0 && static_cast<size_t>(file_id) < files_.size());
  return files_[file_id].pages;
}

bool FilePager::HasData(int32_t file_id, PageIndex page) const {
  ASVM_CHECK(file_id >= 0 && static_cast<size_t>(file_id) < files_.size());
  const File& file = files_[file_id];
  return file.prefilled || file.written.count(page) != 0;
}

void FilePager::Process(std::function<void()> fn) {
  const SimTime now = engine_.Now();
  const SimTime start = std::max(now, cpu_busy_until_) + params_.request_cpu_ns;
  cpu_busy_until_ = start;
  engine_.Schedule(start - now, std::move(fn));
}

void FilePager::ReadPage(int32_t file_id, PageIndex page, size_t page_size,
                         std::function<void(PageBuffer)> done) {
  ASVM_CHECK(file_id >= 0 && static_cast<size_t>(file_id) < files_.size());
  reads_.Add(stats_, "file_pager.reads");
  Process([this, file_id, page, page_size, done = std::move(done)]() mutable {
    File& file = files_[file_id];
    auto it = file.written.find(page);
    if (it != file.written.end()) {
      // Recently written data still buffered in the pager.
      done(it->second);
      return;
    }
    if (!file.prefilled) {
      done(AllocPage(page_size));
      return;
    }
    if (file.staged.count(page) != 0) {
      // Read-ahead already brought this page into the pager's buffer.
      file.staged.erase(page);
      readahead_hits_.Add(stats_, "file_pager.readahead_hits");
      done(Prefilled(file_id, page, page_size));
      return;
    }
    ASVM_CHECK_MSG(disk_ != nullptr, "file pager without a disk");
    // §6 clustering: one disk operation covers this page plus the read-ahead
    // window — a sequential scan pays one positioning per cluster.
    const int ahead =
        std::min<int64_t>(params_.readahead_pages,
                          static_cast<int64_t>(file.pages) - static_cast<int64_t>(page) - 1);
    const size_t cluster_bytes = page_size * static_cast<size_t>(1 + std::max(0, ahead));
    for (int i = 1; i <= ahead; ++i) {
      file.staged[page + i] = true;
    }
    // Keyed by the cluster's last page so back-to-back clusters of a scan are
    // sequential on the spindle.
    disk_->Read(DiskPosition(file_id, page + std::max(0, ahead)), cluster_bytes,
                [this, file_id, page, page_size, done = std::move(done)]() {
                  done(Prefilled(file_id, page, page_size));
                });
  });
}

void FilePager::WritePage(int32_t file_id, PageIndex page, PageBuffer data,
                          std::function<void()> done) {
  ASVM_CHECK(file_id >= 0 && static_cast<size_t>(file_id) < files_.size());
  ASVM_CHECK(data != nullptr);
  writes_.Add(stats_, "file_pager.writes");
  const size_t bytes = data->size();
  Process([this, file_id, page, bytes, data = std::move(data), done = std::move(done)]() {
    files_[file_id].written[page] = data;
    if (disk_ != nullptr) {
      // Asynchronous write-behind: completion is not awaited by anyone.
      disk_->Write(DiskPosition(file_id, page), bytes, []() {});
    }
    if (done) {
      done();
    }
  });
}

void FilePager::GrantFresh(int32_t file_id, PageIndex page, std::function<void()> done) {
  (void)page;
  ASVM_CHECK(file_id >= 0 && static_cast<size_t>(file_id) < files_.size());
  fresh_grants_.Add(stats_, "file_pager.fresh_grants");
  Process([done = std::move(done)]() {
    if (done) {
      done();
    }
  });
}

PageBuffer FilePager::Prefilled(int32_t file_id, PageIndex page, size_t page_size) {
  File& file = files_[file_id];
  ASVM_CHECK_MSG(page >= 0 && static_cast<VmSize>(page) < file.pages, "read past end of file");
  PageBuffer& slot = file.filled[static_cast<size_t>(page)];
  if (slot == nullptr) {
    auto bytes = std::make_shared<std::vector<std::byte>>(page_size);
    FillPattern(file_id, page, *bytes);
    slot = std::move(bytes);
  }
  ASVM_CHECK_MSG(slot->size() == page_size, "file page read at two page sizes");
  return slot;
}

void FilePager::FillPattern(int32_t file_id, PageIndex page, std::vector<std::byte>& out) {
  // splitmix64 in counter mode: word k is Mix(seed + (k + 1) * gamma), so every
  // word depends on (file, page, k) alone. No word waits for the one before
  // it, and each is stored whole.
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const uint64_t seed = (static_cast<uint64_t>(static_cast<uint32_t>(file_id)) << 32) ^
                        static_cast<uint64_t>(page) ^ kGamma;
  const size_t words = out.size() / 8;
  std::byte* bytes = out.data();
  for (size_t k = 0; k < words; ++k) {
    const uint64_t word = mix(seed + (k + 1) * kGamma);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(bytes + 8 * k, &word, 8);
    } else {
      for (size_t i = 0; i < 8; ++i) {
        bytes[8 * k + i] = static_cast<std::byte>(word >> (8 * i));
      }
    }
  }
  // A partial last word takes the low bytes of word `words`.
  const uint64_t last = mix(seed + (words + 1) * kGamma);
  for (size_t i = 8 * words; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(last >> (8 * (i % 8)));
  }
}

}  // namespace asvm
