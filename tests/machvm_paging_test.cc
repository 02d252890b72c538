// Physical memory as a cache: eviction, paging space round trips, wiring,
// disk timing, and the default/file pagers.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/machvm/default_pager.h"
#include "src/machvm/disk.h"
#include "src/machvm/file_pager.h"
#include "src/machvm/node_vm.h"
#include "src/machvm/task_memory.h"
#include "src/sim/engine.h"

namespace asvm {
namespace {

class PagingTest : public ::testing::Test {
 protected:
  PagingTest()
      : disk_(engine_, 0, DiskParams{}, stats_, trace_),
        pager_(engine_, &disk_, stats_),
        vm_(engine_, 0, VmParams{.page_size = 4096, .frame_capacity = 8, .costs = {}}, stats_) {
    vm_.SetDefaultPager(&pager_);
  }

  void WriteAt(VmMap& map, VmOffset addr, uint64_t value) {
    TaskMemory mem(vm_, map);
    auto f = mem.WriteU64(addr, value);
    engine_.Run();
    ASSERT_TRUE(f.ready());
    ASSERT_EQ(f.value(), Status::kOk);
  }

  uint64_t ReadAt(VmMap& map, VmOffset addr) {
    TaskMemory mem(vm_, map);
    auto f = mem.ReadU64(addr);
    engine_.Run();
    EXPECT_TRUE(f.ready());
    return f.value();
  }

  Engine engine_;
  StatsRegistry stats_;
  TraceSink trace_;
  Disk disk_;
  DefaultPager pager_;
  NodeVm vm_;
};

TEST_F(PagingTest, EvictionKeepsFrameCountBounded) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(32);
  ASSERT_EQ(map->Map(0, 32, obj, 0, Inheritance::kCopy), Status::kOk);
  for (int i = 0; i < 32; ++i) {
    WriteAt(*map, static_cast<VmOffset>(i) * 4096, static_cast<uint64_t>(i + 1));
  }
  EXPECT_LE(vm_.frames_used(), vm_.frames_capacity());
  EXPECT_GT(stats_.Get("vm.pageouts"), 0);
}

TEST_F(PagingTest, DirtyPagesSurviveEvictionThroughPagingSpace) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(32);
  ASSERT_EQ(map->Map(0, 32, obj, 0, Inheritance::kCopy), Status::kOk);
  for (int i = 0; i < 32; ++i) {
    WriteAt(*map, static_cast<VmOffset>(i) * 4096, static_cast<uint64_t>(i) * 7 + 1);
  }
  // All 32 written; only 8 frames. Every value must still be readable.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ReadAt(*map, static_cast<VmOffset>(i) * 4096), static_cast<uint64_t>(i) * 7 + 1)
        << "page " << i;
  }
  EXPECT_GT(stats_.Get("default_pager.pageins"), 0);
}

TEST_F(PagingTest, CleanPagedInPageEvictsWithoutRewrite) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(32);
  ASSERT_EQ(map->Map(0, 32, obj, 0, Inheritance::kCopy), Status::kOk);
  for (int i = 0; i < 9; ++i) {
    WriteAt(*map, static_cast<VmOffset>(i) * 4096, 1000 + static_cast<uint64_t>(i));
  }
  // Page 0 was evicted dirty (capacity 8). Read it back (clean now).
  EXPECT_EQ(ReadAt(*map, 0), 1000u);
  int64_t writes_before = stats_.Get("default_pager.pageouts");
  // Evict it again by touching more pages; it is clean, so no new pageout
  // write for page 0 is strictly required (it may still be counted for other
  // dirty pages).
  for (int i = 9; i < 18; ++i) {
    WriteAt(*map, static_cast<VmOffset>(i) * 4096, 2000 + static_cast<uint64_t>(i));
  }
  EXPECT_EQ(ReadAt(*map, 0), 1000u);
  EXPECT_GE(stats_.Get("default_pager.pageouts"), writes_before);
}

TEST_F(PagingTest, WiredPagesAreNotEvicted) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(32);
  ASSERT_EQ(map->Map(0, 32, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*map, 0, 42);
  vm_.WirePage(*obj, 0);
  for (int i = 1; i < 20; ++i) {
    WriteAt(*map, static_cast<VmOffset>(i) * 4096, static_cast<uint64_t>(i));
  }
  EXPECT_NE(obj->FindResident(0), nullptr) << "wired page must stay resident";
  vm_.UnwirePage(*obj, 0);
}

TEST_F(PagingTest, ExtractPageReturnsContentsAndDirtyState) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(4);
  ASSERT_EQ(map->Map(0, 4, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*map, 0, 77);
  auto extracted = vm_.ExtractPage(*obj, 0);
  EXPECT_TRUE(extracted.was_resident);
  EXPECT_TRUE(extracted.dirty);
  uint64_t v = 0;
  memcpy(&v, extracted.data->data(), 8);
  EXPECT_EQ(v, 77u);
  EXPECT_EQ(obj->FindResident(0), nullptr);

  auto missing = vm_.ExtractPage(*obj, 1);
  EXPECT_FALSE(missing.was_resident);
}

TEST_F(PagingTest, PageInChargesDiskLatency) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(32);
  ASSERT_EQ(map->Map(0, 32, obj, 0, Inheritance::kCopy), Status::kOk);
  for (int i = 0; i < 12; ++i) {
    WriteAt(*map, static_cast<VmOffset>(i) * 4096, static_cast<uint64_t>(i));
  }
  engine_.Run();
  SimTime before = engine_.Now();
  EXPECT_EQ(ReadAt(*map, 0), 0u);  // page 0 was paged out; needs disk
  EXPECT_GT(engine_.Now() - before, 10 * kMillisecond);
}

TEST(DiskTest, RandomAccessPaysSeek) {
  Engine engine;
  StatsRegistry stats;
  TraceSink trace;
  Disk disk(engine, 0, DiskParams{}, stats, trace);
  SimTime done1 = 0;
  disk.Read(100, 8192, [&]() { done1 = engine.Now(); });
  engine.Run();
  EXPECT_GT(done1, DiskParams{}.seek_ns);
}

TEST(DiskTest, SequentialAccessSkipsSeek) {
  Engine engine;
  StatsRegistry stats;
  TraceSink trace;
  Disk disk(engine, 0, DiskParams{}, stats, trace);
  SimTime first = 0;
  SimTime second = 0;
  disk.Read(100, 8192, [&]() { first = engine.Now(); });
  engine.Run();
  disk.Read(101, 8192, [&]() { second = engine.Now(); });
  engine.Run();
  EXPECT_LT(second - first, DiskParams{}.seek_ns);  // transfer only
}

TEST(DiskTest, OperationsSerialize) {
  Engine engine;
  StatsRegistry stats;
  TraceSink trace;
  Disk disk(engine, 0, DiskParams{}, stats, trace);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    disk.Write(i * 50, 8192, [&]() { done.push_back(engine.Now()); });
  }
  engine.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_GT(done[1] - done[0], DiskParams{}.seek_ns / 2);
  EXPECT_GT(done[2] - done[1], DiskParams{}.seek_ns / 2);
  EXPECT_EQ(disk.writes(), 3);
}

TEST(DefaultPagerTest, RoundTripPreservesData) {
  Engine engine;
  StatsRegistry stats;
  TraceSink trace;
  Disk disk(engine, 0, DiskParams{}, stats, trace);
  DefaultPager pager(engine, &disk, stats);
  NodeVm vm(engine, 0, VmParams{.page_size = 4096, .frame_capacity = 8, .costs = {}}, stats);
  vm.SetDefaultPager(&pager);
  VmMap* map = vm.CreateMap();
  auto obj = vm.CreateObject(2);
  ASSERT_EQ(map->Map(0, 2, obj, 0, Inheritance::kCopy), Status::kOk);
  TaskMemory mem(vm, *map);
  auto first = mem.WriteU64(0, 0xAB);
  engine.Run();
  ASSERT_EQ(first.value(), Status::kOk);

  // Page it out, then fault it back in: the resident page and paging space
  // now hold the same contents.
  EXPECT_FALSE(pager.HasPage(obj->serial(), 0));
  ASSERT_EQ(vm.EvictOnePage(), Status::kOk);
  EXPECT_TRUE(pager.HasPage(obj->serial(), 0));
  auto paged_in = mem.ReadU64(0);
  engine.Run();
  ASSERT_EQ(paged_in.value(), 0xABu);

  // Writing the resident page must not change what paging space holds.
  auto second = mem.WriteU64(0, 0xCD);
  engine.Run();
  ASSERT_EQ(second.value(), Status::kOk);
  PageBuffer got;
  pager.ReadPage(obj->serial(), 0, [&](PageBuffer data) { got = std::move(data); });
  engine.Run();
  ASSERT_NE(got, nullptr);
  uint64_t stored = 0;
  memcpy(&stored, got->data(), 8);
  EXPECT_EQ(stored, 0xABu);
  auto now = mem.ReadU64(0);
  engine.Run();
  EXPECT_EQ(now.value(), 0xCDu);
}

TEST(DefaultPagerTest, DropForgetsPage) {
  Engine engine;
  StatsRegistry stats;
  TraceSink trace;
  Disk disk(engine, 0, DiskParams{}, stats, trace);
  DefaultPager pager(engine, &disk, stats);
  pager.WritePage(1, 0, AllocPage(4096));
  EXPECT_EQ(pager.stored_pages(), 1u);
  pager.Drop(1, 0);
  EXPECT_FALSE(pager.HasPage(1, 0));
  EXPECT_EQ(pager.stored_pages(), 0u);
}

class FilePagerTest : public ::testing::Test {
 protected:
  FilePagerTest()
      : disk_(engine_, 0, DiskParams{}, stats_, trace_),
        pager_(engine_, 0, &disk_, FilePagerParams{}, stats_) {}

  Engine engine_;
  StatsRegistry stats_;
  TraceSink trace_;
  Disk disk_;
  FilePager pager_;
};

TEST_F(FilePagerTest, FreshFileReadsAsZeros) {
  int32_t f = pager_.CreateFile("scratch", 16, /*prefilled=*/false);
  EXPECT_FALSE(pager_.HasData(f, 0));
  PageBuffer got;
  pager_.ReadPage(f, 0, 4096, [&](PageBuffer data) { got = std::move(data); });
  engine_.Run();
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(PageIsZero(got));
}

TEST_F(FilePagerTest, PrefilledFileHasDeterministicContents) {
  int32_t f = pager_.CreateFile("data", 16, /*prefilled=*/true);
  EXPECT_TRUE(pager_.HasData(f, 3));
  PageBuffer a;
  PageBuffer b;
  pager_.ReadPage(f, 3, 4096, [&](PageBuffer data) { a = std::move(data); });
  engine_.Run();
  pager_.ReadPage(f, 3, 4096, [&](PageBuffer data) { b = std::move(data); });
  engine_.Run();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(PageIsZero(a));
}

TEST_F(FilePagerTest, WriteThenReadReturnsWrittenData) {
  int32_t f = pager_.CreateFile("file", 16, /*prefilled=*/true);
  auto page = std::make_shared<std::vector<std::byte>>(4096);
  (*page)[100] = std::byte{0x5C};
  bool written = false;
  pager_.WritePage(f, 2, page, [&]() { written = true; });
  engine_.Run();
  EXPECT_TRUE(written);
  PageBuffer got;
  pager_.ReadPage(f, 2, 4096, [&](PageBuffer data) { got = std::move(data); });
  engine_.Run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ((*got)[100], std::byte{0x5C});
}

TEST_F(FilePagerTest, RequestsSerializeOnPagerCpu) {
  int32_t f = pager_.CreateFile("busy", 16, /*prefilled=*/false);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    pager_.GrantFresh(f, i, [&]() { done.push_back(engine_.Now()); });
  }
  engine_.Run();
  ASSERT_EQ(done.size(), 4u);
  for (size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i] - done[i - 1], FilePagerParams{}.request_cpu_ns);
  }
}

TEST_F(FilePagerTest, ReadAheadClustersDiskAccesses) {
  // §6 clustering: with a 7-page read-ahead window, a 32-page scan costs 4
  // disk operations instead of 32, and the staged pages serve from memory.
  FilePagerParams params;
  params.readahead_pages = 7;
  Disk disk(engine_, 0, DiskParams{}, stats_, trace_);
  FilePager pager(engine_, 0, &disk, params, stats_);
  int32_t f = pager.CreateFile("ra", 32, /*prefilled=*/true);
  for (int p = 0; p < 32; ++p) {
    PageBuffer got;
    pager.ReadPage(f, p, 4096, [&](PageBuffer data) { got = std::move(data); });
    engine_.Run();
    ASSERT_NE(got, nullptr) << "page " << p;
    std::vector<std::byte> want(4096);
    FilePager::FillPattern(f, p, want);
    EXPECT_EQ(*got, want) << "page " << p;
  }
  EXPECT_EQ(disk.reads(), 4);
}

TEST_F(FilePagerTest, ReadAheadOffMatchesLegacyBehaviour) {
  int32_t f = pager_.CreateFile("nora", 8, /*prefilled=*/true);
  for (int p = 0; p < 8; ++p) {
    pager_.ReadPage(f, p, 4096, [](PageBuffer) {});
    engine_.Run();
  }
  EXPECT_EQ(disk_.reads(), 8);
}

// Reference for FillPattern, written out independently: word k of (file, page)
// is splitmix64's output for counter k + 1 from the (file, page) seed.
uint64_t SplitMix64Word(int32_t file_id, PageIndex page, uint64_t k) {
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  const uint64_t seed = (static_cast<uint64_t>(static_cast<uint32_t>(file_id)) << 32) ^
                        static_cast<uint64_t>(page) ^ kGamma;
  uint64_t z = seed + (k + 1) * kGamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The little-endian value of `n` bytes at `p`.
uint64_t LoadLittleEndian(const std::byte* p, size_t n) {
  uint64_t value = 0;
  for (size_t i = 0; i < n; ++i) {
    value |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

TEST(FillPatternTest, IsDeterministic) {
  std::vector<std::byte> a(8192);
  std::vector<std::byte> b(8192, std::byte{0xAB});
  FilePager::FillPattern(3, 17, a);
  FilePager::FillPattern(3, 17, b);
  EXPECT_EQ(a, b);
}

TEST(FillPatternTest, EveryWordMatchesSplitMix64) {
  for (int32_t file : {0, 1, 7}) {
    for (PageIndex page : {0, 1, 511}) {
      std::vector<std::byte> out(8192);
      FilePager::FillPattern(file, page, out);
      for (uint64_t k = 0; k < out.size() / 8; ++k) {
        ASSERT_EQ(LoadLittleEndian(&out[8 * k], 8), SplitMix64Word(file, page, k))
            << "file " << file << " page " << page << " word " << k;
      }
    }
  }
}

TEST(FillPatternTest, PartialWordTakesLowBytesOfNextWord) {
  for (size_t size : {1, 7, 9, 4097}) {
    std::vector<std::byte> out(size);
    FilePager::FillPattern(2, 5, out);
    const size_t words = size / 8;
    for (uint64_t k = 0; k < words; ++k) {
      ASSERT_EQ(LoadLittleEndian(&out[8 * k], 8), SplitMix64Word(2, 5, k)) << size;
    }
    const size_t tail = size % 8;
    ASSERT_GT(tail, 0u);
    const uint64_t mask = (uint64_t{1} << (8 * tail)) - 1;
    EXPECT_EQ(LoadLittleEndian(&out[8 * words], tail), SplitMix64Word(2, 5, words) & mask)
        << size;
  }
}

TEST(FillPatternTest, PagesArePairwiseDistinct) {
  std::set<std::vector<std::byte>> pages;
  for (int32_t file = 0; file < 3; ++file) {
    for (PageIndex page = 0; page < 512; ++page) {
      std::vector<std::byte> out(8192);
      FilePager::FillPattern(file, page, out);
      pages.insert(std::move(out));
    }
  }
  EXPECT_EQ(pages.size(), 3u * 512);
}

TEST_F(FilePagerTest, SequentialReadsAreFasterThanRandom) {
  int32_t f = pager_.CreateFile("seq", 64, /*prefilled=*/true);
  // Sequential scan.
  SimTime t0 = engine_.Now();
  for (int i = 0; i < 8; ++i) {
    pager_.ReadPage(f, i, 4096, [](PageBuffer) {});
  }
  engine_.Run();
  SimDuration sequential = engine_.Now() - t0;
  // Random scan (alternating ends).
  t0 = engine_.Now();
  for (int i = 0; i < 8; ++i) {
    pager_.ReadPage(f, (i % 2 == 0) ? 40 + i : 10 + i, 4096, [](PageBuffer) {});
  }
  engine_.Run();
  SimDuration random = engine_.Now() - t0;
  EXPECT_LT(sequential, random / 2);
}

}  // namespace
}  // namespace asvm
