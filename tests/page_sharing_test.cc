// Page contents are immutable once shared (src/machvm/page.h): a page handed
// to several holders is one buffer, and a write copies it first, so no holder
// ever sees another's write through the buffer they share.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/machvm/disk.h"
#include "src/machvm/file_pager.h"
#include "src/mappedfs/file_bench.h"

namespace asvm {
namespace {

MachineConfig Config(DsmKind kind, int nodes) {
  MachineConfig config;
  config.nodes = nodes;
  config.dsm = kind;
  return config;
}

// The first word of a prefilled file page.
uint64_t PatternWord(int32_t file_id, PageIndex page, size_t page_size) {
  std::vector<std::byte> bytes(page_size);
  FilePager::FillPattern(file_id, page, bytes);
  uint64_t word = 0;
  std::memcpy(&word, bytes.data(), sizeof(word));
  return word;
}

uint64_t Read(Machine& machine, TaskMemory& mem, VmOffset addr) {
  auto r = mem.ReadU64(addr);
  machine.Run();
  EXPECT_TRUE(r.ready());
  return r.ready() ? r.value() : 0;
}

void Write(Machine& machine, TaskMemory& mem, VmOffset addr, uint64_t value) {
  auto w = mem.WriteU64(addr, value);
  machine.Run();
  ASSERT_TRUE(w.ready());
  ASSERT_EQ(w.value(), Status::kOk);
}

class PageSharingTest : public ::testing::TestWithParam<DsmKind> {};

// (a) Every node reads the whole file: each reader's resident copy of a page
// is the one buffer the file pager filled, with FillPattern's bytes.
TEST_P(PageSharingTest, FileReadersHoldOneBufferPerPage) {
  constexpr int kNodes = 4;
  constexpr VmSize kPages = 16;
  constexpr PageIndex kPage = 5;
  Machine machine(Config(GetParam(), kNodes));
  const int32_t file_id = machine.cluster().file_pager().CreateFile("f", kPages, true);
  const MemObjectId region = machine.dsm().CreateFileRegion(file_id, kPages);
  RunParallelFileRead(machine, region, kPages, kNodes);

  std::vector<std::byte> want(machine.page_size());
  FilePager::FillPattern(file_id, kPage, want);
  const std::vector<std::byte>* first = nullptr;
  for (NodeId n = 0; n < kNodes; ++n) {
    std::shared_ptr<VmObject> repr = machine.cluster().vm(n).FindManaged(region);
    ASSERT_NE(repr, nullptr) << "node " << n;
    const VmPage* vp = repr->FindResident(kPage);
    ASSERT_NE(vp, nullptr) << "node " << n;
    if (first == nullptr) {
      first = &vp->contents();
    }
    EXPECT_EQ(&vp->contents(), first) << "node " << n << " holds its own copy";
    EXPECT_EQ(vp->contents(), want) << "node " << n;
  }
}

// (b) Two regions over one prefilled file start from the same pager buffer; a
// write through one must not show through the other, on any node.
TEST_P(PageSharingTest, WriteThroughOneFileRegionIsInvisibleThroughAnother) {
  constexpr VmSize kPages = 8;
  constexpr PageIndex kPage = 3;
  Machine machine(Config(GetParam(), 4));
  const size_t ps = machine.page_size();
  const int32_t file_id = machine.cluster().file_pager().CreateFile("f", kPages, true);
  const MemObjectId a = machine.dsm().CreateFileRegion(file_id, kPages);
  const MemObjectId b = machine.dsm().CreateFileRegion(file_id, kPages);
  TaskMemory& a1 = machine.MapRegion(1, a);
  TaskMemory& b1 = machine.MapRegion(1, b);
  TaskMemory& b2 = machine.MapRegion(2, b);
  const VmOffset addr = static_cast<VmOffset>(kPage) * ps;
  const uint64_t original = PatternWord(file_id, kPage, ps);

  ASSERT_EQ(Read(machine, b1, addr), original);
  ASSERT_EQ(Read(machine, a1, addr), original);
  Write(machine, a1, addr, ~original);
  EXPECT_EQ(Read(machine, a1, addr), ~original);
  EXPECT_EQ(Read(machine, b1, addr), original);
  EXPECT_EQ(Read(machine, b2, addr), original);
}

// (c) A remote fork's child keeps the pre-fork values after the parent
// writes, whether the child read a page before that write or only after it,
// and whether parent and child run on one shard thread or on different ones.
TEST_P(PageSharingTest, RemoteForkChildKeepsPreForkValuesAfterParentWrites) {
  constexpr VmSize kPages = 8;
  for (int shards : {1, 4}) {
    MachineConfig config = Config(GetParam(), 8);
    config.shards = shards;
    config.nodes_per_io_group = 2;  // four blocks, so shards=4 is real
    Machine machine(config);
    const size_t ps = machine.page_size();
    auto before = [](VmSize p) { return 100 + p; };
    TaskMemory& parent = machine.CreatePrivateTask(0, kPages);
    for (VmSize p = 0; p < kPages; ++p) {
      Write(machine, parent, p * ps, before(p));
    }
    auto fork = machine.RemoteFork(0, parent, 5);
    machine.Run();
    ASSERT_TRUE(fork.ready());
    TaskMemory& child = machine.WrapMap(5, fork.value());
    for (VmSize p = 0; p < kPages / 2; ++p) {
      ASSERT_EQ(Read(machine, child, p * ps), before(p)) << "shards " << shards << " page " << p;
    }
    for (VmSize p = 0; p < kPages; ++p) {
      Write(machine, parent, p * ps, 900 + p);
    }
    for (VmSize p = 0; p < kPages; ++p) {
      EXPECT_EQ(Read(machine, child, p * ps), before(p)) << "shards " << shards << " page " << p;
      EXPECT_EQ(Read(machine, parent, p * ps), 900 + p) << "shards " << shards << " page " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, PageSharingTest,
                         ::testing::Values(DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy),
                         [](const ::testing::TestParamInfo<DsmKind>& info) {
                           return std::string(ToString(info.param));
                         });

// (d) The pager serves a written page from what was written, not from its
// memo of the prefilled contents; unwritten pages still come from the memo.
TEST(FilePagerSharingTest, WrittenPageIsServedFromWrittenNotFromMemo) {
  Engine engine;
  StatsRegistry stats;
  TraceSink trace;
  Disk disk(engine, 0, DiskParams{}, stats, trace);
  FilePager pager(engine, 0, &disk, FilePagerParams{}, stats);
  const int32_t f = pager.CreateFile("f", 8, /*prefilled=*/true);
  auto read = [&](PageIndex page) {
    PageBuffer got;
    pager.ReadPage(f, page, 4096, [&](PageBuffer data) { got = std::move(data); });
    engine.Run();
    return got;
  };

  const PageBuffer filled = read(2);
  ASSERT_NE(filled, nullptr);
  EXPECT_EQ(read(2).get(), filled.get()) << "a prefilled page is filled once";

  auto bytes = std::make_shared<std::vector<std::byte>>(4096, std::byte{0x5C});
  const PageBuffer written = bytes;
  pager.WritePage(f, 2, written, {});
  engine.Run();
  const PageBuffer got = read(2);
  EXPECT_EQ(got.get(), written.get());
  EXPECT_EQ((*got)[0], std::byte{0x5C});

  std::vector<std::byte> want(4096);
  FilePager::FillPattern(f, 2, want);
  EXPECT_EQ(*filled, want) << "the write must not reach the memo's buffer";
  const PageBuffer other = read(3);
  FilePager::FillPattern(f, 3, want);
  EXPECT_EQ(*other, want);
  EXPECT_EQ(disk.reads(), 3) << "the memo must not change which reads go to disk";
}

}  // namespace
}  // namespace asvm
