// Machine facade: construction of all three systems, region/file APIs,
// remote forks, and DSM-agnostic behaviour.
#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/core/measure.h"

namespace asvm {
namespace {

MachineConfig TestConfig(DsmKind kind, int nodes) {
  MachineConfig config;
  config.nodes = nodes;
  config.dsm = kind;
  return config;
}

class MachineAllSystems : public ::testing::TestWithParam<DsmKind> {};

TEST_P(MachineAllSystems, SharedRegionBasics) {
  Machine machine(TestConfig(GetParam(), 4));
  MemObjectId region = machine.CreateSharedRegion(0, 32);
  TaskMemory& a = machine.MapRegion(0, region);
  TaskMemory& b = machine.MapRegion(2, region);

  auto w = a.WriteU64(100, 7);
  machine.Run();
  ASSERT_TRUE(w.ready());
  auto r = b.ReadU64(100);
  machine.Run();
  ASSERT_TRUE(r.ready());
  EXPECT_EQ(r.value(), 7u);
}

TEST_P(MachineAllSystems, MappedFileRoundTrip) {
  Machine machine(TestConfig(GetParam(), 4));
  MemObjectId file = machine.CreateMappedFile("data", 16, /*prefilled=*/false);
  TaskMemory& a = machine.MapRegion(1, file);
  TaskMemory& b = machine.MapRegion(3, file);
  auto w = a.WriteU64(5 * 8192, 12345);
  machine.Run();
  ASSERT_TRUE(w.ready());
  auto r = b.ReadU64(5 * 8192);
  machine.Run();
  ASSERT_TRUE(r.ready());
  EXPECT_EQ(r.value(), 12345u);
}

TEST_P(MachineAllSystems, RemoteForkSnapshot) {
  Machine machine(TestConfig(GetParam(), 2));
  TaskMemory& parent = machine.CreatePrivateTask(0, 8);
  auto w = parent.WriteU64(0, 55);
  machine.Run();
  ASSERT_TRUE(w.ready());

  auto fork = machine.RemoteFork(0, parent, 1);
  machine.Run();
  ASSERT_TRUE(fork.ready());
  TaskMemory& child = machine.WrapMap(1, fork.value());
  auto r = child.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r.ready());
  EXPECT_EQ(r.value(), 55u);

  auto pw = parent.WriteU64(0, 77);
  machine.Run();
  ASSERT_TRUE(pw.ready());
  auto r2 = child.ReadU64(0);
  machine.Run();
  EXPECT_EQ(r2.value(), 55u) << "delayed-copy snapshot must hold";
}

TEST_P(MachineAllSystems, MeasureHelpersReportLatency) {
  Machine machine(TestConfig(GetParam(), 4));
  MemObjectId region = machine.CreateSharedRegion(0, 8);
  TaskMemory& a = machine.MapRegion(1, region);
  double ms = MeasureWriteMs(machine, a, 0, 1);
  EXPECT_GT(ms, 0.1);
  EXPECT_LT(ms, 100.0);
  TaskMemory& b = machine.MapRegion(2, region);
  uint64_t v = 0;
  double rms = MeasureReadMs(machine, b, 0, &v);
  EXPECT_EQ(v, 1u);
  EXPECT_GT(rms, 0.1);
}

// A private region that paged out before its first remote fork: the pages
// paging space holds must survive the export, in the parent and the child.
TEST_P(MachineAllSystems, RemoteForkAfterPageoutKeepsPagedOutPages) {
  MachineConfig config = TestConfig(GetParam(), 4);
  config.user_memory_bytes = 64 * config.page_size;
  Machine machine(config);
  constexpr VmSize kPages = 48;
  const size_t page = config.page_size;
  auto value = [](VmSize p) { return 1000 + p; };

  TaskMemory& parent = machine.CreatePrivateTask(0, kPages);
  for (VmSize p = 0; p < kPages; ++p) {
    auto w = parent.WriteU64(p * page, value(p));
    machine.Run();
    ASSERT_TRUE(w.ready());
  }
  // A second region of the same size pushes the parent's oldest pages out.
  TaskMemory& filler = machine.CreatePrivateTask(0, kPages);
  for (VmSize p = 0; p < kPages; ++p) {
    auto w = filler.WriteU64(p * page, 1);
    machine.Run();
    ASSERT_TRUE(w.ready());
  }
  ASSERT_EQ(machine.stats().Get("vm.pageouts"), 32);

  auto fork = machine.RemoteFork(0, parent, 1);
  machine.Run();
  ASSERT_TRUE(fork.ready());
  TaskMemory& child = machine.WrapMap(1, fork.value());
  for (TaskMemory* mem : {&child, &parent}) {
    int wrong = 0;
    for (VmSize p = 0; p < kPages; ++p) {
      auto r = mem->ReadU64(p * page);
      machine.Run();
      ASSERT_TRUE(r.ready());
      wrong += r.value() != value(p);
    }
    EXPECT_EQ(wrong, 0) << (mem == &child ? "child" : "parent") << " pages read wrong";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, MachineAllSystems,
                         ::testing::Values(DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy),
                         [](const ::testing::TestParamInfo<DsmKind>& info) {
                           return std::string(ToString(info.param));
                         });

TEST(MachineConfigTest, ParagonDefaults) {
  MachineConfig config;
  EXPECT_EQ(config.page_size, 8192u);
  ClusterParams params = config.ToClusterParams();
  EXPECT_EQ(params.vm.frame_capacity, 9u * 1024 * 1024 / 8192);
}

TEST(MachineConfigTest, DsmKindNames) {
  EXPECT_STREQ(ToString(DsmKind::kAsvm), "ASVM");
  EXPECT_STREQ(ToString(DsmKind::kXmm), "XMM");
}

TEST(MachineTest, AsvmIsFasterThanXmmOnRemoteWriteFault) {
  // The headline comparison, as a smoke check at machine level.
  double latencies[2];
  int i = 0;
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    Machine machine(TestConfig(kind, 8));
    MemObjectId region = machine.CreateSharedRegion(0, 8);
    TaskMemory& writer = machine.MapRegion(1, region);
    auto w = writer.WriteU64(0, 1);
    machine.Run();
    ASSERT_TRUE(w.ready());
    TaskMemory& reader = machine.MapRegion(2, region);
    MeasureReadMs(machine, reader, 0);
    TaskMemory& writer2 = machine.MapRegion(3, region);
    latencies[i++] = MeasureWriteMs(machine, writer2, 0, 2);
  }
  EXPECT_LT(latencies[0] * 2, latencies[1])
      << "ASVM write fault should be much faster than XMM's";
}

TEST(MachineTest, MetadataComparisonAcrossSystems) {
  // ASVM metadata ~ resident pages; XMM manager ~ pages x nodes.
  MachineConfig asvm_cfg = TestConfig(DsmKind::kAsvm, 16);
  Machine asvm_machine(asvm_cfg);
  MachineConfig xmm_cfg = TestConfig(DsmKind::kXmm, 16);
  Machine xmm_machine(xmm_cfg);

  const VmSize pages = 2048;  // 16 MB object
  for (Machine* m : {&asvm_machine, &xmm_machine}) {
    MemObjectId region = m->CreateSharedRegion(0, pages);
    TaskMemory& t = m->MapRegion(1, region);
    auto w = t.WriteU64(0, 1);  // touch one page
    m->Run();
    ASSERT_TRUE(w.ready());
  }
  // XMM's manager burns pages x nodes bytes even though one page is in use.
  EXPECT_GE(xmm_machine.DsmMetadataBytes(0), pages * 16);
  EXPECT_LT(asvm_machine.DsmMetadataBytes(0) + asvm_machine.DsmMetadataBytes(1),
            pages * 16 / 4);
}

}  // namespace
}  // namespace asvm
