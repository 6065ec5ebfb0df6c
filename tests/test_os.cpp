/** OS-model tests: processes, scheduling, memory management, the driver
 *  surface, and the hostile primitives' own behaviour. */
#include <gtest/gtest.h>

#include "harness.h"
#include "os/ipc.h"

namespace nesgx::test {
namespace {

TEST(OsKernel, ProcessesGetDistinctPageTables)
{
    World world;
    os::Pid p1 = world.kernel.createProcess();
    os::Pid p2 = world.kernel.createProcess();
    EXPECT_NE(p1, p2);
    EXPECT_NE(&world.kernel.process(p1).pageTable(),
              &world.kernel.process(p2).pageTable());
}

TEST(OsKernel, ScheduleSwitchesPageTableAndFlushesTlb)
{
    World world;
    os::Pid p2 = world.kernel.createProcess();

    // Touch something to populate core 0's TLB under the first process.
    hw::Vaddr va = world.kernel.mapUntrusted(world.pid, 1);
    std::uint8_t buf[4];
    ASSERT_TRUE(world.machine.read(0, va, buf, 4).isOk());
    EXPECT_GT(world.machine.core(0).tlb().size(), 0u);

    world.kernel.schedule(0, p2);
    EXPECT_EQ(world.machine.core(0).tlb().size(), 0u);
    EXPECT_EQ(world.machine.core(0).pageTable(),
              &world.kernel.process(p2).pageTable());

    // The same VA is unmapped in the new process.
    EXPECT_FALSE(world.machine.read(0, va, buf, 4).isOk());
}

TEST(OsKernel, MapUntrustedGivesUsableZeroedMemory)
{
    World world;
    hw::Vaddr va = world.kernel.mapUntrusted(world.pid, 3);
    Bytes data = bytesOf("hello across pages");
    // Write spanning a page boundary.
    hw::Vaddr target = va + hw::kPageSize - 7;
    ASSERT_TRUE(
        world.machine.write(0, target, data.data(), data.size()).isOk());
    Bytes back(data.size());
    ASSERT_TRUE(
        world.machine.read(0, target, back.data(), back.size()).isOk());
    EXPECT_EQ(back, data);
}

TEST(OsKernel, FrameAllocatorSkipsPrm)
{
    sgx::Machine::Config config;
    config.dramBytes = 8ull << 20;
    config.prmBase = 2ull << 20;
    config.prmBytes = 4ull << 20;
    World world(config);
    // Allocate more frames than fit below the PRM; none may fall in it.
    for (int i = 0; i < 700; ++i) {
        auto frame = world.kernel.allocFrame();
        if (!frame) break;
        EXPECT_FALSE(world.machine.mem().inPrm(frame.value())) << i;
    }
}

TEST(OsKernel, FrameAllocatorExhausts)
{
    sgx::Machine::Config config;
    config.dramBytes = 1ull << 20;  // 256 pages total
    config.prmBase = 0;
    config.prmBytes = 0;
    // PRM of zero size is rejected by PhysicalMemory? It is allowed
    // (prmBytes 0); EPC operations would fail but frames work.
    World world(config);
    int allocated = 0;
    for (int i = 0; i < 1000; ++i) {
        if (!world.kernel.allocFrame()) break;
        ++allocated;
    }
    EXPECT_GT(allocated, 200);
    EXPECT_LT(allocated, 256);
}

TEST(OsKernel, EnclaveRecordTracksPages)
{
    World world;
    auto spec = tinySpec("os-rec");
    auto enclave = world.urts->load(sdk::buildImage(spec, authorKey()),
                                    spec.interface)
                       .orThrow("load");
    const auto* rec = world.kernel.enclaveRecord(enclave->secsPage());
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->pages.size(), spec.totalPages());
    EXPECT_EQ(rec->pid, world.pid);
    EXPECT_EQ(world.kernel.enclaveRecord(0x123456), nullptr);
}

TEST(OsKernel, AssociateRejectsCrossProcessPairs)
{
    // Nested association only holds within one address space (§IV-A).
    World world;
    os::Pid other = world.kernel.createProcess();
    sdk::Urts otherUrts(world.kernel, other);

    auto outerSpec = tinySpec("os-xp-outer");
    outerSpec.allowedInners.push_back(expectSigner(authorKey()));
    auto innerSpec = tinySpec("os-xp-inner");
    innerSpec.expectedOuter = expectSigner(authorKey());

    auto outer = world.urts->load(sdk::buildImage(outerSpec, authorKey()),
                                  outerSpec.interface)
                     .orThrow("outer");
    auto inner = otherUrts.load(sdk::buildImage(innerSpec, authorKey()),
                                innerSpec.interface)
                     .orThrow("inner");
    Status st =
        world.kernel.associate(inner->secsPage(), outer->secsPage());
    EXPECT_EQ(st.code(), Err::OsError);
}

TEST(OsKernel, EvictUnknownPageFails)
{
    World world;
    auto spec = tinySpec("os-ev");
    auto enclave = world.urts->load(sdk::buildImage(spec, authorKey()),
                                    spec.interface)
                       .orThrow("load");
    EXPECT_EQ(world.kernel.evictPage(enclave->secsPage(), 0xdead000).code(),
              Err::OsError);
    EXPECT_EQ(world.kernel.reloadPage(enclave->secsPage(), 0xdead000).code(),
              Err::OsError);
    EXPECT_EQ(world.kernel.evictPage(0x9999, 0xdead000).code(),
              Err::OsError);
}

TEST(OsKernel, HostileReadPhysSeesRawFrames)
{
    World world;
    hw::Vaddr va = world.kernel.mapUntrusted(world.pid, 1);
    Bytes data = bytesOf("visible to a physical attacker");
    ASSERT_TRUE(world.machine.write(0, va, data.data(), data.size()).isOk());
    auto pa = world.urts->debugTranslate(va);
    ASSERT_TRUE(pa.isOk());
    Bytes raw = world.kernel.hostileReadPhys(pa.value(), data.size());
    // Untrusted memory is *not* protected from physical attack.
    EXPECT_EQ(raw, data);
}

// --- Eviction-victim selection ------------------------------------------------

TEST(OsKernel, EvictionCandidatesAreColdestFirstAndDeterministic)
{
    World world;
    std::vector<sdk::LoadedEnclave*> enclaves;
    for (int i = 0; i < 3; ++i) {
        auto spec = tinySpec("lru-" + std::to_string(i));
        enclaves.push_back(
            world.urts->load(sdk::buildImage(spec, authorKey()), spec.interface)
                .orThrow("load"));
    }

    // Creation order == use order so far: enclave 0 is coldest.
    auto candidates = world.kernel.evictionCandidates();
    ASSERT_EQ(candidates.size(), 3u);
    EXPECT_EQ(candidates[0], enclaves[0]->secsPage());
    EXPECT_EQ(candidates[2], enclaves[2]->secsPage());
    EXPECT_EQ(candidates, world.kernel.evictionCandidates());

    // Touching the coldest makes it the hottest; the rest shift up.
    world.kernel.touchEnclave(enclaves[0]->secsPage());
    candidates = world.kernel.evictionCandidates();
    EXPECT_EQ(candidates[0], enclaves[1]->secsPage());
    EXPECT_EQ(candidates[2], enclaves[0]->secsPage());
}

TEST(OsKernel, PickEvictVictimHonorsEligibilityAndPublishes)
{
    World world;
    std::vector<sdk::LoadedEnclave*> enclaves;
    for (int i = 0; i < 3; ++i) {
        auto spec = tinySpec("pick-" + std::to_string(i));
        enclaves.push_back(
            world.urts->load(sdk::buildImage(spec, authorKey()), spec.interface)
                .orThrow("load"));
    }
    std::uint64_t picksBefore = world.machine.trace().counters().victimPicks;

    auto victim = world.kernel.pickEvictVictim();
    ASSERT_TRUE(victim.isOk());
    EXPECT_EQ(victim.value(), enclaves[0]->secsPage());

    // A pinned coldest enclave is passed over for the next-coldest.
    hw::Paddr pinned = enclaves[0]->secsPage();
    victim = world.kernel.pickEvictVictim(
        [&](hw::Paddr secs) { return secs != pinned; });
    ASSERT_TRUE(victim.isOk());
    EXPECT_EQ(victim.value(), enclaves[1]->secsPage());

    // Nothing eligible -> NotFound, and no pick event is published.
    auto none =
        world.kernel.pickEvictVictim([](hw::Paddr) { return false; });
    EXPECT_EQ(none.status().code(), Err::NotFound);
    EXPECT_EQ(world.machine.trace().counters().victimPicks - picksBefore,
              2u);
}

TEST(OsKernel, EcallsRefreshLruOrder)
{
    World world;
    auto specA = tinySpec("lru-ecall-a");
    specA.interface->addEcall(
        "ping", [](sdk::TrustedEnv&, ByteView arg) -> Result<Bytes> {
            return Bytes(arg.begin(), arg.end());
        });
    auto specB = tinySpec("lru-ecall-b");
    auto a = world.urts->load(sdk::buildImage(specA, authorKey()),
                              specA.interface)
                 .orThrow("a");
    auto b = world.urts->load(sdk::buildImage(specB, authorKey()),
                              specB.interface)
                 .orThrow("b");

    // b was created last, so a is the victim of record...
    EXPECT_EQ(world.kernel.evictionCandidates().front(), a->secsPage());

    // ...until an entry into a marks it recently used.
    ASSERT_TRUE(world.urts->ecall(a, "ping", bytesOf("x")).isOk());
    EXPECT_EQ(world.kernel.evictionCandidates().front(), b->secsPage());
}

// --- IPC service edge cases ---------------------------------------------------

TEST(OsKernel, AddPageMeasurementFaultDoesNotLeakEpc)
{
    World world;
    auto image = sdk::buildImage(tinySpec("leak-probe"), authorKey());
    hw::Vaddr base = 0x5000'0000'0000ull;
    hw::Paddr secs = world.kernel
                         .createEnclave(world.pid, base, image->sizeBytes,
                                        image->spec.attributes)
                         .orThrow("create");

    std::size_t freeBefore = world.kernel.freeEpcPages();
    world.kernel.failNextEextend();
    const auto& page = image->pages.front();
    Status st = world.kernel.addPage(secs, base + page.offset, page.type,
                                     page.perms, ByteView(page.content));
    ASSERT_FALSE(st.isOk());

    // The EADD'd frame must come back: same free count, and no EPCM
    // entry owned by the enclave that the driver record doesn't know.
    EXPECT_EQ(world.kernel.freeEpcPages(), freeBefore);
    EXPECT_EQ(world.machine.epcm().countOwnedBy(secs), 1u)
        << "failed addPage left a page charged to the enclave";
    EXPECT_TRUE(world.kernel.enclaveRecord(secs)->pages.empty());

    // The enclave is still usable for further adds.
    EXPECT_TRUE(world.kernel
                    .addPage(secs, base + page.offset, page.type, page.perms,
                             ByteView(page.content))
                    .isOk());
}

TEST(OsKernel, DestroyWhileEnteredIsRetryable)
{
    World world;
    auto pair = loadNestedPair(world, tinySpec("dst-outer"),
                               tinySpec("dst-inner"));
    const auto* rec = world.kernel.enclaveRecord(pair.outer->secsPage());
    hw::Paddr tcs = 0;
    for (const auto& [va, pa] : rec->pages) {
        if (world.machine.epcm()
                .entry(world.machine.mem().epcPageIndex(pa))
                .type == sgx::PageType::Tcs) {
            tcs = pa;
            break;
        }
    }
    ASSERT_TRUE(world.machine.eenter(0, tcs).isOk());

    std::size_t pagesBefore = rec->pages.size();
    std::size_t freeBefore = world.kernel.freeEpcPages();
    Status st = world.kernel.destroyEnclave(pair.outer->secsPage());
    EXPECT_EQ(st.code(), Err::PageInUse);

    // Nothing was half-freed: the record keeps every page (a retry must
    // not EREMOVE frames already handed to someone else) and the free
    // list is untouched.
    rec = world.kernel.enclaveRecord(pair.outer->secsPage());
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->pages.size(), pagesBefore);
    EXPECT_EQ(world.kernel.freeEpcPages(), freeBefore);

    // After the thread leaves, the retry completes.
    ASSERT_TRUE(world.machine.eexit(0).isOk());
    EXPECT_TRUE(
        world.kernel.destroyEnclave(pair.inner->secsPage()).isOk());
    EXPECT_TRUE(
        world.kernel.destroyEnclave(pair.outer->secsPage()).isOk());
    EXPECT_EQ(world.kernel.enclaveRecord(pair.outer->secsPage()), nullptr);
}

TEST(Ipc, FifoOrder)
{
    os::IpcService ipc;
    auto ch = ipc.createChannel();
    ipc.send(ch, bytesOf("first"));
    ipc.send(ch, bytesOf("second"));
    EXPECT_EQ(*ipc.receive(ch), bytesOf("first"));
    EXPECT_EQ(*ipc.receive(ch), bytesOf("second"));
    EXPECT_FALSE(ipc.receive(ch).has_value());
}

TEST(Ipc, ChannelsAreIndependent)
{
    os::IpcService ipc;
    auto a = ipc.createChannel();
    auto b = ipc.createChannel();
    ipc.send(a, bytesOf("for a"));
    EXPECT_EQ(ipc.pending(a), 1u);
    EXPECT_EQ(ipc.pending(b), 0u);
    EXPECT_FALSE(ipc.receive(b).has_value());
    EXPECT_TRUE(ipc.receive(a).has_value());
}

TEST(Ipc, SelectiveDropPolicy)
{
    os::IpcService ipc;
    auto ch = ipc.createChannel();
    // Drop only messages containing "cert" — the Panoply-style targeted
    // drop (§VII-B).
    ipc.setDropPolicy([](os::ChannelId, const Bytes& msg) {
        std::string s(msg.begin(), msg.end());
        return s.find("cert") != std::string::npos;
    });
    ipc.send(ch, bytesOf("register cert callback"));
    ipc.send(ch, bytesOf("ordinary data"));
    auto got = ipc.receive(ch);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bytesOf("ordinary data"));
    EXPECT_EQ(ipc.droppedCount(), 1u);

    ipc.clearDropPolicy();
    ipc.send(ch, bytesOf("register cert callback"));
    EXPECT_TRUE(ipc.receive(ch).has_value());
}

TEST(Ipc, ReplayWithoutHistoryFails)
{
    os::IpcService ipc;
    auto ch = ipc.createChannel();
    EXPECT_FALSE(ipc.replayLast(ch));
    ipc.send(ch, bytesOf("x"));
    EXPECT_TRUE(ipc.replayLast(ch));
    EXPECT_EQ(ipc.pending(ch), 2u);
}

}  // namespace
}  // namespace nesgx::test
