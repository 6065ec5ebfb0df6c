/**
 * Randomized property tests ("fuzz-lite"): each drives a component with
 * thousands of random operations against a reference model or invariant
 * checker. Seeds are fixed, so failures reproduce deterministically.
 */
#include <gtest/gtest.h>

#include <map>

#include "db/executor.h"
#include "db/parser.h"
#include "harness.h"
#include "sdk/heap.h"
#include "sdk/sealing.h"

namespace nesgx::test {
namespace {

// --- B-tree vs std::map reference model -------------------------------------

TEST(Fuzz, BtreeMatchesReferenceModel)
{
    db::Btree tree;
    std::map<db::Key, std::string> reference;
    Rng rng(0xB7EE);

    for (int op = 0; op < 20000; ++op) {
        db::Key key = db::Key(rng.nextBelow(500));
        switch (rng.nextBelow(4)) {
          case 0: {  // insert/replace
            std::string value = "v" + std::to_string(rng.nextBelow(1000));
            tree.insert(key, {value});
            reference[key] = value;
            break;
          }
          case 1: {  // find
            auto treeRow = tree.find(key);
            auto refIt = reference.find(key);
            ASSERT_EQ(treeRow.has_value(), refIt != reference.end())
                << "op " << op << " key " << key;
            if (treeRow) {
                ASSERT_EQ(treeRow->at(0), refIt->second);
            }
            break;
          }
          case 2: {  // erase
            bool treeErased = tree.erase(key);
            bool refErased = reference.erase(key) > 0;
            ASSERT_EQ(treeErased, refErased) << "op " << op;
            break;
          }
          case 3: {  // range scan
            db::Key lo = key;
            db::Key hi = key + db::Key(rng.nextBelow(50));
            std::vector<db::Key> fromTree;
            tree.scan(lo, hi,
                      [&](db::Key k, const db::Row&) {
                          fromTree.push_back(k);
                      });
            std::vector<db::Key> fromRef;
            for (auto it = reference.lower_bound(lo);
                 it != reference.end() && it->first <= hi; ++it) {
                fromRef.push_back(it->first);
            }
            ASSERT_EQ(fromTree, fromRef) << "op " << op;
            break;
          }
        }
        ASSERT_EQ(tree.size(), reference.size()) << "op " << op;
    }
    EXPECT_TRUE(tree.checkInvariants());
}

// --- SQL parser robustness ------------------------------------------------------

TEST(Fuzz, ParserNeverCrashesOnMutatedInput)
{
    Rng rng(0x9A25E);
    const std::vector<std::string> seeds = {
        "CREATE TABLE t (a, b)",
        "INSERT INTO t VALUES (1, 'x')",
        "SELECT * FROM t WHERE a = 1",
        "SELECT * FROM t WHERE a BETWEEN 1 AND 9",
        "UPDATE t SET b = 'y' WHERE a = 1",
        "DELETE FROM t WHERE a = 1",
    };
    for (int round = 0; round < 5000; ++round) {
        std::string sql = seeds[rng.nextBelow(seeds.size())];
        // Mutate: delete, duplicate or scramble random characters.
        int mutations = 1 + int(rng.nextBelow(4));
        for (int m = 0; m < mutations && !sql.empty(); ++m) {
            std::size_t pos = rng.nextBelow(sql.size());
            switch (rng.nextBelow(3)) {
              case 0: sql.erase(pos, 1); break;
              case 1: sql.insert(pos, 1, char('!' + rng.nextBelow(90))); break;
              case 2: sql[pos] = char('!' + rng.nextBelow(90)); break;
            }
        }
        // Must neither crash nor throw; malformed input returns an error.
        auto result = db::parseSql(sql);
        (void)result;
    }
    SUCCEED();
}

TEST(Fuzz, ExecutorHandlesRandomStatementStream)
{
    db::Database database;
    ASSERT_TRUE(database.execute("CREATE TABLE t (k, v)").ok);
    Rng rng(0xE8EC);
    std::uint64_t okCount = 0;
    for (int op = 0; op < 5000; ++op) {
        db::Key key = db::Key(rng.nextBelow(100));
        std::string sql;
        switch (rng.nextBelow(4)) {
          case 0:
            sql = "INSERT INTO t VALUES (" + std::to_string(key) + ", 'p')";
            break;
          case 1:
            sql = "SELECT * FROM t WHERE k = " + std::to_string(key);
            break;
          case 2:
            sql = "UPDATE t SET v = 'q' WHERE k = " + std::to_string(key);
            break;
          case 3:
            sql = "DELETE FROM t WHERE k = " + std::to_string(key);
            break;
        }
        auto result = database.execute(sql);
        if (result.ok) ++okCount;
    }
    EXPECT_GT(okCount, 4900u);  // everything well-formed should succeed
}

// --- trusted heap ------------------------------------------------------------------

TEST(Fuzz, HeapNeverHandsOutOverlappingBlocks)
{
    sdk::TrustedHeap heap(0x10000, 1 << 20);
    Rng rng(0x4EA9);
    std::map<hw::Vaddr, std::uint64_t> live;  // va -> requested size

    for (int op = 0; op < 20000; ++op) {
        if (live.empty() || rng.nextBelow(2) == 0) {
            std::uint64_t size = 1 + rng.nextBelow(2048);
            hw::Vaddr va = heap.alloc(size);
            if (va == 0) continue;  // exhausted is fine
            // No overlap with any live block.
            auto next = live.lower_bound(va);
            if (next != live.end()) {
                ASSERT_LE(va + size, next->first) << "op " << op;
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->first + prev->second, va) << "op " << op;
            }
            live[va] = size;
        } else {
            auto it = live.begin();
            std::advance(it, rng.nextBelow(live.size()));
            heap.free(it->first);
            live.erase(it);
        }
    }
}

// --- EPC paging churn -----------------------------------------------------------

TEST(Fuzz, PagingChurnPreservesContent)
{
    World world;
    NestedPair pair =
        loadNestedPair(world, tinySpec("fz-outer"), tinySpec("fz-inner"));

    // Stamp every outer heap page with a distinct pattern via the
    // validated path.
    const auto* rec = world.kernel.enclaveRecord(pair.outer->secsPage());
    hw::Vaddr heapBase =
        pair.outer->base() + pair.outer->image().heapOffset;
    std::vector<hw::Vaddr> heapPages;
    for (const auto& [va, pa] : rec->pages) {
        if (va >= heapBase &&
            va < heapBase + pair.outer->image().heapBytes) {
            heapPages.push_back(va);
        }
    }
    ASSERT_GE(heapPages.size(), 4u);

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
    for (std::size_t i = 0; i < heapPages.size(); ++i) {
        Bytes stamp(64, std::uint8_t(0xA0 + i));
        ASSERT_TRUE(world.machine
                        .write(0, heapPages[i], stamp.data(), stamp.size())
                        .isOk());
    }
    ASSERT_TRUE(world.machine.eexit(0).isOk());

    // Random evict/reload churn.
    Rng rng(0xC4EA);
    std::vector<bool> evicted(heapPages.size(), false);
    for (int op = 0; op < 500; ++op) {
        std::size_t i = rng.nextBelow(heapPages.size());
        if (evicted[i]) {
            ASSERT_TRUE(world.kernel
                            .reloadPage(pair.outer->secsPage(), heapPages[i])
                            .isOk())
                << "op " << op;
            evicted[i] = false;
        } else {
            ASSERT_TRUE(world.kernel
                            .evictPage(pair.outer->secsPage(), heapPages[i])
                            .isOk())
                << "op " << op;
            evicted[i] = true;
        }
    }
    for (std::size_t i = 0; i < heapPages.size(); ++i) {
        if (evicted[i]) {
            ASSERT_TRUE(world.kernel
                            .reloadPage(pair.outer->secsPage(), heapPages[i])
                            .isOk());
        }
    }

    // All stamps intact.
    ASSERT_TRUE(world.machine.eenter(0, tcs).isOk());
    for (std::size_t i = 0; i < heapPages.size(); ++i) {
        std::uint8_t buf[64];
        ASSERT_TRUE(world.machine.read(0, heapPages[i], buf, 64).isOk());
        EXPECT_EQ(buf[0], std::uint8_t(0xA0 + i)) << "page " << i;
        EXPECT_EQ(buf[63], std::uint8_t(0xA0 + i)) << "page " << i;
    }
    ASSERT_TRUE(world.machine.eexit(0).isOk());
}

// --- sealing ---------------------------------------------------------------------

class SealingFixture : public ::testing::Test {
  protected:
    void SetUp() override
    {
        world_ = std::make_unique<World>();
        auto load = [this](const sdk::EnclaveSpec& spec,
                            const crypto::RsaKeyPair& key) {
            return world_->urts->load(sdk::buildImage(spec, key),
                                      spec.interface);
        };
        enclaveA_ = load(tinySpec("seal-a"), authorKey()).orThrow("a");
        enclaveB_ = load(tinySpec("seal-b"), authorKey()).orThrow("b");
        stranger_ = load(tinySpec("seal-x"), otherAuthorKey()).orThrow("x");
    }

    template <typename Fn>
    void inEnclave(sdk::LoadedEnclave* e, Fn&& fn)
    {
        const auto* rec = world_->kernel.enclaveRecord(e->secsPage());
        hw::Paddr tcs = 0;
        for (const auto& [va, pa] : rec->pages) {
            if (world_->machine.epcm()
                    .entry(world_->machine.mem().epcPageIndex(pa))
                    .type == sgx::PageType::Tcs) {
                tcs = pa;
                break;
            }
        }
        ASSERT_TRUE(world_->machine.eenter(0, tcs).isOk());
        {
            sdk::TrustedEnv env(*world_->urts, *e, 0);
            fn(env);
        }
        ASSERT_TRUE(world_->machine.eexit(0).isOk());
    }

    std::unique_ptr<World> world_;
    sdk::LoadedEnclave* enclaveA_ = nullptr;
    sdk::LoadedEnclave* enclaveB_ = nullptr;
    sdk::LoadedEnclave* stranger_ = nullptr;
};

TEST_F(SealingFixture, SealUnsealRoundTrip)
{
    Bytes blob;
    inEnclave(enclaveA_, [&](sdk::TrustedEnv& env) {
        blob = sdk::sealData(env, bytesOf("persist me")).orThrow("seal");
    });
    inEnclave(enclaveA_, [&](sdk::TrustedEnv& env) {
        EXPECT_EQ(sdk::unsealData(env, blob).orThrow("unseal"),
                  bytesOf("persist me"));
    });
}

TEST_F(SealingFixture, SameAuthorDifferentEnclaveCanUnseal)
{
    // MRSIGNER-bound: seal-a's data migrates to seal-b (same author).
    Bytes blob;
    inEnclave(enclaveA_, [&](sdk::TrustedEnv& env) {
        blob = sdk::sealData(env, bytesOf("migrate me")).orThrow("seal");
    });
    inEnclave(enclaveB_, [&](sdk::TrustedEnv& env) {
        EXPECT_EQ(sdk::unsealData(env, blob).orThrow("unseal"),
                  bytesOf("migrate me"));
    });
}

TEST_F(SealingFixture, OtherAuthorCannotUnseal)
{
    Bytes blob;
    inEnclave(enclaveA_, [&](sdk::TrustedEnv& env) {
        blob = sdk::sealData(env, bytesOf("author bound")).orThrow("seal");
    });
    inEnclave(stranger_, [&](sdk::TrustedEnv& env) {
        EXPECT_FALSE(sdk::unsealData(env, blob).isOk());
    });
}

TEST_F(SealingFixture, TamperedBlobRejected)
{
    Bytes blob;
    inEnclave(enclaveA_, [&](sdk::TrustedEnv& env) {
        blob = sdk::sealData(env, bytesOf("integrity")).orThrow("seal");
    });
    blob[blob.size() / 2] ^= 1;
    inEnclave(enclaveA_, [&](sdk::TrustedEnv& env) {
        EXPECT_FALSE(sdk::unsealData(env, blob).isOk());
        EXPECT_FALSE(sdk::unsealData(env, Bytes(4, 0)).isOk());
    });
}

TEST_F(SealingFixture, FuzzRandomPayloadsRoundTrip)
{
    Rng rng(0x5EA1);
    inEnclave(enclaveA_, [&](sdk::TrustedEnv& env) {
        for (int i = 0; i < 50; ++i) {
            Bytes payload = rng.bytes(rng.nextBelow(600));
            Bytes blob = sdk::sealData(env, payload).orThrow("seal");
            EXPECT_EQ(sdk::unsealData(env, blob).orThrow("unseal"), payload);
        }
    });
}

}  // namespace
}  // namespace nesgx::test
