#include "mh/hdfs/block_store.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "mh/common/error.h"
#include "mh/common/rng.h"

namespace mh::hdfs {
namespace {

namespace fs = std::filesystem;

Bytes randomPayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  Bytes out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng.uniform(256)));
  }
  return out;
}

// Parameterized over both store implementations: the contract is identical.
class BlockStoreTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "file") {
      root_ = fs::temp_directory_path() /
              ("mh_bs_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name());
      fs::remove_all(root_);
      store_ = std::make_unique<FileBlockStore>(root_);
    } else {
      store_ = std::make_unique<MemBlockStore>();
    }
  }

  void TearDown() override {
    store_.reset();
    if (!root_.empty()) fs::remove_all(root_);
  }

  std::unique_ptr<BlockStore> store_;
  fs::path root_;
};

TEST_P(BlockStoreTest, WriteReadRoundTrip) {
  const Bytes payload = randomPayload(10'000, 1);
  store_->writeBlock(7, payload);
  EXPECT_EQ(store_->readBlock(7), payload);
  EXPECT_EQ(store_->blockSize(7), payload.size());
  EXPECT_TRUE(store_->hasBlock(7));
}

TEST_P(BlockStoreTest, EmptyBlock) {
  store_->writeBlock(1, "");
  EXPECT_EQ(store_->readBlock(1), "");
  EXPECT_EQ(store_->blockSize(1), 0u);
}

TEST_P(BlockStoreTest, MissingBlockThrows) {
  EXPECT_THROW(store_->readBlock(99), NotFoundError);
  EXPECT_THROW(store_->blockSize(99), NotFoundError);
  EXPECT_FALSE(store_->hasBlock(99));
}

TEST_P(BlockStoreTest, OverwriteReplacesContent) {
  store_->writeBlock(3, "old");
  store_->writeBlock(3, "new content");
  EXPECT_EQ(store_->readBlock(3), "new content");
}

TEST_P(BlockStoreTest, DeleteRemovesBlock) {
  store_->writeBlock(5, "x");
  store_->deleteBlock(5);
  EXPECT_FALSE(store_->hasBlock(5));
  EXPECT_THROW(store_->readBlock(5), NotFoundError);
}

TEST_P(BlockStoreTest, ListBlocksSorted) {
  store_->writeBlock(30, "c");
  store_->writeBlock(10, "a");
  store_->writeBlock(20, "b");
  const auto ids = store_->listBlocks();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 10u);
  EXPECT_EQ(ids[1], 20u);
  EXPECT_EQ(ids[2], 30u);
}

TEST_P(BlockStoreTest, UsedBytesSumsPayloads) {
  store_->writeBlock(1, Bytes(100, 'a'));
  store_->writeBlock(2, Bytes(250, 'b'));
  EXPECT_EQ(store_->usedBytes(), 350u);
}

TEST_P(BlockStoreTest, CorruptionDetectedOnRead) {
  const Bytes payload = randomPayload(4096, 2);
  store_->writeBlock(9, payload);
  store_->corruptBlock(9, 1000);
  EXPECT_THROW(store_->readBlock(9), ChecksumError);
}

TEST_P(BlockStoreTest, CorruptionInLastPartialChunkDetected) {
  // 1000 bytes = one full 512B chunk + one partial chunk.
  store_->writeBlock(9, randomPayload(1000, 3));
  store_->corruptBlock(9, 990);
  EXPECT_THROW(store_->readBlock(9), ChecksumError);
}

TEST_P(BlockStoreTest, CorruptionAfterVerifiedReadStillDetected) {
  // Read verification is cached per resident replica (verified-once); the
  // cache MUST be dropped when the payload changes, or corruption injected
  // between two reads would slip through.
  store_->writeBlock(9, randomPayload(4096, 2));
  store_->readBlock(9);  // verifies and caches the verdict
  store_->readBlock(9);  // served from the verified replica
  store_->corruptBlock(9, 1000);
  EXPECT_THROW(store_->readBlock(9), ChecksumError);
  // Overwrite resets the cache too: the fresh payload verifies cleanly.
  store_->writeBlock(9, "clean again");
  EXPECT_EQ(store_->readBlock(9), "clean again");
}

TEST_P(BlockStoreTest, ScanAllFindsOnlyCorruptBlocks) {
  store_->writeBlock(1, randomPayload(2048, 4));
  store_->writeBlock(2, randomPayload(2048, 5));
  store_->writeBlock(3, randomPayload(2048, 6));
  store_->corruptBlock(2, 17);
  const auto bad = store_->scanAll();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 2u);
}

TEST_P(BlockStoreTest, ReadRange) {
  store_->writeBlock(4, "0123456789");
  EXPECT_EQ(store_->readBlockRange(4, 0, 4), "0123");
  EXPECT_EQ(store_->readBlockRange(4, 5, 100), "56789");
  EXPECT_EQ(store_->readBlockRange(4, 10, 5), "");
  EXPECT_THROW(store_->readBlockRange(4, 11, 1), InvalidArgumentError);
}

TEST_P(BlockStoreTest, ReadRangeZeroLength) {
  store_->writeBlock(4, "0123456789");
  EXPECT_EQ(store_->readBlockRange(4, 0, 0), "");
  EXPECT_EQ(store_->readBlockRange(4, 5, 0), "");
  // Zero-length at exactly the end is a valid empty read, not an error.
  EXPECT_EQ(store_->readBlockRange(4, 10, 0), "");
}

TEST_P(BlockStoreTest, ReadsAreViewsOfStoredPayload) {
  const Bytes payload = randomPayload(4096, 11);
  store_->writeBlock(8, payload);
  const BufferView whole = store_->readBlock(8);
  const BufferView range = store_->readBlockRange(8, 100, 50);
  EXPECT_EQ(whole, payload);
  EXPECT_EQ(range, std::string_view(payload).substr(100, 50));
}

TEST(MemBlockStoreTest, ReadsAliasTheResidentReplica) {
  MemBlockStore store;
  store.writeBlock(8, randomPayload(4096, 11));
  const BufferView first = store.readBlock(8);
  const BufferView second = store.readBlock(8);
  const BufferView range = store.readBlockRange(8, 100, 50);
  // Every read serves the same resident buffer — zero payload copies.
  EXPECT_EQ(first.view().data(), second.view().data());
  EXPECT_EQ(range.view().data(), first.view().data() + 100);
}

TEST_P(BlockStoreTest, OutstandingViewsDoNotInflateUsedBytes) {
  store_->writeBlock(1, Bytes(1000, 'a'));
  const uint64_t before = store_->usedBytes();
  std::vector<BufferView> views;
  for (int i = 0; i < 16; ++i) views.push_back(store_->readBlock(1));
  // Shared buffers are charged once, no matter how many views are out.
  EXPECT_EQ(store_->usedBytes(), before);
}

TEST_P(BlockStoreTest, OverwriteAndDeleteKeepUsedBytesExact) {
  store_->writeBlock(1, Bytes(100, 'a'));
  store_->writeBlock(2, Bytes(250, 'b'));
  store_->writeBlock(1, Bytes(40, 'c'));  // overwrite shrinks the charge
  EXPECT_EQ(store_->usedBytes(), 290u);
  store_->deleteBlock(2);
  EXPECT_EQ(store_->usedBytes(), 40u);
  store_->deleteBlock(1);
  EXPECT_EQ(store_->usedBytes(), 0u);
}

TEST_P(BlockStoreTest, ViewSurvivesDeleteAndOverwrite) {
  const Bytes payload = randomPayload(2048, 12);
  store_->writeBlock(6, payload);
  const BufferView view = store_->readBlock(6);
  store_->writeBlock(6, "replaced");
  store_->deleteBlock(6);
  // The view's refcount keeps the original payload alive (no use-after-free
  // for readers holding views across a delete — ASan would catch it).
  EXPECT_EQ(view, payload);
}

TEST_P(BlockStoreTest, CorruptMissingBlockThrows) {
  EXPECT_THROW(store_->corruptBlock(42, 0), NotFoundError);
}

INSTANTIATE_TEST_SUITE_P(Stores, BlockStoreTest,
                         ::testing::Values("mem", "file"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(FileBlockStoreTest, AdoptsExistingBlocksOnRestart) {
  const fs::path root =
      fs::temp_directory_path() / ("mh_bs_restart_" + std::to_string(::getpid()));
  fs::remove_all(root);
  {
    FileBlockStore store(root);
    store.writeBlock(11, "persisted");
  }
  {
    FileBlockStore store(root);  // simulated DataNode restart
    ASSERT_TRUE(store.hasBlock(11));
    EXPECT_EQ(store.readBlock(11), "persisted");
  }
  fs::remove_all(root);
}

// Compression seam: same contract, replicas resident as framed streams.
class CompressedBlockStoreTest : public BlockStoreTest {
 protected:
  void SetUp() override {
    BlockStoreTest::SetUp();
    store_->configureCodec(codecFromName("mh-lz"));
  }

  static Bytes compressiblePayload(size_t n) {
    Bytes out;
    while (out.size() < n) out += "hdfs block compression seam payload ";
    out.resize(n);
    return out;
  }
};

TEST_P(CompressedBlockStoreTest, RoundTripReportsRawAndStoredSizes) {
  const Bytes payload = compressiblePayload(100'000);
  store_->writeBlock(7, payload);
  EXPECT_EQ(store_->readBlock(7), payload);
  // blockSize is the logical size the namespace accounts in; the resident
  // replica (and usedBytes) is the compressed stream.
  EXPECT_EQ(store_->blockSize(7), payload.size());
  EXPECT_LT(store_->storedSize(7), payload.size() / 2);
  EXPECT_EQ(store_->usedBytes(), store_->storedSize(7));
  const StoredReplica replica = store_->readStored(7);
  EXPECT_EQ(replica.codec, CodecKind::kMhLz);
  EXPECT_EQ(replica.raw_size, payload.size());
  EXPECT_EQ(replica.stored.size(), store_->storedSize(7));
}

TEST_P(CompressedBlockStoreTest, RangeReadDecodesOnlyCoveringFrames) {
  const Bytes payload = compressiblePayload(3 * kCodecFrameRawBytes + 1000);
  store_->writeBlock(4, payload);
  for (size_t off : {size_t{0}, kCodecFrameRawBytes - 3,
                     2 * kCodecFrameRawBytes + 11, payload.size() - 1}) {
    EXPECT_EQ(store_->readBlockRange(4, off, 200),
              std::string_view(payload).substr(off, 200));
  }
  EXPECT_EQ(store_->readBlockRange(4, payload.size(), 5), "");
  EXPECT_THROW(store_->readBlockRange(4, payload.size() + 1, 1),
               InvalidArgumentError);
}

TEST_P(CompressedBlockStoreTest, CorruptionDetectedOnCompressedReplica) {
  store_->writeBlock(9, compressiblePayload(50'000));
  store_->readBlock(9);  // verified-once cache primed on the stored form
  store_->corruptBlock(9, 2000);
  // Chunk CRCs cover the stored bytes, so the flip is caught before decode.
  EXPECT_THROW(store_->readBlock(9), ChecksumError);
  const auto bad = store_->scanAll();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 9u);
}

TEST_P(CompressedBlockStoreTest, AdoptedCorruptFrameFailsAtDecode) {
  // Replication receive: chunk checksums are computed over the wire bytes,
  // so a frame corrupted in transit passes chunk verification but the
  // frame CRC rejects it at decode — the same ChecksumError shape that
  // drives replica sweeps.
  const Bytes payload = compressiblePayload(50'000);
  Bytes stream = codecEncode(CodecKind::kMhLz, payload);
  stream[stream.size() - 20] ^= 0x10;  // corrupt "in transit"
  store_->adoptStored(3, std::move(stream));
  EXPECT_EQ(store_->blockSize(3), payload.size());
  EXPECT_THROW(store_->readBlock(3), Error);
  try {
    store_->readBlock(3);
    FAIL() << "corrupt adopted frame must not decode";
  } catch (const ChecksumError&) {
  } catch (const InvalidArgumentError&) {
    // Depending on which byte the flip lands in, damage may be structural.
  }
}

TEST_P(CompressedBlockStoreTest, RawReplicasRemainReadable) {
  // A block written before compression was enabled must stay readable.
  store_->configureCodec(CodecKind::kNone);
  store_->writeBlock(1, "written before the codec era");
  store_->configureCodec(codecFromName("mh-lz"));
  EXPECT_EQ(store_->readBlock(1), "written before the codec era");
  EXPECT_EQ(store_->readStored(1).codec, CodecKind::kNone);
}

TEST_P(CompressedBlockStoreTest, CodecMismatchIsIoErrorNotChecksumError) {
  // An mh-lz replica served by a store configured for a different codec is
  // a configuration error, not data corruption — it must not trigger the
  // replica-sweep machinery.
  store_->writeBlock(2, compressiblePayload(10'000));
  store_->configureCodec(codecFromName("var-rle"));
  try {
    store_->readBlock(2);
    FAIL() << "cross-codec read must be rejected";
  } catch (const ChecksumError&) {
    FAIL() << "mismatch must not masquerade as corruption";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("mh-lz"), std::string::npos);
  }
}

TEST_P(CompressedBlockStoreTest, EmptyBlockCompressed) {
  store_->writeBlock(1, "");
  EXPECT_EQ(store_->readBlock(1), "");
  EXPECT_EQ(store_->blockSize(1), 0u);
}

INSTANTIATE_TEST_SUITE_P(Stores, CompressedBlockStoreTest,
                         ::testing::Values("mem", "file"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(FileBlockStoreTest, CompressedReplicaSurvivesRestart) {
  const fs::path root = fs::temp_directory_path() /
                        ("mh_bs_codec_restart_" + std::to_string(::getpid()));
  fs::remove_all(root);
  Bytes payload;
  while (payload.size() < 80'000) payload += "restart survives compression ";
  {
    FileBlockStore store(root);
    store.configureCodec(codecFromName("mh-lz"));
    store.writeBlock(11, payload);
  }
  {
    FileBlockStore store(root);  // restart: meta v2 carries codec + raw size
    store.configureCodec(codecFromName("mh-lz"));
    ASSERT_TRUE(store.hasBlock(11));
    EXPECT_EQ(store.blockSize(11), payload.size());
    EXPECT_LT(store.storedSize(11), payload.size());
    EXPECT_EQ(store.readBlock(11), payload);
    EXPECT_TRUE(store.scanAll().empty());
  }
  fs::remove_all(root);
}

TEST(ChunkChecksumTest, ChunkCountMatchesPayload) {
  EXPECT_EQ(chunkChecksums("").size(), 1u);
  EXPECT_EQ(chunkChecksums(Bytes(512, 'x')).size(), 1u);
  EXPECT_EQ(chunkChecksums(Bytes(513, 'x')).size(), 2u);
  EXPECT_EQ(chunkChecksums(Bytes(5 * 512, 'x')).size(), 5u);
}

TEST(ChunkChecksumTest, VerifyDetectsWrongChunkCount) {
  const Bytes data(600, 'x');
  auto crcs = chunkChecksums(data);
  crcs.pop_back();
  EXPECT_THROW(verifyChunks(1, data, crcs), ChecksumError);
}

}  // namespace
}  // namespace mh::hdfs
