// Result-log tests: CRC32C, the fixed-record binary format, torn-write
// recovery (truncate at the first corrupt record), and the resume iterator.
// The log is the durability layer under the crash-safe sweep — every
// corruption case here is a state a SIGKILL'd sweep can actually leave
// behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/result_log.hpp"

namespace repmpi::support {
namespace {

/// Fresh per-test path under the gtest temp dir; removes leftovers.
std::string temp_log_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "repmpi_rlog_" + name;
  std::remove(path.c_str());
  std::remove((path + ".blob").c_str());
  return path;
}

ResultRecord make_record(const std::string& key, CellStatus status,
                         const std::string& blob, std::uint32_t attempts = 1,
                         std::int32_t code = 0) {
  ResultRecord r;
  r.key = key;
  r.status = status;
  r.attempts = attempts;
  r.code = code;
  r.blob = blob;
  return r;
}

std::vector<ResultRecord> read_all(const std::string& path,
                                   bool* dropped = nullptr) {
  ResultLogReader reader(path);
  std::vector<ResultRecord> out;
  ResultRecord r;
  while (reader.next(&r)) out.push_back(r);
  if (dropped != nullptr) *dropped = reader.dropped_tail();
  return out;
}

/// Appends raw bytes to a file (simulates a torn trailing write).
void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Flips one byte at `offset`.
void corrupt_byte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x40));
}

constexpr long kHeaderBytes = 24;

TEST(Crc32c, KnownAnswerAndIncremental) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4).
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // Incremental computation must match one-shot.
  const std::uint32_t head = crc32c(digits, 4);
  EXPECT_EQ(crc32c(digits + 4, 5, head), crc32c(digits, 9));
  // Sensitivity: any byte change moves the checksum.
  const char tweaked[] = "123456780";
  EXPECT_NE(crc32c(tweaked, 9), crc32c(digits, 9));
}

TEST(ResultLog, AppendReadRoundtrip) {
  const std::string path = temp_log_path("roundtrip");
  {
    ResultLog log(path);
    EXPECT_FALSE(log.recovered_torn_tail());
    log.append(make_record("cell.a", CellStatus::kOk, "{\"x\": 1}\n"));
    log.append(make_record("cell.b", CellStatus::kTimeout, "", 3, 9));
    log.append(make_record("cell.c", CellStatus::kExit, "partial", 2, 7));
    EXPECT_EQ(log.records().size(), 3u);
  }
  bool dropped = true;
  const auto records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, "cell.a");
  EXPECT_EQ(records[0].status, CellStatus::kOk);
  EXPECT_EQ(records[0].blob, "{\"x\": 1}\n");
  EXPECT_EQ(records[1].key, "cell.b");
  EXPECT_EQ(records[1].status, CellStatus::kTimeout);
  EXPECT_EQ(records[1].attempts, 3u);
  EXPECT_EQ(records[1].code, 9);
  EXPECT_TRUE(records[1].blob.empty());
  EXPECT_EQ(records[2].key, "cell.c");
  EXPECT_EQ(records[2].blob, "partial");
}

TEST(ResultLog, MissingFileReadsEmpty) {
  const std::string path = temp_log_path("missing");
  bool dropped = true;
  EXPECT_TRUE(read_all(path, &dropped).empty());
  EXPECT_FALSE(dropped);
}

TEST(ResultLog, KeyTooLongThrows) {
  const std::string path = temp_log_path("longkey");
  ResultLog log(path);
  EXPECT_THROW(
      log.append(make_record(std::string(ResultLog::kMaxKeyLen + 1, 'k'),
                             CellStatus::kOk, "")),
      UsageError);
  // The longest legal key still roundtrips.
  const std::string max_key(ResultLog::kMaxKeyLen, 'k');
  log.append(make_record(max_key, CellStatus::kOk, "b"));
  EXPECT_EQ(read_all(path).at(0).key, max_key);
}

TEST(ResultLog, TornTrailingRecordTruncated) {
  const std::string path = temp_log_path("torn");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  // A writer died mid-record: half a record of plausible-looking bytes.
  append_bytes(path, std::string(ResultLog::kRecordSize / 2, 'X'));

  bool dropped = false;
  auto records = read_all(path, &dropped);
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 2u);

  // Reopening for append truncates the torn tail and keeps working.
  {
    ResultLog log(path);
    EXPECT_TRUE(log.recovered_torn_tail());
    EXPECT_EQ(log.records().size(), 2u);
    log.append(make_record("c", CellStatus::kOk, "blob-c"));
  }
  records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].key, "c");
  EXPECT_EQ(records[2].blob, "blob-c");
}

TEST(ResultLog, FullSizeGarbageRecordTruncated) {
  // A torn write that happens to be record-sized must still be rejected
  // (CRC catches it), not parsed as a record.
  const std::string path = temp_log_path("garbage");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  append_bytes(path, std::string(ResultLog::kRecordSize, '\xAB'));
  bool dropped = false;
  EXPECT_EQ(read_all(path, &dropped).size(), 1u);
  EXPECT_TRUE(dropped);
}

TEST(ResultLog, CorruptMiddleRecordTruncatesFromThere) {
  const std::string path = temp_log_path("middle");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
    log.append(make_record("c", CellStatus::kOk, "blob-c"));
  }
  // Flip a byte inside record 2 (index 1): recovery keeps only record 1 —
  // append-only logs cannot trust anything past the first bad record.
  corrupt_byte(path, kHeaderBytes + ResultLog::kRecordSize + 10);
  bool dropped = false;
  const auto records = read_all(path, &dropped);
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "a");
}

TEST(ResultLog, CorruptBlobDetectedViaBlobCrc) {
  const std::string path = temp_log_path("blobcrc");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  corrupt_byte(path + ".blob", 7);  // inside record b's blob bytes
  bool dropped = false;
  const auto records = read_all(path, &dropped);
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "a");
}

TEST(ResultLog, CorruptHeaderStartsFresh) {
  const std::string path = temp_log_path("header");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  corrupt_byte(path, 2);  // inside the magic
  bool dropped = false;
  EXPECT_TRUE(read_all(path, &dropped).empty());
  EXPECT_TRUE(dropped);
  // A writer on a header-corrupt log starts over cleanly.
  {
    ResultLog log(path);
    EXPECT_TRUE(log.recovered_torn_tail());
    EXPECT_TRUE(log.records().empty());
    log.append(make_record("fresh", CellStatus::kOk, "x"));
  }
  const auto records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "fresh");
}

TEST(ResultLog, RecoveryTruncatesOrphanBlobBytes) {
  // Crash between blob append and record append: blob bytes with no record
  // pointing at them. Recovery must drop them so the next append's offsets
  // are consistent.
  const std::string path = temp_log_path("orphanblob");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  append_bytes(path + ".blob", "orphaned-bytes-from-a-dead-writer");
  {
    ResultLog log(path);
    EXPECT_EQ(log.records().size(), 1u);
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  bool dropped = false;
  const auto records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].blob, "blob-b");
}

TEST(ResultLog, LatestByKeySelectsLastRecord) {
  const std::string path = temp_log_path("latest");
  ResultLog log(path);
  log.append(make_record("a", CellStatus::kCrash, "", 3, 11));
  log.append(make_record("b", CellStatus::kOk, "b1"));
  log.append(make_record("a", CellStatus::kOk, "a2", 1));  // re-run succeeded
  const auto latest = log.latest_by_key();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at("a").status, CellStatus::kOk);
  EXPECT_EQ(latest.at("a").blob, "a2");
  EXPECT_EQ(latest.at("b").blob, "b1");
}

TEST(ResultLog, ConcurrentReaderSeesOnlyWholeValidRecords) {
  // `repmpi_sweep --dump` may read a log a running sweep is still
  // appending to. The reader must only ever observe whole, CRC-valid
  // records — at worst it stops early at the writer's in-progress tail,
  // never returns garbage.
  const std::string path = temp_log_path("concurrent");
  constexpr int kRecords = 400;
  std::atomic<int> written{0};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    ResultLog log(path);
    for (int i = 0; i < kRecords; ++i) {
      const std::string blob =
          "blob-" + std::to_string(i) + "-" + std::string(i % 97, 'x');
      log.append(make_record("cell." + std::to_string(i), CellStatus::kOk,
                             blob, static_cast<std::uint32_t>(i % 7 + 1)));
      written.store(i + 1, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Every record a scan yields must be internally consistent: the
  // key/blob pairing below only holds for uncorrupted records.
  const auto scan = [&path](std::size_t* out_n) {
    ResultLogReader reader(path);
    ResultRecord r;
    std::size_t n = 0;
    while (reader.next(&r)) {
      ASSERT_EQ(r.key, "cell." + std::to_string(n));
      ASSERT_EQ(r.blob.rfind("blob-" + std::to_string(n) + "-", 0), 0u);
      ASSERT_EQ(r.blob.size(), 5 + std::to_string(n).size() + 1 + n % 97);
      ++n;
    }
    *out_n = n;
  };

  std::size_t scans = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    const int floor_count = written.load(std::memory_order_acquire);
    std::size_t n = 0;
    ASSERT_NO_FATAL_FAILURE(scan(&n));
    // Appends are durable in order: everything written before the scan
    // started must be visible to it.
    ASSERT_GE(n, static_cast<std::size_t>(floor_count));
    ++scans;
  }
  writer.join();
  EXPECT_GE(scans, 1u);  // at least one scan raced live appends
  std::size_t final_n = 0;
  ASSERT_NO_FATAL_FAILURE(scan(&final_n));
  EXPECT_EQ(final_n, static_cast<std::size_t>(kRecords));
}

TEST(VerifyLog, CleanLogReportsOkPerRecord) {
  const std::string path = temp_log_path("verify_clean");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kCrash, "", 3, 9));
  }
  std::ostringstream out;
  const LogVerifyReport rep = verify_result_log(path, &out);
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.exists);
  EXPECT_TRUE(rep.header_ok);
  EXPECT_EQ(rep.records_ok, 2u);
  EXPECT_EQ(rep.bad_bytes, 0u);
  EXPECT_EQ(rep.orphan_blob_bytes, 0u);
  EXPECT_TRUE(rep.first_error.empty());
  const std::string text = out.str();
  EXPECT_NE(text.find("record 0: ok key=a"), std::string::npos);
  EXPECT_NE(text.find("record 1: ok key=b"), std::string::npos);
  EXPECT_NE(text.find("clean"), std::string::npos);
}

TEST(VerifyLog, MissingAndEmptyLogs) {
  const std::string missing = temp_log_path("verify_missing");
  LogVerifyReport rep = verify_result_log(missing, nullptr);
  EXPECT_FALSE(rep.exists);
  EXPECT_FALSE(rep.clean());

  const std::string empty = temp_log_path("verify_empty");
  { ResultLog log(empty); }  // header only, no records
  rep = verify_result_log(empty, nullptr);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.records_ok, 0u);
}

TEST(VerifyLog, TornTailReportsTruncationPoint) {
  const std::string path = temp_log_path("verify_torn");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  append_bytes(path, std::string(ResultLog::kRecordSize / 2, 'X'));
  std::ostringstream out;
  const LogVerifyReport rep = verify_result_log(path, &out);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(rep.header_ok);
  EXPECT_EQ(rep.records_ok, 2u);
  EXPECT_EQ(rep.bad_bytes, ResultLog::kRecordSize / 2);
  // The truncation point a recovery would use: exactly the valid prefix.
  EXPECT_EQ(rep.valid_log_bytes, 24u + 2 * ResultLog::kRecordSize);
  EXPECT_FALSE(rep.first_error.empty());
  EXPECT_NE(out.str().find("CORRUPT"), std::string::npos);
}

TEST(VerifyLog, RecordCrcAndBlobCrcCorruptionClassified) {
  const std::string path = temp_log_path("verify_crc");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
    log.append(make_record("c", CellStatus::kOk, "blob-c"));
  }
  corrupt_byte(path, kHeaderBytes + ResultLog::kRecordSize + 10);
  LogVerifyReport rep = verify_result_log(path, nullptr);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.records_ok, 1u);
  EXPECT_NE(rep.first_error.find("record 1"), std::string::npos);

  // Blob-side corruption: the record file is pristine, the pointed-to
  // bytes are not — verify must catch it via the blob CRC.
  const std::string path2 = temp_log_path("verify_blobcrc");
  {
    ResultLog log(path2);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  corrupt_byte(path2 + ".blob", 7);
  rep = verify_result_log(path2, nullptr);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.records_ok, 1u);
  EXPECT_NE(rep.first_error.find("blob"), std::string::npos);
}

TEST(VerifyLog, OrphanBlobBytesReported) {
  const std::string path = temp_log_path("verify_orphan");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  append_bytes(path + ".blob", "dead-writer-droppings");
  const LogVerifyReport rep = verify_result_log(path, nullptr);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.records_ok, 1u);
  EXPECT_EQ(rep.orphan_blob_bytes, 21u);
  EXPECT_NE(rep.first_error.find("orphan"), std::string::npos);
}

TEST(ResultLog, StatusNamesAreDistinct) {
  EXPECT_STREQ(to_string(CellStatus::kOk), "ok");
  EXPECT_STREQ(to_string(CellStatus::kCrash), "crash");
  EXPECT_STREQ(to_string(CellStatus::kTimeout), "timeout");
  EXPECT_STREQ(to_string(CellStatus::kExit), "exit");
  EXPECT_STREQ(to_string(CellStatus::kCorrupt), "corrupt");
}

}  // namespace
}  // namespace repmpi::support
