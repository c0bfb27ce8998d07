#pragma once

// Append-only binary result log for sweep execution (the Cai900205
// fixed-record idiom: every record is the same size, so recovery and resume
// are a sequential scan, never a parse).
//
// Layout: two files. `<path>` holds a 24-byte header followed by fixed-size
// 96-byte records; `<path>.blob` holds the variable-length metrics blobs the
// records point into (offset + length + CRC32C). A record is written only
// after its blob, and both files are flushed per append, so the record file
// is always the source of truth: a crash mid-append leaves at worst a torn
// trailing record, never a record referencing missing blob bytes.
//
// Torn-write recovery: opening a log scans records sequentially and
// truncates both files at the FIRST record that fails any check (record
// CRC, key termination, blob range, blob CRC). Everything before the torn
// record is kept — a killed sweep resumes from exactly the cells whose
// results were durably recorded.
//
// Fault injection (chaos tests): REPMPI_FAULT_LOG_ABORT=n makes the n-th
// append() of this process write half a record, flush, and _exit — the torn
// write the recovery path must tolerate.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace repmpi::support {

/// CRC32C (Castagnoli), the checksum guarding records and blobs. `crc` seeds
/// incremental computation; pass 0 to start.
std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t crc = 0);

/// Terminal status of one sweep cell. kOk is the only success; the rest are
/// the distinct failure classes the supervisor records after retries.
enum class CellStatus : std::uint32_t {
  kOk = 0,       ///< worker exited 0 with valid output
  kCrash = 1,    ///< worker died on a signal (SIGKILL, SIGSEGV, ...)
  kTimeout = 2,  ///< worker exceeded its wall-clock deadline and was killed
  kExit = 3,     ///< worker exited with a nonzero status
  kCorrupt = 4,  ///< worker exited 0 but its output failed validation
};

const char* to_string(CellStatus status);

/// One logical record: the scenario key, how the cell ended, and its metrics
/// blob (opaque bytes — the sweep tool stores a deterministic JSON line).
struct ResultRecord {
  std::string key;
  CellStatus status = CellStatus::kOk;
  std::uint32_t attempts = 1;  ///< attempts consumed reaching this status
  std::int32_t code = 0;       ///< exit status, or signal number
  std::string blob;
};

/// Sequential reader over an existing log — the resume iterator. Stops (and
/// counts) at the first torn/corrupt record; a missing file reads as empty.
class ResultLogReader {
 public:
  explicit ResultLogReader(const std::string& path);
  ~ResultLogReader();
  ResultLogReader(const ResultLogReader&) = delete;
  ResultLogReader& operator=(const ResultLogReader&) = delete;

  /// Advances to the next valid record; false at end-of-log (clean end or
  /// first corruption — check dropped_tail() to distinguish).
  bool next(ResultRecord* out);

  /// True once next() returned false because the remaining tail failed
  /// validation (torn write / corruption) rather than ending cleanly.
  bool dropped_tail() const { return dropped_tail_; }

  /// Byte offsets of the consistent prefix (valid after next() returns
  /// false): the record file and blob file sizes a recovery truncates to.
  std::uint64_t valid_log_bytes() const { return valid_log_bytes_; }
  std::uint64_t valid_blob_bytes() const { return valid_blob_bytes_; }

 private:
  int log_fd_ = -1;
  int blob_fd_ = -1;
  std::uint64_t log_size_ = 0;   ///< both sizes as of opening: a scan never
  std::uint64_t blob_size_ = 0;  ///< reads past what existed then
  std::uint64_t next_offset_ = 0;
  std::uint64_t valid_log_bytes_ = 0;
  std::uint64_t valid_blob_bytes_ = 0;
  bool done_ = false;
  bool dropped_tail_ = false;
};

/// Outcome of an offline integrity walk (repmpi_sweep --verify-log): how
/// much of a log + blob pair checks out, and what the first problem was.
struct LogVerifyReport {
  bool exists = false;     ///< the record file could be opened
  bool header_ok = false;  ///< magic/version/CRC of the 24-byte header
  std::uint64_t records_ok = 0;   ///< valid records before the first bad one
  std::uint64_t bad_bytes = 0;    ///< record-file bytes past the valid prefix
  std::uint64_t orphan_blob_bytes = 0;  ///< blob bytes no valid record claims
  std::uint64_t valid_log_bytes = 0;    ///< truncation point, record file
  std::uint64_t valid_blob_bytes = 0;   ///< truncation point, blob file
  std::string first_error;  ///< empty when the pair is fully consistent
  bool clean() const { return exists && header_ok && first_error.empty(); }
};

/// Walks every record of `path` + its blob sidecar, reporting per-record
/// CRC/framing status to `out` (null = silent) and the truncation point a
/// recovery would use. Never modifies the files.
LogVerifyReport verify_result_log(const std::string& path, std::ostream* out);

/// Append-only writer. Opening recovers the consistent prefix (truncating a
/// torn tail) and exposes it via records(); append() is durable per call.
class ResultLog {
 public:
  static constexpr std::size_t kRecordSize = 96;
  static constexpr std::size_t kMaxKeyLen = 55;  ///< NUL fits in 56 bytes
  static constexpr std::uint32_t kVersion = 1;

  explicit ResultLog(std::string path);
  ~ResultLog();
  ResultLog(const ResultLog&) = delete;
  ResultLog& operator=(const ResultLog&) = delete;

  /// Appends blob bytes then the record, flushing both. Throws UsageError
  /// on an over-long key.
  void append(const ResultRecord& record);

  /// Records recovered at open plus those appended since, in log order.
  const std::vector<ResultRecord>& records() const { return records_; }

  /// True when opening found (and truncated) a torn/corrupt tail.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }

  const std::string& path() const { return path_; }

  /// The last record per key, in key order — the sweep's view of a log
  /// where retried/re-run cells append a fresh record.
  std::map<std::string, ResultRecord> latest_by_key() const;

 private:
  std::string path_;
  int log_fd_ = -1;
  int blob_fd_ = -1;
  std::uint64_t blob_offset_ = 0;  ///< next blob append position
  std::vector<ResultRecord> records_;
  bool recovered_torn_tail_ = false;
  long fault_abort_countdown_ = -1;  ///< REPMPI_FAULT_LOG_ABORT, -1 = off
};

}  // namespace repmpi::support
