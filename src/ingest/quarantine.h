// Stream quarantine: what happens to bytes the validating parsers
// reject.
//
// The training cache quarantines corrupt *files* in place
// (core::quarantine_file); ingest streams arrive as in-memory bytes, so
// the quarantine here is a bounded in-process store of rejected streams
// plus, when a directory is configured, an atomically written dump of
// each rejected stream (`<dir>/<name>.quarantined`) for offline triage —
// the artifact the CI fuzz job uploads when something unexpected gets
// rejected.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/error.h"

namespace fdet::ingest {

/// One rejected stream (bytes retained up to a cap, error always).
struct QuarantineRecord {
  std::string name;        ///< caller-provided stream label
  IngestErrorKind kind = IngestErrorKind::kTruncated;
  std::string format;      ///< format token from the error
  std::size_t offset = 0;  ///< byte offset from the error
  std::string detail;
  std::size_t byte_count = 0;
  std::string dump_path;   ///< empty unless a dump directory is set
};

class StreamQuarantine {
 public:
  /// `dump_dir` empty disables on-disk dumps. `max_records` bounds the
  /// in-process store; older records are dropped first (the store must
  /// not grow without bound under a malformed-input flood).
  explicit StreamQuarantine(std::string dump_dir = "",
                            std::size_t max_records = 64);

  /// Records (and optionally dumps) a rejected stream: an IngestError
  /// from open_stream, or a per-frame decode error mid-stream, where the
  /// stream itself already opened.
  void record(const std::string& name, const IngestError& error,
              std::string_view bytes);

  const std::vector<QuarantineRecord>& records() const { return records_; }
  std::size_t total_rejected() const { return total_rejected_; }

 private:
  std::string dump_dir_;
  std::size_t max_records_;
  std::vector<QuarantineRecord> records_;
  std::size_t total_rejected_ = 0;
};

}  // namespace fdet::ingest
