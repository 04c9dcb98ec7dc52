#include "ingest/quarantine.h"

#include <utility>

#include "core/artifact.h"

namespace fdet::ingest {
namespace {

/// Filesystem-safe version of a caller-provided stream label.
std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? "stream" : out;
}

}  // namespace

StreamQuarantine::StreamQuarantine(std::string dump_dir,
                                   std::size_t max_records)
    : dump_dir_(std::move(dump_dir)), max_records_(max_records) {}

void StreamQuarantine::record(const std::string& name,
                              const IngestError& error,
                              std::string_view bytes) {
  ++total_rejected_;
  QuarantineRecord rec;
  rec.name = name;
  rec.kind = error.kind();
  rec.format = error.format();
  rec.offset = error.offset();
  rec.detail = error.detail();
  rec.byte_count = bytes.size();
  if (!dump_dir_.empty() && !bytes.empty()) {
    rec.dump_path = dump_dir_ + "/" + sanitize(name) + ".quarantined";
    core::atomic_write_file(rec.dump_path, bytes);
  }
  if (records_.size() >= max_records_) {
    records_.erase(records_.begin());
  }
  records_.push_back(std::move(rec));
}

}  // namespace fdet::ingest
