#include "ingest/error.h"

namespace fdet::ingest {

const char* ingest_error_kind_name(IngestErrorKind kind) {
  switch (kind) {
    case IngestErrorKind::kTruncated: return "truncated";
    case IngestErrorKind::kBadMagic: return "bad-magic";
    case IngestErrorKind::kBadVersion: return "bad-version";
    case IngestErrorKind::kDimensionOverflow: return "dimension-overflow";
    case IngestErrorKind::kPlaneSizeMismatch: return "plane-size-mismatch";
    case IngestErrorKind::kChecksumMismatch: return "checksum-mismatch";
    case IngestErrorKind::kTrailingGarbage: return "trailing-garbage";
    case IngestErrorKind::kBadFrameIndex: return "bad-frame-index";
    case IngestErrorKind::kPaletteOverflow: return "palette-overflow";
    case IngestErrorKind::kBadSubRect: return "bad-sub-rect";
    case IngestErrorKind::kAbsurdMetadata: return "absurd-metadata";
    case IngestErrorKind::kUnsupported: return "unsupported";
    case IngestErrorKind::kInjected: return "injected";
  }
  return "?";
}

}  // namespace fdet::ingest
