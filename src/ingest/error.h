// Typed error taxonomy of the hardened ingest layer.
//
// Every way an untrusted byte stream can be malformed maps to one
// IngestErrorKind, so callers (the streaming service, the fuzz harness,
// the quarantine store) can branch on *what* was wrong without string
// matching. IngestError derives core::CheckError — the same idiom as
// core::ArtifactError and haar::CascadeParseError — so existing call
// sites that catch the library error type keep working, and the fuzz
// invariant "every mutated input either decodes or raises a typed
// IngestError" is checkable with a single catch clause.
#pragma once

#include <cstddef>
#include <string>

#include "core/check.h"

namespace fdet::ingest {

enum class IngestErrorKind {
  kTruncated,          ///< stream ends before a declared field/payload
  kBadMagic,           ///< container magic / frame marker mismatch
  kBadVersion,         ///< recognized magic, unsupported version
  kDimensionOverflow,  ///< zero/odd/negative or above-cap dimensions
  kPlaneSizeMismatch,  ///< payload does not decode to the declared plane size
  kChecksumMismatch,   ///< per-frame CRC does not match the payload
  kTrailingGarbage,    ///< bytes left over after the last declared frame
  kBadFrameIndex,      ///< decode(i) outside [0, frame_count)
  kPaletteOverflow,    ///< pixel index outside the declared palette
  kBadSubRect,         ///< delta-frame rectangle escapes the canvas
  kAbsurdMetadata,     ///< declared counts/lengths beyond the hard caps
  kUnsupported,        ///< operation the source cannot perform (no bytes)
  kInjected,           ///< fault-plan injected bitstream corruption
};

/// Stable lower-case token: "truncated", "bad-magic", "bad-version",
/// "dimension-overflow", "plane-size-mismatch", "checksum-mismatch",
/// "trailing-garbage", "bad-frame-index", "palette-overflow",
/// "bad-sub-rect", "absurd-metadata", "unsupported", "injected".
const char* ingest_error_kind_name(IngestErrorKind kind);

/// Error thrown by validating container parsers and FrameSources. Carries
/// the kind, the format token of the parser that rejected the stream
/// ("raw" | "mjpeg" | "gif" | "h264" | "?" while sniffing), and the byte
/// offset the parser had reached — so a rejected stream's diagnostic
/// names the exact corrupt location, the way CascadeParseError names its
/// line and field.
class IngestError : public core::CheckError {
 public:
  IngestError(IngestErrorKind kind, std::string format, std::size_t offset,
              const std::string& detail)
      : core::CheckError("ingest error [" + format + " @" +
                         std::to_string(offset) + "] " +
                         ingest_error_kind_name(kind) + ": " + detail),
        kind_(kind),
        format_(std::move(format)),
        offset_(offset),
        detail_(detail) {}

  IngestErrorKind kind() const { return kind_; }
  const std::string& format() const { return format_; }
  std::size_t offset() const { return offset_; }
  const std::string& detail() const { return detail_; }

 private:
  IngestErrorKind kind_;
  std::string format_;
  std::size_t offset_;
  std::string detail_;
};

}  // namespace fdet::ingest
