// Codec-agnostic frame source — the ingest layer's core abstraction.
//
// The paper's pipeline begins at a fixed-function H.264 decode stage
// (Sec. III-A/V); the reproduction generalizes that single trusted source
// into FrameSource: decode-by-index with a per-format latency model and a
// capability/metadata query, so serve::StreamingService and
// detect::Pipeline run identically over the mock hardware decoder, the
// validating container parsers (raw/mjpeg/gif), or any future source.
//
// Contract (enforced by tests/ingest_conformance_test.cpp on all
// implementations):
//
//   * decode(i) is deterministic and stateless: any order, any number of
//     times, byte-identical frames — even for inter-coded formats whose
//     frames reference predecessors (they recompute internally);
//   * decode(i) outside [0, frame_count) throws IngestError
//     (kBadFrameIndex), never UB;
//   * a malformed frame payload throws a typed IngestError; a returned
//     frame is always a valid Nv12Frame matching info() geometry;
//   * decode_latency_ms(i) is the modeled fixed-function decode cost in
//     virtual time (the serving layer charges it against the deadline
//     budget), deterministic in (stream, i);
//   * index i is the i-th frame of the stream: every frame arrives once,
//     in order (the serving engines schedule frame i at i / fps).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "ingest/error.h"
#include "video/decoder.h"

namespace fdet::ingest {

// Hard caps every validating parser enforces on *declared* metadata
// before allocating anything: a hostile header cannot make the parser
// reserve gigabytes or loop forever, no matter what the stream claims.
inline constexpr int kMaxIngestDimension = 8192;   ///< per-axis pixel cap
inline constexpr int kMaxIngestFrames = 65536;     ///< frame-count cap
inline constexpr double kMaxIngestFps = 240.0;     ///< declared-rate cap

/// Capability and geometry metadata of an opened stream.
struct SourceInfo {
  std::string format;     ///< "h264" | "mjpeg" | "raw" | "gif"
  std::string container;  ///< human-readable container description
  int width = 0;
  int height = 0;
  int frames = 0;
  double fps = 24.0;
  /// Every frame decodes independently (true for h264-mock/mjpeg/raw;
  /// false for gif, whose delta frames composite onto predecessors).
  bool intra_only = true;
  /// The stream carries per-frame ground truth (only the synthetic H.264
  /// path does; real byte-stream containers cannot).
  bool has_ground_truth = false;
};

/// Byte extent of one frame's payload inside the serialized container —
/// the corruption surface the seeded mutator targets.
struct ByteRange {
  std::size_t offset = 0;
  std::size_t size = 0;
};

class FrameSource {
 public:
  virtual ~FrameSource() = default;

  virtual const SourceInfo& info() const = 0;
  int frame_count() const { return info().frames; }

  /// Decodes frame `index`. Throws IngestError on a bad index or a
  /// malformed frame payload; never returns a malformed frame.
  virtual video::DecodedFrame decode(int index) const = 0;

  /// Modeled fixed-function decode latency for frame `index`.
  virtual double decode_latency_ms(int index) const = 0;

  /// Byte extent of frame `index`'s payload in the serialized container,
  /// when the source is backed by one (nullopt for the mock hardware
  /// decoder, which synthesizes frames without a byte stream).
  virtual std::optional<ByteRange> frame_bytes(int index) const {
    (void)index;
    return std::nullopt;
  }

 protected:
  /// Shared index guard: throws IngestError(kBadFrameIndex) with the
  /// stream's format token instead of crashing on out-of-range access.
  void check_index(int index) const;
};

/// Retrofit adapter: the mock hardware H.264 decoder behind the
/// FrameSource interface. Owns nothing — the decoder (and its trailer)
/// must outlive the adapter, mirroring how the serving layer already
/// borrows the decoder per run().
class H264FrameSource final : public FrameSource {
 public:
  explicit H264FrameSource(const video::MockH264Decoder& decoder);

  const SourceInfo& info() const override { return info_; }
  video::DecodedFrame decode(int index) const override;
  double decode_latency_ms(int index) const override;

 private:
  const video::MockH264Decoder* decoder_;
  SourceInfo info_;
};

}  // namespace fdet::ingest
