// FrameSource conformance suite: the contract every implementation —
// the retrofitted mock H.264 decoder and all three validating container
// parsers — must satisfy identically (ingest/frame_source.h). The serving
// layer and detect::Pipeline are written against exactly these
// guarantees, so a new source that passes here can be swapped in without
// touching either.
#include "ingest/frame_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ingest/error.h"
#include "ingest/registry.h"
#include "video/decoder.h"
#include "video/trailer.h"

namespace fdet::ingest {
namespace {

video::TrailerSpec conformance_spec() {
  video::TrailerSpec spec;
  spec.title = "conformance";
  spec.width = 64;
  spec.height = 48;
  spec.frames = 5;
  spec.fps = 24.0;
  spec.shot_frames = 2;
  spec.seed = 0xc0f0;
  return spec;
}

/// One fixture instantiation per implementation. The trailer and decoder
/// live in the fixture because H264FrameSource borrows them.
class Conformance : public ::testing::TestWithParam<std::string> {
 protected:
  Conformance()
      : trailer_(conformance_spec()), decoder_(trailer_) {
    if (GetParam() == "h264") {
      source_ = std::make_unique<H264FrameSource>(decoder_);
    } else {
      source_ = open_stream(
          encode_stream(parse_format(GetParam()), trailer_));
    }
  }

  const FrameSource& source() const { return *source_; }

  video::SyntheticTrailer trailer_;
  video::MockH264Decoder decoder_;
  std::unique_ptr<FrameSource> source_;
};

TEST_P(Conformance, InfoMatchesTheEncodedFootage) {
  const SourceInfo& info = source().info();
  EXPECT_EQ(info.format, GetParam());
  EXPECT_EQ(info.width, 64);
  EXPECT_EQ(info.height, 48);
  EXPECT_EQ(info.frames, 5);
  EXPECT_NEAR(info.fps, 24.0, 1e-6);
  EXPECT_FALSE(info.container.empty());
  EXPECT_EQ(source().frame_count(), 5);
}

TEST_P(Conformance, DecodedFramesMatchInfoGeometry) {
  for (int i = 0; i < source().frame_count(); ++i) {
    const video::DecodedFrame decoded = source().decode(i);
    EXPECT_EQ(decoded.index, i);
    EXPECT_EQ(decoded.frame.width(), source().info().width);
    EXPECT_EQ(decoded.frame.height(), source().info().height);
    EXPECT_FALSE(decoded.frame.luma().empty());
  }
}

TEST_P(Conformance, DecodeIsDeterministicAndStateless) {
  // Decode everything backwards first, then forwards, then repeat each
  // index — every combination must produce byte-identical planes, even
  // for inter-coded formats (gif recomposites deltas internally).
  std::vector<video::DecodedFrame> backwards;
  for (int i = source().frame_count() - 1; i >= 0; --i) {
    backwards.push_back(source().decode(i));
  }
  for (int i = 0; i < source().frame_count(); ++i) {
    const video::DecodedFrame again = source().decode(i);
    const video::DecodedFrame& first =
        backwards[static_cast<std::size_t>(source().frame_count() - 1 - i)];
    EXPECT_EQ(again.frame.luma(), first.frame.luma()) << "frame " << i;
    EXPECT_EQ(again.frame.chroma(), first.frame.chroma()) << "frame " << i;
  }
}

TEST_P(Conformance, OutOfRangeIndexIsTypedNeverUb) {
  for (const int bad : {-1, source().frame_count(), 1 << 20}) {
    try {
      source().decode(bad);
      FAIL() << "expected IngestError for index " << bad;
    } catch (const IngestError& error) {
      EXPECT_EQ(error.kind(), IngestErrorKind::kBadFrameIndex);
      EXPECT_EQ(error.format(), GetParam());
    }
    EXPECT_THROW(source().decode_latency_ms(bad), IngestError);
  }
}

TEST_P(Conformance, LatencyModelIsDeterministicAndPositive) {
  for (int i = 0; i < source().frame_count(); ++i) {
    const double latency = source().decode_latency_ms(i);
    EXPECT_GT(latency, 0.0);
    EXPECT_EQ(source().decode_latency_ms(i), latency);
    // decode() charges the same model.
    EXPECT_NEAR(source().decode(i).decode_ms, latency, 1e-12);
  }
}

TEST_P(Conformance, FrameBytesEitherAbsentOrInBounds) {
  // The mock hardware decoder has no byte stream; every container-backed
  // source must expose a non-empty, in-bounds payload extent per frame.
  const bool container_backed = GetParam() != "h264";
  for (int i = 0; i < source().frame_count(); ++i) {
    const auto range = source().frame_bytes(i);
    EXPECT_EQ(range.has_value(), container_backed) << "frame " << i;
    if (range) {
      EXPECT_GT(range->size, 0u);
    }
  }
}

TEST_P(Conformance, CapabilityFlagsMatchTheFormat) {
  const SourceInfo& info = source().info();
  EXPECT_EQ(info.has_ground_truth, GetParam() == "h264");
  EXPECT_EQ(info.intra_only, GetParam() != "gif");
  if (!info.has_ground_truth) {
    // Byte-stream containers cannot carry ground truth; the flag must
    // match what decode() actually returns.
    for (int i = 0; i < source().frame_count(); ++i) {
      EXPECT_TRUE(source().decode(i).ground_truth.empty()) << "frame " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSources, Conformance,
                         ::testing::Values("h264", "raw", "mjpeg", "gif"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(ConformanceCross, ContainerLumaMatchesTheDecoderOutput) {
  // The byte-stream encoders serialize the same synthetic footage the
  // mock decoder renders; raw is lossless, so the luma plane must come
  // back byte-identical through the whole encode -> parse -> decode path.
  const video::SyntheticTrailer trailer(conformance_spec());
  const video::MockH264Decoder decoder(trailer);
  const auto raw = open_stream(encode_stream(Format::kRaw, trailer));
  for (int i = 0; i < raw->frame_count(); ++i) {
    EXPECT_EQ(raw->decode(i).frame.luma(), decoder.decode(i).frame.luma())
        << "frame " << i;
  }
}

}  // namespace
}  // namespace fdet::ingest
