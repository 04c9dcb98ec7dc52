#include "ingest/frame_source.h"

namespace fdet::ingest {

void FrameSource::check_index(int index) const {
  const SourceInfo& meta = info();
  if (index < 0 || index >= meta.frames) {
    throw IngestError(IngestErrorKind::kBadFrameIndex, meta.format, 0,
                      "frame " + std::to_string(index) + " outside [0, " +
                          std::to_string(meta.frames) + ")");
  }
}

H264FrameSource::H264FrameSource(const video::MockH264Decoder& decoder)
    : decoder_(&decoder) {
  const video::TrailerSpec& spec = decoder.spec();
  info_.format = "h264";
  info_.container = "mock NVCUVID H.264 elementary stream (synthesized)";
  info_.width = spec.width;
  info_.height = spec.height;
  info_.frames = spec.frames;
  info_.fps = spec.fps;
  info_.intra_only = true;  // the mock decodes any frame independently
  info_.has_ground_truth = true;
}

video::DecodedFrame H264FrameSource::decode(int index) const {
  check_index(index);
  return decoder_->decode(index);
}

double H264FrameSource::decode_latency_ms(int index) const {
  check_index(index);
  return decoder_->decode_latency_ms(index);
}

}  // namespace fdet::ingest
