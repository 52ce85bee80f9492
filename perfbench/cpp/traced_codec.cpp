// Spans around the compress layer.
//
// bp::Writer and bp::Reader reach the codecs through cz::make_codec and
// cz::decompress_frame wherever they marshal or load a chunk, so the
// benchmark cannot put a span around those calls from its own code.  The
// link step wraps the two entry points instead (-Wl,--wrap, see
// perfbench/CMakeLists.txt): every codec the library creates comes back
// inside a TracedCodec that forwards each call, and every frame the reader
// decodes goes through traced_decompress_frame.  Each call is recorded as a
// compress.* span on whichever thread makes it; the bytes are the wrapped
// code's own, so containers are unchanged.

#include <memory>
#include <string>

#include "compress/codec.hpp"
#include "compress/parallel.hpp"
#include "spans.hpp"

namespace perf {

namespace {

using bitio::cz::ByteSpan;
using bitio::cz::Bytes;
using bitio::cz::Codec;

class TracedCodec final : public Codec {
 public:
  explicit TracedCodec(std::unique_ptr<Codec> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Bytes compress(ByteSpan input) const override {
    Scope span("compress.compress");
    return inner_->compress(input);
  }
  void compress_append(ByteSpan input, Bytes& out) const override {
    Scope span("compress.compress");
    inner_->compress_append(input, out);
  }
  Bytes decompress(ByteSpan frame) const override {
    Scope span("compress.decompress");
    return inner_->decompress(frame);
  }
  double compress_speed_bps() const override {
    return inner_->compress_speed_bps();
  }
  double decompress_speed_bps() const override {
    return inner_->decompress_speed_bps();
  }

 private:
  std::unique_ptr<Codec> inner_;
};

}  // namespace

}  // namespace perf

// The linker sends the libraries' calls to the wrap_* functions below and
// resolves the real_* declarations to the library's own definitions.
std::unique_ptr<bitio::cz::Codec> real_make_codec(const std::string& name,
                                                  std::size_t typesize)
    __asm__("__real_" BITIO_PERF_MAKE_CODEC);
std::unique_ptr<bitio::cz::Codec> wrap_make_codec(const std::string& name,
                                                  std::size_t typesize)
    __asm__("__wrap_" BITIO_PERF_MAKE_CODEC);
bitio::cz::Bytes real_decompress_frame(bitio::cz::ByteSpan frame, int threads)
    __asm__("__real_" BITIO_PERF_DECOMPRESS_FRAME);
bitio::cz::Bytes wrap_decompress_frame(bitio::cz::ByteSpan frame, int threads)
    __asm__("__wrap_" BITIO_PERF_DECOMPRESS_FRAME);

std::unique_ptr<bitio::cz::Codec> wrap_make_codec(const std::string& name,
                                                  std::size_t typesize) {
  return std::make_unique<perf::TracedCodec>(real_make_codec(name, typesize));
}

bitio::cz::Bytes wrap_decompress_frame(bitio::cz::ByteSpan frame,
                                       int threads) {
  perf::Scope span("compress.decompress");
  return real_decompress_frame(frame, threads);
}
