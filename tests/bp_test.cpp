// Tests for the miniBP container engine: format round trips, writer/reader
// end-to-end, aggregation mapping, operators, steps, and failure detection.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "bp/reader.hpp"
#include "bp/writer.hpp"
#include "darshan/darshan.hpp"
#include "fsim/fault_plan.hpp"
#include "fsim/storage_model.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "fsim/system_profiles.hpp"
#include "smpi/comm.hpp"
#include "util/error.hpp"
#include "util/hash64.hpp"
#include "util/rng.hpp"
#include "util/toml.hpp"

namespace bitio::bp {
namespace {

std::vector<float> iota_floats(std::size_t n, float start = 0.f) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

// ---------------------------------------------------------------- format ---

TEST(BpFormat, StepRecordRoundTrip) {
  StepRecord record;
  record.step = 42;
  VarRecord var{"e/position/x", Datatype::float32, {1000}, {}};
  var.chunks.push_back({{0}, {600}, 0, 0, 0, 2400, 2400, ""});
  var.chunks.push_back({{600}, {400}, 1, 0, 2400, 900, 1600, "blosc"});
  record.variables.push_back(var);
  record.attributes.emplace_back("unitSI", AttrValue(1.0));
  record.attributes.emplace_back("comment", AttrValue(std::string("hi")));
  record.attributes.emplace_back("count", AttrValue(std::uint64_t(7)));

  const auto bytes = encode_step(record);
  const StepRecord back = decode_step(bytes);
  EXPECT_EQ(back.step, 42u);
  ASSERT_EQ(back.variables.size(), 1u);
  EXPECT_EQ(back.variables[0].name, "e/position/x");
  EXPECT_EQ(back.variables[0].shape, Dims{1000});
  ASSERT_EQ(back.variables[0].chunks.size(), 2u);
  EXPECT_EQ(back.variables[0].chunks[1].operator_name, "blosc");
  EXPECT_EQ(back.variables[0].chunks[1].raw_bytes, 1600u);
  ASSERT_EQ(back.attributes.size(), 3u);
  EXPECT_DOUBLE_EQ(std::get<double>(back.attributes[0].second), 1.0);
  EXPECT_EQ(std::get<std::string>(back.attributes[1].second), "hi");
  EXPECT_EQ(std::get<std::uint64_t>(back.attributes[2].second), 7u);
}

TEST(BpFormat, DetectsCorruption) {
  StepRecord record;
  record.step = 1;
  auto bytes = encode_step(record);
  bytes[0] ^= 0xFF;  // magic
  EXPECT_THROW(decode_step(bytes), FormatError);

  auto good = encode_step(record);
  good.pop_back();
  EXPECT_THROW(decode_step(good), FormatError);
  good = encode_step(record);
  good.push_back(0);
  EXPECT_THROW(decode_step(good), FormatError);
}

TEST(BpFormat, IndexRoundTripAndSizeCheck) {
  std::vector<IndexEntry> index{{0, 0, 100}, {1, 100, 80}};
  auto bytes = encode_index(index);
  auto back = decode_index(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].md_offset, 100u);
  bytes.pop_back();
  EXPECT_THROW(decode_index(bytes), FormatError);
}

// ---------------------------------------------------------------- config ---

TEST(BpConfig, FromTomlConfig) {
  const Json cfg = parse_toml(R"(
[adios2.engine]
type = "bp4"

[adios2.engine.parameters]
NumAggregators = 400
Profile = "On"

[adios2.dataset]
operators = [ { type = "blosc", typesize = 4 } ]
)");
  const EngineConfig engine = EngineConfig::from_json(cfg.at("adios2"));
  EXPECT_EQ(engine.engine, EngineType::bp4);
  EXPECT_EQ(engine.num_aggregators, 400);
  EXPECT_TRUE(engine.profiling);
  EXPECT_EQ(engine.codec, "blosc");
  EXPECT_EQ(engine.codec_typesize, 4u);
}

TEST(BpConfig, RejectsUnknownEngine) {
  Json cfg{JsonObject{}};
  cfg["engine"]["type"] = "hdf5";
  EXPECT_THROW(EngineConfig::from_json(cfg), UsageError);
}

// ---------------------------------------------------------------- writer ---

EngineConfig small_config(int aggregators = 0, const std::string& codec = "none") {
  EngineConfig config;
  config.num_aggregators = aggregators;
  config.ranks_per_node = 4;
  config.codec = codec;
  return config;
}

TEST(BpWriter, WriteReadRoundTrip1D) {
  fsim::SharedFs fs(8);
  {
    Writer writer = Writer::open(fs, "out/series.bp4", small_config(), /*nranks=*/4);
    writer.begin_step(0);
    const Dims shape{40};
    for (int r = 0; r < 4; ++r) {
      auto local = iota_floats(10, float(r) * 10.f);
      writer.put<float>(r, "density", shape, {std::uint64_t(r) * 10}, {10},
                        local);
    }
    writer.add_attribute("unitSI", AttrValue(1.0));
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "out/series.bp4");
  EXPECT_EQ(reader.steps(), std::vector<std::uint64_t>{0});
  const auto data = reader.read_as<float>(0, "density");
  EXPECT_EQ(data, iota_floats(40));
  ASSERT_TRUE(reader.attribute(0, "unitSI").has_value());
  EXPECT_DOUBLE_EQ(std::get<double>(*reader.attribute(0, "unitSI")), 1.0);
  EXPECT_FALSE(reader.attribute(0, "nope").has_value());
}

TEST(BpWriter, MultiStepAndLatestWinsOnRewrite) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "ck.bp4", small_config(), 2);
    for (std::uint64_t rewrite = 0; rewrite < 3; ++rewrite) {
      writer.begin_step(0);  // checkpoint slot, rewritten
      auto payload = iota_floats(8, float(rewrite) * 100.f);
      writer.put<float>(0, "state", {16}, {0}, {8}, payload);
      writer.put<float>(1, "state", {16}, {8}, {8}, payload);
      writer.end_step();
    }
    writer.begin_step(7);
    auto last = iota_floats(4, 7.f);
    writer.put<float>(0, "other", {4}, {0}, {4}, last);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "ck.bp4");
  EXPECT_EQ(reader.steps(), (std::vector<std::uint64_t>{0, 7}));
  // The step-0 record must be the LAST rewrite.
  const auto state = reader.read_as<float>(0, "state");
  EXPECT_FLOAT_EQ(state[0], 200.f);
  EXPECT_FLOAT_EQ(state[8], 200.f);
}

TEST(BpWriter, AggregatorMappingIsContiguousAndBalanced) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "x.bp4", small_config(3), 10);
  EXPECT_EQ(writer.aggregator_count(), 3);
  int previous = 0;
  std::vector<int> counts(3, 0);
  for (int r = 0; r < 10; ++r) {
    const int a = writer.aggregator_of(r);
    EXPECT_GE(a, previous);  // monotone => contiguous blocks
    previous = a;
    ++counts[std::size_t(a)];
  }
  for (int c : counts) EXPECT_NEAR(double(c), 10.0 / 3.0, 1.0);
  writer.begin_step(0);
  writer.end_step();
  writer.close();
}

TEST(BpWriter, SubfileCountMatchesAggregators) {
  // Table II: a BP4 container holds M data files + md.0 + md.idx.
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "t.bp4", small_config(5), 20);
    writer.begin_step(0);
    for (int r = 0; r < 20; ++r) {
      auto v = iota_floats(4);
      writer.put<float>(r, "v", {80}, {std::uint64_t(r) * 4}, {4}, v);
    }
    writer.end_step();
    writer.close();
  }
  const auto files = fs.store().list_recursive("t.bp4");
  EXPECT_EQ(files.size(), 5u + 2u);
  std::size_t data_files = 0;
  for (const auto* f : files)
    if (f->path.find("/data.") != std::string::npos) ++data_files;
  EXPECT_EQ(data_files, 5u);
}

TEST(BpWriter, DefaultAggregationIsPerNode) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "n.bp4", small_config(0), 12);  // 4 ranks/node => 3 nodes
  EXPECT_EQ(writer.aggregator_count(), 3);
  writer.begin_step(0);
  writer.end_step();
  writer.close();
}

TEST(BpWriter, OperatorCompressesAndRoundTrips) {
  fsim::SharedFs fs(4);
  const std::size_t n = 1 << 16;
  std::vector<float> smooth(n);
  for (std::size_t i = 0; i < n; ++i) smooth[i] = float(i) * 0.001f;
  {
    Writer writer = Writer::open(fs, "c.bp4", small_config(1, "blosc"), 2);
    writer.begin_step(3);
    writer.put<float>(0, "x", {n}, {0}, {n / 2},
                      std::span<const float>(smooth.data(), n / 2));
    writer.put<float>(1, "x", {n}, {n / 2}, {n / 2},
                      std::span<const float>(smooth.data() + n / 2, n / 2));
    writer.end_step();
    writer.close();
  }
  // Stored bytes must be smaller than raw (compressible data).
  EXPECT_LT(fs.store().file("c.bp4/data.0").size, n * sizeof(float));
  Reader reader = Reader::open(fs, 0, "c.bp4");
  const auto var = reader.find_variable(3, "x");
  ASSERT_NE(var, nullptr);
  EXPECT_EQ(var->chunks[0].operator_name, "blosc");
  const auto back = reader.read_as<float>(3, "x");
  EXPECT_EQ(back, smooth);
}

TEST(BpWriter, CompressionChargesCompressNotMemcopy) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "p.bp4", small_config(1, "blosc"), 1);
    writer.begin_step(0);
    auto v = iota_floats(1024);
    writer.put<float>(0, "x", {1024}, {0}, {1024}, v);
    writer.end_step();
    writer.close();
  }
  double compress = 0.0, memcopy = 0.0;
  for (const auto& op : fs.trace()) {
    if (op.kind != fsim::OpKind::cpu) continue;
    if (op.tag == fsim::OpTag::compress) compress += op.cpu_seconds;
    if (op.tag == fsim::OpTag::memcopy) memcopy += op.cpu_seconds;
  }
  EXPECT_GT(compress, 0.0);
  EXPECT_DOUBLE_EQ(memcopy, 0.0);  // Fig 8: memcopy eliminated
}

TEST(BpWriter, NoCompressionChargesMemcopy) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "p2.bp4", small_config(1, "none"), 1);
    writer.begin_step(0);
    auto v = iota_floats(1024);
    writer.put<float>(0, "x", {1024}, {0}, {1024}, v);
    writer.end_step();
    writer.close();
  }
  double memcopy = 0.0;
  for (const auto& op : fs.trace())
    if (op.kind == fsim::OpKind::cpu && op.tag == fsim::OpTag::memcopy)
      memcopy += op.cpu_seconds;
  EXPECT_GT(memcopy, 0.0);
}

TEST(BpWriter, CpuTagsReachTheReplayByName) {
  // The writer and reader charge their cpu time under fsim::OpTag
  // enumerators; the replay must report them under the historical names.
  fsim::SharedFs fs(4);
  std::vector<float> smooth(4096);
  for (std::size_t i = 0; i < smooth.size(); ++i) smooth[i] = float(i) * 0.01f;
  for (const char* codec : {"blosc", "none"}) {
    Writer writer = Writer::open(fs, std::string("tags_") + codec + ".bp4",
                                 small_config(1, codec), 1);
    writer.begin_step(0);
    writer.put<float>(0, "x", {smooth.size()}, {0}, {smooth.size()}, smooth);
    writer.end_step();
    writer.close();
  }
  EXPECT_EQ(Reader::open(fs, 0, "tags_blosc.bp4").read_as<float>(0, "x"),
            smooth);
  const auto report = fsim::replay_trace(fsim::system_profile("dardel"),
                                         fs.store(), fs.trace(), 1);
  for (const char* tag : {"compress", "memcopy", "crc32c", "decompress"}) {
    ASSERT_TRUE(report.cpu_by_tag.count(tag)) << tag;
    EXPECT_GT(report.cpu_by_tag.at(tag), 0.0) << tag;
  }
}

TEST(BpWriter, ParallelCompressionRoundTripThroughContainer) {
  // compress_threads > 1 wraps the codec in the block-parallel pipeline, so
  // the container stores CZP1 frames; the reader must decode them.
  fsim::SharedFs fs(8);
  auto config = small_config(1, "blosc");
  config.compress_threads = 4;
  config.compress_block_kb = 16;  // several blocks per 64 KiB chunk
  const std::size_t n = 1 << 14;
  std::vector<float> smooth(n);
  for (std::size_t i = 0; i < n; ++i) smooth[i] = float(i) * 0.001f;
  {
    Writer writer = Writer::open(fs, "par.bp4", config, 2);
    writer.begin_step(0);
    writer.put<float>(0, "x", {2 * n}, {0}, {n}, smooth);
    writer.put<float>(1, "x", {2 * n}, {n}, {n}, smooth);
    writer.end_step();
    writer.close();
  }
  EXPECT_LT(fs.store().file("par.bp4/data.0").size, 2 * n * sizeof(float));
  Reader reader = Reader::open(fs, 0, "par.bp4");
  const auto var = reader.find_variable(0, "x");
  ASSERT_NE(var, nullptr);
  EXPECT_EQ(var->chunks[0].operator_name, "blosc");
  const auto back = reader.read_as<float>(0, "x");
  ASSERT_EQ(back.size(), 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[i], smooth[i]) << i;
    ASSERT_EQ(back[n + i], smooth[i]) << i;
  }
}

TEST(BpWriter, SteadyStateStepsHitTheBufferPool) {
  // After a warmup step populates the size-class freelists, repeated
  // identical steps must recycle every buffer: put() staging, aggregation
  // targets, and the parallel codec's per-block scratch all come from the
  // pool (hit rate >= 99%, i.e. zero steady-state heap allocation).
  fsim::SharedFs fs(8);
  auto config = small_config(1, "blosc");
  config.compress_threads = 4;
  config.compress_block_kb = 16;
  const std::size_t n = 1 << 14;
  std::vector<float> smooth(n);
  for (std::size_t i = 0; i < n; ++i) smooth[i] = float(i) * 0.001f;
  Writer writer = Writer::open(fs, "pool.bp4", config, 2);
  auto put_step = [&](std::uint64_t step) {
    writer.begin_step(step);
    writer.put<float>(0, "x", {2 * n}, {0}, {n}, smooth);
    writer.put<float>(1, "x", {2 * n}, {n}, {n}, smooth);
    writer.end_step();
  };
  put_step(0);
  put_step(1);  // two warmup steps: freelists reach steady state
  writer.reset_pool_stats();
  for (std::uint64_t step = 2; step < 12; ++step) put_step(step);
  const auto stats = writer.pool_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GE(stats.hit_rate(), 0.99) << "hits=" << stats.hits
                                    << " misses=" << stats.misses;
  writer.close();
}

TEST(BpWriter, ProfilingJsonEmitted) {
  fsim::SharedFs fs(4);
  auto config = small_config(1, "blosc");
  config.profiling = true;
  {
    Writer writer = Writer::open(fs, "prof.bp4", config, 1);
    writer.begin_step(0);
    auto v = iota_floats(256);
    writer.put<float>(0, "x", {256}, {0}, {256}, v);
    writer.end_step();
    writer.close();
  }
  fsim::FsClient io(fs, 0);
  const auto text = io.read_all("prof.bp4/profiling.json");
  const Json profile = Json::parse(
      std::string(reinterpret_cast<const char*>(text.data()), text.size()));
  EXPECT_EQ(profile.at("engine").as_string(), "bp4");
  EXPECT_GT(profile.at("transport_0").at("compress_us").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(profile.at("transport_0").at("memcopy_us").as_number(),
                   0.0);
}

TEST(BpWriter, Bp5WritesSecondMetadataFile) {
  fsim::SharedFs fs(4);
  auto config = small_config(1);
  config.engine = EngineType::bp5;
  {
    Writer writer = Writer::open(fs, "b5.bp5", config, 1);
    writer.begin_step(0);
    writer.end_step();
    writer.close();
  }
  EXPECT_TRUE(fs.store().file_exists("b5.bp5/mmd.0"));
  EXPECT_FALSE(fs.store().file_exists("b5.bp5/profiling.json"));
}

TEST(BpWriter, TwoDimensionalChunks) {
  fsim::SharedFs fs(4);
  const Dims shape{4, 6};
  {
    Writer writer = Writer::open(fs, "2d.bp4", small_config(1), 2);
    writer.begin_step(0);
    // Rank 0 owns rows 0-1, rank 1 rows 2-3.
    std::vector<float> top(12), bottom(12);
    std::iota(top.begin(), top.end(), 0.f);
    std::iota(bottom.begin(), bottom.end(), 12.f);
    writer.put<float>(0, "grid", shape, {0, 0}, {2, 6}, top);
    writer.put<float>(1, "grid", shape, {2, 0}, {2, 6}, bottom);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "2d.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "grid"), iota_floats(24));
}

TEST(BpWriter, ColumnChunks2D) {
  fsim::SharedFs fs(4);
  const Dims shape{3, 4};
  {
    Writer writer = Writer::open(fs, "col.bp4", small_config(1), 2);
    writer.begin_step(0);
    // Rank 0 owns columns 0-1, rank 1 columns 2-3 (non-contiguous rows).
    std::vector<float> left{0, 1, 4, 5, 8, 9};
    std::vector<float> right{2, 3, 6, 7, 10, 11};
    writer.put<float>(0, "g", shape, {0, 0}, {3, 2}, left);
    writer.put<float>(1, "g", shape, {0, 2}, {3, 2}, right);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "col.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "g"), iota_floats(12));
}

TEST(BpWriter, UsageErrors) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "e.bp4", small_config(1), 2);
  auto v = iota_floats(4);
  EXPECT_THROW(writer.put<float>(0, "x", {4}, {0}, {4}, v), UsageError);
  writer.begin_step(0);
  EXPECT_THROW(writer.begin_step(1), UsageError);
  EXPECT_THROW(writer.put<float>(5, "x", {4}, {0}, {4}, v), UsageError);
  EXPECT_THROW(writer.put<float>(0, "x", {4}, {2}, {4}, v), UsageError);
  EXPECT_THROW(writer.put<float>(0, "x", {4}, {0}, {3}, v), UsageError);
  writer.put<float>(0, "x", {4}, {0}, {4}, v);
  std::vector<double> d(4, 0.0);
  EXPECT_THROW(writer.put<double>(1, "x", {4}, {0}, {4}, d), UsageError);
  EXPECT_THROW(writer.close(), UsageError);  // step still open
  writer.end_step();
  writer.close();
  EXPECT_THROW(writer.begin_step(2), UsageError);  // closed
}

TEST(BpReader, DetectsCorruptContainer) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "bad.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(16);
    writer.put<float>(0, "x", {16}, {0}, {16}, v);
    writer.end_step();
    writer.close();
  }
  // Corrupt md.0 in place.  Also zap the footer trailer magic: with an
  // intact footer the open is satisfied by the (self-CRC'd) footer copy of
  // the metadata and never touches the corrupt block; breaking the trailer
  // forces the scan path, which must reject the container.
  auto& node = fs.store().file("bad.bp4/md.0");
  node.data[4] ^= 0xFF;
  node.data[node.data.size() - 1] ^= 0xFF;
  EXPECT_THROW(Reader::open(fs, 0, "bad.bp4"), FormatError);
}

TEST(BpReader, MissingVariableAndStep) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "m.bp4", small_config(1), 1);
    writer.begin_step(0);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "m.bp4");
  EXPECT_THROW(reader.read(0, "ghost"), UsageError);
  EXPECT_THROW(reader.step(9), UsageError);
  EXPECT_FALSE(reader.has_step(9));
  EXPECT_EQ(reader.find_variable(0, "ghost"), nullptr);
}

// ----------------------------------------------------------------- footer ---

namespace {

/// Writes a tiny closed two-step container at `path` and returns the
/// expected step-1 payload.
std::vector<float> write_footer_fixture(fsim::SharedFs& fs,
                                        const std::string& path) {
  Writer writer = Writer::open(fs, path, EngineConfig{}, 2);
  for (std::uint64_t step = 0; step < 2; ++step) {
    writer.begin_step(step);
    for (int r = 0; r < 2; ++r) {
      auto local = iota_floats(8, float(step * 100) + float(r) * 8.f);
      writer.put<float>(r, "density", {16}, {std::uint64_t(r) * 8}, {8},
                        local);
    }
    writer.end_step();
  }
  writer.close();
  return iota_floats(16, 100.f);
}

/// The footer trailer's first field: byte offset of the footer in md.0.
std::uint64_t footer_offset_of(const fsim::FileNode& md) {
  BinReader trailer(
      std::span(md.data).subspan(md.data.size() - 24, 8));
  return trailer.u64();
}

}  // namespace

TEST(BpFooter, ClosedContainerOpensThroughTheFooterIndex) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "f.bp4");
  Reader reader = Reader::open(fs, 0, "f.bp4");
  EXPECT_TRUE(reader.used_footer_index());
  EXPECT_EQ(reader.steps(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
  EXPECT_TRUE(reader.all_ok(reader.verify()));
}

TEST(BpFooter, PreFooterContainerFallsBackToScan) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "v5.bp4");
  // A pre-v6 container is exactly a v6 one minus the appended footer:
  // truncate md.0 back to the footer offset and the md.idx scan path must
  // serve the open, bit-for-bit.
  auto& md = fs.store().file("v5.bp4/md.0");
  md.data.resize(footer_offset_of(md));
  md.size = md.data.size();
  Reader reader = Reader::open(fs, 0, "v5.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
}

TEST(BpFooter, CorruptFooterBodyFallsBackToScan) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "cf.bp4");
  auto& md = fs.store().file("cf.bp4/md.0");
  // Flip a byte inside the footer body: the trailer CRC no longer matches,
  // so open must reject the footer and scan — never crash, never serve the
  // poisoned copy.
  md.data[footer_offset_of(md) + 6] ^= 0xFF;
  Reader reader = Reader::open(fs, 0, "cf.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
  EXPECT_TRUE(reader.all_ok(reader.verify()));
}

TEST(BpFooter, TruncatedTrailerFallsBackToScan) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "tt.bp4");
  // Tear the tail mid-trailer (a torn final write): the trailer magic is
  // gone, the step records before the footer are intact.
  auto& md = fs.store().file("tt.bp4/md.0");
  md.data.resize(md.data.size() - 5);
  md.size = md.data.size();
  Reader reader = Reader::open(fs, 0, "tt.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
}

TEST(BpFooter, MidRunPublishOpensWithoutFooter) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "mid.bp4", EngineConfig{}, 1);
  writer.begin_step(0);
  auto v = iota_floats(8);
  writer.put<float>(0, "x", {8}, {0}, {8}, v);
  writer.end_step();
  writer.publish_index();  // mid-run attach: no footer yet
  Reader reader = Reader::open(fs, 0, "mid.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(0, "x"), iota_floats(8));
  writer.close();
  Reader closed = Reader::open(fs, 0, "mid.bp4");
  EXPECT_TRUE(closed.used_footer_index());
}

TEST(BpFooter, RandomAccessChunkAndSliceReads) {
  fsim::SharedFs fs(4);
  write_footer_fixture(fs, "ra.bp4");
  Reader reader = Reader::open(fs, 0, "ra.bp4");
  // find_chunk addresses one writer rank's block.
  const ChunkRecord* chunk = reader.find_chunk(1, "density", 1);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->offset, Dims{8});
  EXPECT_EQ(reader.find_chunk(1, "density", 7), nullptr);
  // read_chunk fetches exactly that block, CRC-verified.
  const auto raw = reader.read_chunk(1, "density", 1);
  ASSERT_EQ(raw.size(), 8 * sizeof(float));
  std::vector<float> block(8);
  std::memcpy(block.data(), raw.data(), raw.size());
  EXPECT_EQ(block, iota_floats(8, 108.f));
  // read_slice touches only overlapping chunks and honors bounds.
  const auto slice = reader.read_slice(1, "density", 6, 4);
  std::vector<float> four(4);
  std::memcpy(four.data(), slice.data(), slice.size());
  EXPECT_EQ(four, iota_floats(4, 106.f));
  EXPECT_THROW(reader.read_slice(1, "density", 10, 8), UsageError);
  EXPECT_THROW(reader.read_chunk(1, "ghost", 0), UsageError);
}

// ------------------------------------------- encode-once metadata path ---
//
// The writer encodes each step's md.0 block once, at drain, and the footer
// close() appends concatenates those same blocks.  These tests pin that:
// every footer block is byte-identical to the md.0 block its md.idx entry
// points at, on every put flavour and drain mode, and across a retried
// drain.  The interning tests pin put validation and the first-seen
// rank-major variable order after names became step-local ids.

namespace {

/// Writes three steps from three ranks (two variables and an attribute per
/// step) with real or synthetic puts, then closes.
void write_encode_once_fixture(Writer& writer, bool synthetic) {
  for (std::uint64_t step = 0; step < 3; ++step) {
    writer.begin_step(step);
    for (const char* name : {"e/position/x", "e/weighting"}) {
      for (int r = 0; r < 3; ++r) {
        const std::uint64_t at = std::uint64_t(r) * 4;
        if (synthetic) {
          writer.put_synthetic(r, name, Datatype::float32, {12}, {at}, {4});
        } else {
          const auto local = iota_floats(4, float(step * 100 + at));
          writer.put<float>(r, name, {12}, {at}, {4}, local);
        }
      }
    }
    writer.add_attribute("time", AttrValue(double(step) * 0.5));
    writer.end_step();
  }
  writer.close();
}

/// Every footer block equals the md.0 block its md.idx entry addresses,
/// byte for byte, and re-encodes to itself.
void expect_footer_blocks_match_md0(fsim::SharedFs& fs,
                                    const std::string& path,
                                    std::size_t expected_steps) {
  const std::vector<std::uint8_t>& md = fs.store().file(path + "/md.0").data;
  const std::vector<IndexEntry> index =
      decode_index(fs.store().file(path + "/md.idx").data);
  ASSERT_EQ(index.size(), expected_steps);
  ASSERT_GE(md.size(), std::size_t(kFtrTrailerBytes));
  const std::span<const std::uint8_t> md0(md);

  BinReader trailer(md0.last(kFtrTrailerBytes));
  const std::uint64_t footer_offset = trailer.u64();
  const std::uint64_t footer_length = trailer.u64();
  const std::uint32_t footer_crc = trailer.u32();
  ASSERT_EQ(trailer.u32(), kFtrMagic);
  ASSERT_EQ(footer_offset + footer_length + kFtrTrailerBytes, md.size());
  const auto footer = md0.subspan(std::size_t(footer_offset),
                                  std::size_t(footer_length));
  EXPECT_EQ(crc32c(footer), footer_crc);

  BinReader body(footer);
  ASSERT_EQ(body.u32(), kFtrMagic);
  ASSERT_EQ(body.u32(), expected_steps);
  for (const IndexEntry& entry : index) {
    SCOPED_TRACE("step " + std::to_string(entry.step));
    const std::uint64_t length = body.u64();
    const auto block = body.bytes(std::size_t(length));
    ASSERT_EQ(entry.md_length, length);
    ASSERT_LE(entry.md_offset + entry.md_length, footer_offset);
    const auto in_md0 = md0.subspan(std::size_t(entry.md_offset),
                                    std::size_t(entry.md_length));
    EXPECT_TRUE(std::equal(block.begin(), block.end(), in_md0.begin()));
    EXPECT_EQ(entry.md_crc, crc32c(block));
    const std::vector<std::uint8_t> bytes(block.begin(), block.end());
    EXPECT_EQ(encode_step(decode_step(block)), bytes);
  }
  EXPECT_TRUE(body.done());
}

}  // namespace

TEST(BpEncodeOnce, FooterBlocksEqualMd0BlocksInEveryMode) {
  for (const bool synthetic : {false, true}) {
    for (const bool async : {false, true}) {
      SCOPED_TRACE(std::string(synthetic ? "synthetic" : "real") + " / " +
                   (async ? "async" : "sync"));
      fsim::SharedFs fs(8);
      EngineConfig config = small_config(2);
      config.async_write = async;
      Writer writer = Writer::open(fs, "eo.bp4", config, 3);
      write_encode_once_fixture(writer, synthetic);
      expect_footer_blocks_match_md0(fs, "eo.bp4", 3);
      Reader reader = Reader::open(fs, 0, "eo.bp4");
      EXPECT_TRUE(reader.used_footer_index());
      EXPECT_EQ(reader.variables(2),
                (std::vector<std::string>{"e/position/x", "e/weighting"}));
    }
  }
}

TEST(BpEncodeOnce, RetriedDrainKeepsOneFooterBlockPerStep) {
  // The second step's md.0 append fails once: the drain attempt rolls back
  // (offsets, index and footer blocks) and the retry lands the step.  The
  // footer must list each step exactly once, identical to md.0.
  fsim::SharedFs fs(8);
  fs.set_fault_plan(fsim::FaultPlan(
      9, {{fsim::FaultKind::eio, "md.0", 2, 0.0, 1, -1, 0}}));
  EngineConfig config = small_config(2);
  config.async_write = true;
  config.max_drain_retries = 2;
  Writer writer = Writer::open(fs, "retry.bp4", config, 3);
  write_encode_once_fixture(writer, /*synthetic=*/false);
  EXPECT_EQ(writer.watchdog_stats().retries, 1u);
  EXPECT_EQ(writer.watchdog_stats().steps_abandoned, 0u);
  expect_footer_blocks_match_md0(fs, "retry.bp4", 3);
  Reader reader = Reader::open(fs, 0, "retry.bp4");
  EXPECT_TRUE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(1, "e/weighting"), iota_floats(12, 100.f));
  EXPECT_TRUE(reader.all_ok(reader.verify()));
}

TEST(BpInterning, InconsistentShapeOrDtypeStillThrows) {
  fsim::SharedFs fs(8);
  Writer writer = Writer::open(fs, "i.bp4", small_config(), 3);
  const auto v = iota_floats(4);
  const std::vector<double> d(4, 1.0);
  writer.begin_step(0);
  writer.put<float>(0, "x", {12}, {0}, {4}, v);
  // Same name, another rank: shape and dtype are checked against the
  // interned first put.
  EXPECT_THROW(writer.put<float>(1, "x", {16}, {4}, {4}, v), UsageError);
  EXPECT_THROW(writer.put<double>(1, "x", {12}, {4}, {4}, d), UsageError);
  writer.put<float>(1, "x", {12}, {4}, {4}, v);
  writer.end_step();

  // The table is step-local: the next step may give "x" a new shape, and
  // synthetic puts are checked the same way.
  writer.begin_step(1);
  writer.put_synthetic(0, "x", Datatype::float64, {8}, {0}, {4});
  EXPECT_THROW(writer.put_synthetic(1, "x", Datatype::float32, {8}, {4}, {4}),
               UsageError);
  EXPECT_THROW(writer.put_synthetic(1, "x", Datatype::float64, {9}, {4}, {4}),
               UsageError);
  writer.put_synthetic(1, "x", Datatype::float64, {8}, {4}, {4});
  writer.end_step();
  writer.close();

  Reader reader = Reader::open(fs, 0, "i.bp4");
  EXPECT_EQ(reader.step(0).variables.at(0).shape, Dims{12});
  EXPECT_EQ(reader.step(0).variables.at(0).chunks.size(), 2u);
  EXPECT_EQ(reader.step(1).variables.at(0).shape, Dims{8});
  EXPECT_EQ(reader.step(1).variables.at(0).dtype, Datatype::float64);
}

TEST(BpInterning, VariableOrderIsRankMajorFirstSeen) {
  // Puts arrive zeta (rank 2), beta (rank 1), alpha (rank 0), so names are
  // interned in that order; the step record still lists variables in the
  // order a rank-major walk first meets them: rank 0's alpha, then rank
  // 1's beta and zeta.
  fsim::SharedFs fs(8);
  Writer writer = Writer::open(fs, "o.bp4", small_config(), 3);
  const auto v = iota_floats(4);
  writer.begin_step(0);
  writer.put<float>(2, "zeta", {12}, {8}, {4}, v);
  writer.put<float>(1, "beta", {12}, {4}, {4}, v);
  writer.put<float>(0, "alpha", {12}, {0}, {4}, v);
  writer.put<float>(1, "zeta", {12}, {4}, {4}, v);
  writer.put<float>(2, "beta", {12}, {8}, {4}, v);
  writer.end_step();
  writer.close();

  Reader reader = Reader::open(fs, 0, "o.bp4");
  EXPECT_EQ(reader.variables(0),
            (std::vector<std::string>{"alpha", "beta", "zeta"}));
  const StepRecord& record = reader.step(0);
  ASSERT_EQ(record.variables.size(), 3u);
  // Chunks within a variable are rank-major too.
  ASSERT_EQ(record.variables[1].chunks.size(), 2u);
  EXPECT_EQ(record.variables[1].chunks[0].writer_rank, 1u);
  EXPECT_EQ(record.variables[1].chunks[1].writer_rank, 2u);
  ASSERT_EQ(record.variables[2].chunks.size(), 2u);
  EXPECT_EQ(record.variables[2].chunks[0].writer_rank, 1u);
  EXPECT_EQ(record.variables[2].chunks[1].writer_rank, 2u);
}

// -------------------------------------------------------------- hardening ---

StepRecord sample_record() {
  StepRecord record;
  record.step = 3;
  VarRecord var{"x", Datatype::float32, {8}, {}};
  var.chunks.push_back({{0}, {8}, 0, 0, 0, 32, 32, ""});
  record.variables.push_back(var);
  record.attributes.emplace_back("time", AttrValue(1.5));
  return record;
}

TEST(BpHardening, TruncatedStepMetadataAlwaysFormatError) {
  // Every possible truncation of an encoded step record must surface as a
  // typed FormatError — never a crash, hang, or silent partial parse.
  const auto bytes = encode_step(sample_record());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    EXPECT_THROW(
        decode_step(std::span<const std::uint8_t>(bytes.data(), len)),
        FormatError);
  }
}

TEST(BpHardening, TruncatedIndexAlwaysFormatError) {
  const auto bytes =
      encode_index({{0, 0, 100, 0x1234}, {1, 100, 80, 0x5678}});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    EXPECT_THROW(
        decode_index(std::span<const std::uint8_t>(bytes.data(), len)),
        FormatError);
  }
}

TEST(BpHardening, UnknownFormatVersionIsTypedFormatError) {
  // A future magic, or one of the retired v4/v5 versions, must be rejected
  // up front by name, not parsed as whichever version the bytes happen to
  // resemble.  The metadata blocks carry a valid trailing CRC, so only the
  // magic check can reject them.
  auto expect_rejected = [](auto decode, std::vector<std::uint8_t> bytes,
                            const std::string& magic) {
    try {
      decode(bytes);
      ADD_FAILURE() << "accepted magic " << magic;
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find("magic \"" + magic + "\""),
                std::string::npos)
          << e.what();
    }
  };
  const std::pair<std::uint32_t, const char*> md_magics[] = {
      {0x4D443037, "MD07"}, {0x4D443035, "MD05"}, {0x4D443034, "MD04"}};
  for (const auto& [magic, name] : md_magics) {
    BinWriter md;
    md.u32(magic);
    md.u64(1);
    md.u32(0);
    md.u32(0);
    md.u32(crc32c(md.buffer()));
    expect_rejected([](const auto& b) { return decode_step(b); }, md.take(),
                    name);
  }
  const std::pair<std::uint32_t, const char*> idx_magics[] = {
      {0x49445836, "IDX6"}, {0x49445834, "IDX4"}};
  for (const auto& [magic, name] : idx_magics) {
    BinWriter idx;
    idx.u32(magic);
    idx.u32(0);
    expect_rejected([](const auto& b) { return decode_index(b); },
                    idx.take(), name);
  }
}

// -------------------------------------------------------------- integrity ---

TEST(BpIntegrity, ChunkCrcCatchesEveryBitFlipInData) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "c.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(16);
    writer.put<float>(0, "x", {16}, {0}, {16}, v);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "c.bp4");
  EXPECT_TRUE(Reader::all_ok(reader.verify()));

  // Flip every bit of the data subfile in turn: the per-chunk CRC32C must
  // catch each one (100% detection of single-bit silent corruption).
  auto& node = fs.store().file("c.bp4/data.0");
  ASSERT_EQ(node.data.size(), 64u);
  for (std::size_t bit = 0; bit < node.data.size() * 8; ++bit) {
    node.data[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    EXPECT_FALSE(Reader::all_ok(reader.verify()))
        << "bit flip at " << bit << " went undetected";
    EXPECT_THROW(reader.read(0, "x"), FormatError);
    node.data[bit / 8] ^= std::uint8_t(1u << (bit % 8));
  }
  EXPECT_TRUE(Reader::all_ok(reader.verify()));
}

TEST(BpIntegrity, TornDataSubfileReportedAsShortRead) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "t.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(16);
    writer.put<float>(0, "x", {16}, {0}, {16}, v);
    writer.end_step();
    writer.close();
  }
  auto& node = fs.store().file("t.bp4/data.0");
  fs.store().truncate(node, node.size - 1);  // the classic lost tail

  Reader reader = Reader::open(fs, 0, "t.bp4");
  const auto verdicts = reader.verify();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].status, Reader::ChunkVerdict::Status::short_read);
  EXPECT_FALSE(Reader::all_ok(verdicts));
  EXPECT_THROW(reader.read(0, "x"), FormatError);
}

TEST(BpIntegrity, IndexCrossChecksStepMetadata) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "x.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(8);
    writer.put<float>(0, "x", {8}, {0}, {8}, v);
    writer.end_step();
    writer.close();
  }
  // Flip one byte inside the md.0 step block: the md.idx entry's CRC of
  // that block must reject the container at open.  The footer trailer is
  // zapped first so the open takes the md.idx + md.0 scan path (the footer
  // holds its own self-CRC'd copy of the step metadata).
  auto& node = fs.store().file("x.bp4/md.0");
  node.data[node.data.size() - 1] ^= 0xFF;
  node.data[16] ^= 0x01;  // inside the first (only) step block
  EXPECT_THROW(Reader::open(fs, 0, "x.bp4"), FormatError);
}

TEST(BpChunkView, ValidatesGeometryAtConstruction) {
  const std::vector<float> data = iota_floats(8);
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size() * 4);
  // Offset/count dimensionality must agree.
  EXPECT_THROW(ChunkView(Datatype::float32, bytes, {0, 0}, {8}), UsageError);
  // Byte length must equal element_count(count) * sizeof(dtype).
  EXPECT_THROW(ChunkView(Datatype::float32, bytes, {0}, {7}), UsageError);
  EXPECT_THROW(ChunkView(Datatype::float64, bytes, {0}, {8}), UsageError);
  const ChunkView ok = ChunkView::of<float>(data, {4}, {8});
  EXPECT_EQ(ok.dtype(), Datatype::float32);
  EXPECT_EQ(ok.count(), Dims{8});
  EXPECT_EQ(ok.bytes().size(), 32u);
}

// ------------------------------------------------------------ async drain ---

// One multi-step, multi-aggregator workload, written with or without the
// background drain.  Real payloads so container bytes can be compared.
void write_workload(fsim::SharedFs& fs, const std::string& path,
                    EngineConfig config, int* peak = nullptr) {
  const int ranks = 4;
  Writer writer = Writer::open(fs, path, config, ranks);
  for (std::uint64_t step = 0; step < 6; ++step) {
    writer.begin_step(step);
    for (int r = 0; r < ranks; ++r) {
      auto local = iota_floats(64, float(step * 1000 + std::uint64_t(r)));
      writer.put<float>(r, "density", {256}, {std::uint64_t(r) * 64}, {64},
                        local);
    }
    writer.add_attribute("time", AttrValue(double(step)));
    writer.end_step();
  }
  writer.close();
  if (peak != nullptr) *peak = writer.peak_inflight();
}

TEST(BpAsync, DrainedChunksCarryVerifiableCrcs) {
  // The CRCs are computed inside the drain worker; the async container must
  // come out fully checksummed (and identical to sync, which the test
  // below checks byte-for-byte).
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  config.async_write = true;
  write_workload(fs, "acrc.bp4", config);
  Reader reader = Reader::open(fs, 0, "acrc.bp4");
  const auto verdicts = reader.verify();
  EXPECT_FALSE(verdicts.empty());
  for (const auto& v : verdicts)
    EXPECT_EQ(v.status, Reader::ChunkVerdict::Status::ok)
        << "step " << v.step << " var " << v.var;
}

TEST(BpAsync, ContainerBytesIdenticalToSync) {
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  write_workload(fs, "sync.bp4", config);
  config.async_write = true;
  config.buffer_chunk_mb = 1;
  write_workload(fs, "async.bp4", config);

  const auto sync_files = fs.store().list_recursive("sync.bp4");
  const auto async_files = fs.store().list_recursive("async.bp4");
  ASSERT_EQ(sync_files.size(), async_files.size());
  fsim::FsClient io(fs, 0);
  for (const char* name : {"data.0", "data.1", "md.0", "md.idx"}) {
    const auto a = io.read_all(std::string("sync.bp4/") + name);
    const auto b = io.read_all(std::string("async.bp4/") + name);
    EXPECT_EQ(a, b) << "file " << name << " differs between sync and async";
  }
}

TEST(BpAsync, ReaderSeesEveryStepAfterClose) {
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  config.async_write = true;
  write_workload(fs, "a.bp4", config);
  Reader reader = Reader::open(fs, 0, "a.bp4");
  ASSERT_EQ(reader.steps().size(), 6u);
  for (std::uint64_t step = 0; step < 6; ++step) {
    const auto data = reader.read_as<float>(step, "density");
    ASSERT_EQ(data.size(), 256u);
    EXPECT_FLOAT_EQ(data[0], float(step * 1000));
    EXPECT_FLOAT_EQ(data[64], float(step * 1000 + 1));
    ASSERT_TRUE(reader.attribute(step, "time").has_value());
    EXPECT_DOUBLE_EQ(std::get<double>(*reader.attribute(step, "time")),
                     double(step));
  }
}

TEST(BpAsync, WaitDrainsMakesContainerReadable) {
  fsim::SharedFs fs(8);
  auto config = small_config(1);
  config.async_write = true;
  Writer writer = Writer::open(fs, "w.bp4", config, 2);
  writer.begin_step(0);
  auto a = iota_floats(16);
  writer.put<float>(0, "x", {32}, {0}, {16}, a);
  writer.put<float>(1, "x", {32}, {16}, {16}, a);
  writer.end_step();
  writer.wait_drains();
  // The step landed even though the writer is still open: its subfile and
  // step metadata bytes are on storage (the md.idx header is only patched
  // at close, so use the raw subfile instead of a Reader).
  EXPECT_GT(fs.store().file("w.bp4/data.0").size, 0u);
  EXPECT_GT(fs.store().file("w.bp4/md.0").size, 0u);
  writer.close();
  Reader reader = Reader::open(fs, 0, "w.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "x").size(), 32u);
}

TEST(BpAsync, BackpressureBoundsInflightSteps) {
  fsim::SharedFs fs(8);
  for (const int max_inflight : {1, 2}) {
    auto config = small_config(1);
    config.async_write = true;
    config.max_inflight_steps = max_inflight;
    int peak = 0;
    const std::string path = "bp" + std::to_string(max_inflight) + ".bp4";
    write_workload(fs, path, config, &peak);
    EXPECT_GE(peak, 1);
    EXPECT_LE(peak, max_inflight);
  }
  auto config = small_config(1);
  config.async_write = true;
  config.max_inflight_steps = 0;
  EXPECT_THROW(Writer::open(fs, "bad.bp4", config, 1), UsageError);
}

TEST(BpAsync, SpmdConcurrentPutsAcrossOverlappedSteps) {
  // Satellite stress: every rank puts concurrently while earlier steps are
  // still draining in the background; the result must equal the sync run.
  fsim::SharedFs fs(16);
  const int ranks = 8;
  const std::uint64_t steps = 10;
  const std::size_t elems = 128;

  auto run = [&](const std::string& path, bool async) {
    auto config = small_config(2);
    config.ranks_per_node = ranks;
    config.async_write = async;
    config.max_inflight_steps = 2;
    Writer writer = Writer::open(fs, path, config, ranks);
    smpi::run_spmd(ranks, [&](smpi::Comm& comm) {
      const int r = comm.rank();
      for (std::uint64_t step = 0; step < steps; ++step) {
        if (r == 0) writer.begin_step(step);
        comm.barrier();
        auto local =
            iota_floats(elems, float(step * 10000 + std::uint64_t(r) * 100));
        writer.put<float>(r, "phase", {std::uint64_t(ranks) * elems},
                          {std::uint64_t(r) * elems}, {elems}, local);
        comm.barrier();
        if (r == 0) writer.end_step();
        comm.barrier();
      }
    });
    writer.close();
    return writer.peak_inflight();
  };

  run("spmd_sync.bp4", false);
  const int peak = run("spmd_async.bp4", true);
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, 2);

  Reader sync_reader = Reader::open(fs, 0, "spmd_sync.bp4");
  Reader async_reader = Reader::open(fs, 0, "spmd_async.bp4");
  ASSERT_EQ(async_reader.steps().size(), steps);
  for (std::uint64_t step = 0; step < steps; ++step) {
    const auto expect = sync_reader.read_as<float>(step, "phase");
    const auto got = async_reader.read_as<float>(step, "phase");
    EXPECT_EQ(expect, got) << "step " << step;
  }
  // Byte-identical containers, not merely equal decoded values.
  fsim::FsClient io(fs, 0);
  for (const char* name : {"data.0", "data.1", "md.0", "md.idx"}) {
    EXPECT_EQ(io.read_all(std::string("spmd_sync.bp4/") + name),
              io.read_all(std::string("spmd_async.bp4/") + name))
        << name;
  }
}

TEST(BpAsync, ProfilingAttributesDrainTimeOffCriticalPath) {
  fsim::SharedFs fs(4);
  auto config = small_config(1);
  config.profiling = true;
  config.async_write = true;
  {
    Writer writer = Writer::open(fs, "prof_async.bp4", config, 1);
    writer.begin_step(0);
    auto v = iota_floats(256);
    writer.put<float>(0, "x", {256}, {0}, {256}, v);
    writer.end_step();
    writer.close();
  }
  fsim::FsClient io(fs, 0);
  const auto text = io.read_all("prof_async.bp4/profiling.json");
  const Json profile = Json::parse(
      std::string(reinterpret_cast<const char*>(text.data()), text.size()));
  EXPECT_TRUE(profile.at("async_write").as_bool());
  // The memcopy cost moved off the critical path into the drain lane.
  EXPECT_GT(profile.at("transport_0").at("drain_us").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(profile.at("transport_0").at("memcopy_us").as_number(),
                   0.0);
}

TEST(BpAsync, DrainLanesInTraceAndReplay) {
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  config.async_write = true;
  write_workload(fs, "lanes.bp4", config);

  bool saw_drain_lane = false;
  for (const auto& op : fs.trace())
    if (op.lane > 0 && op.kind == fsim::OpKind::write) saw_drain_lane = true;
  EXPECT_TRUE(saw_drain_lane);

  const auto replay =
      fsim::replay_trace(fsim::dardel(), fs.store(), fs.trace(), 4);
  EXPECT_GT(replay.mean_drain_time(), 0.0);

  // The identical sync workload has no drain lane anywhere.
  fsim::SharedFs sync_fs(8);
  write_workload(sync_fs, "lanes.bp4", small_config(2));
  for (const auto& op : sync_fs.trace()) EXPECT_EQ(op.lane, 0u);
  const auto sync_replay =
      fsim::replay_trace(fsim::dardel(), sync_fs.store(), sync_fs.trace(), 4);
  EXPECT_DOUBLE_EQ(sync_replay.mean_drain_time(), 0.0);
}


// ------------------------------------------------------ real-step marshal ---

/// One seeded real step of 15 chunks from 2 ranks into one aggregator:
/// float64 random walks (which Blosc compresses), float32 noise (stored
/// raw), uint64 counts, int32 indices, bytes, one-element chunks, chunks
/// past Blosc's 256 KiB internal chunk, staged and borrowed puts.  Returns
/// a digest of every container file, profiling.json included.
std::uint64_t marshal_digest(EngineConfig config, const std::string& path) {
  config.num_aggregators = 1;
  config.ranks_per_node = 2;
  config.profiling = true;
  fsim::SharedFs fs(8);
  Rng rng(15);
  struct Put {
    int rank;
    std::string name;
    Datatype dtype;
    std::uint64_t shape, offset, count;
  };
  const std::vector<Put> puts{
      {0, "walk", Datatype::float64, 100000, 0, 40000},
      {1, "walk", Datatype::float64, 100000, 40000, 9000},
      {1, "noise", Datatype::float32, 90000, 70000, 20000},
      {0, "walk", Datatype::float64, 100000, 49000, 1},
      {0, "noise", Datatype::float32, 90000, 0, 70000},
      {1, "walk", Datatype::float64, 100000, 49001, 50999},
      {0, "count", Datatype::uint64, 3000, 0, 1000},
      {1, "count", Datatype::uint64, 3000, 1000, 1000},
      {1, "index", Datatype::int32, 5000, 0, 2500},
      {0, "count", Datatype::uint64, 3000, 2000, 1000},
      {0, "index", Datatype::int32, 5000, 2500, 2500},
      {0, "mask", Datatype::uint8, 20000, 0, 10000},
      {1, "mask", Datatype::uint8, 20000, 10000, 10000},
      {1, "energy", Datatype::float64, 2, 1, 1},
      {0, "energy", Datatype::float64, 2, 0, 1},
  };
  // Payloads stay alive until close(): borrowed puts read them at drain.
  std::vector<std::vector<std::uint8_t>> payloads;
  double walk = 0.0;
  for (const Put& put : puts) {
    std::vector<std::uint8_t> bytes(put.count * dtype_size(put.dtype));
    for (std::uint64_t i = 0; i < put.count; ++i) {
      std::uint8_t* at = bytes.data() + i * dtype_size(put.dtype);
      switch (put.dtype) {
        case Datatype::float64: {
          walk += 0.01 * rng.normal();
          std::memcpy(at, &walk, 8);
          break;
        }
        case Datatype::float32: {
          const float v = float(rng.uniform());
          std::memcpy(at, &v, 4);
          break;
        }
        case Datatype::uint64: {
          const std::uint64_t v = (put.offset + i) * 3 + rng.below(2);
          std::memcpy(at, &v, 8);
          break;
        }
        case Datatype::int32: {
          const std::int32_t v =
              std::int32_t((put.offset + i) * 7 % 1001) - 500;
          std::memcpy(at, &v, 4);
          break;
        }
        case Datatype::uint8:
          *at = std::uint8_t(rng.below(4));
          break;
      }
    }
    payloads.push_back(std::move(bytes));
  }
  {
    Writer writer = Writer::open(fs, path, config, 2);
    writer.begin_step(7);
    for (std::size_t k = 0; k < puts.size(); ++k) {
      const Put& put = puts[k];
      const ChunkView view(put.dtype, payloads[k], {put.offset}, {put.count});
      if (k % 2 == 1)
        writer.put_borrowed(put.rank, put.name, {put.shape}, view);
      else
        writer.put(put.rank, put.name, {put.shape}, view);
    }
    writer.add_attribute("time", AttrValue(0.5));
    writer.end_step();
    writer.close();
  }
  fsim::FsClient io(fs, 0);
  std::vector<std::uint8_t> all;
  for (const char* name : {"data.0", "md.0", "md.idx", "profiling.json"}) {
    const auto bytes = io.read_all(path + "/" + name);
    all.insert(all.end(), name, name + std::strlen(name));
    all.insert(all.end(), bytes.begin(), bytes.end());
  }
  return util::hash64(all);
}

TEST(BpMarshal, RealStepContainerBytesArePinned) {
  // Digests taken from the writer that compressed each chunk straight into
  // a 64 KiB aggregation buffer, serially: the sized, parallel-encoded
  // marshalling must produce the same container bytes.
  struct Pin {
    const char* codec;
    int threads;
    bool async;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"blosc", 1, false, 0x266aefbf899b7554ull},
      {"none", 1, false, 0x7951a81283834bc0ull},
      {"blosc", 2, false, 0xa84384318320828bull},
      // profiling.json records the async drain: a different digest.
      {"blosc", 2, true, 0x544cb46e7d6e46f8ull},
  };
  for (const Pin& pin : pins) {
    EngineConfig config;
    config.codec = pin.codec;
    config.compress_threads = pin.threads;
    config.compress_block_kb = 64;  // several CZP1 blocks per large chunk
    config.async_write = pin.async;
    const std::uint64_t digest = marshal_digest(config, "pin.bp4");
    EXPECT_EQ(digest, pin.digest)
        << pin.codec << " threads=" << pin.threads << " async=" << pin.async
        << " digest 0x" << std::hex << digest;
  }
}

TEST(BpMarshal, GrowingStepWithinSizeClassMissesNoPoolBuffer) {
  // Aggregation buffers are sized once per real step from the codecs'
  // worst-case frame bounds, so after one warm-up step a step whose
  // payload grows but stays inside the same pool size classes is served
  // entirely from the freelists: no aggregation-buffer regrowth, no miss.
  fsim::SharedFs fs(8);
  auto config = small_config(1, "blosc");
  config.ranks_per_node = 2;
  Writer writer = Writer::open(fs, "grow.bp4", config, 2);
  auto put_step = [&](std::uint64_t step, std::size_t n) {
    std::vector<float> smooth(n);
    for (std::size_t i = 0; i < n; ++i) smooth[i] = float(i) * 0.001f;
    writer.begin_step(step);
    writer.put<float>(0, "x", {2 * n}, {0}, {n}, smooth);
    writer.put<float>(1, "x", {2 * n}, {n}, {n}, smooth);
    writer.end_step();
  };
  put_step(0, 40000);  // 160 000 B per chunk: the 256 KiB class
  writer.reset_pool_stats();
  put_step(1, 50000);  // 200 000 B per chunk: still the 256 KiB class
  const auto stats = writer.pool_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u) << "hits=" << stats.hits;
  writer.close();
}


// ------------------------------------------------------------ drain plan ---

/// One cell of the drain-mode matrix: every choice the writer resolves at
/// open (lanes, write slice, charge site, gather mode, submit mode) plus
/// the step payload kind.
struct DrainCase {
  bool async;
  int batch_depth;  // 0 = per-op pwrites
  bool coalesce;
  int payload;      // 0 staged put(), 1 put_borrowed(), 2 put_synthetic()
  const char* aggregation;
  const char* topology;
  const char* codec;
};

std::string drain_case_name(const DrainCase& c) {
  static const char* const kPayload[] = {"staged", "borrowed", "synthetic"};
  std::string submit = c.batch_depth == 0 ? "per-op" : "ring";
  if (c.coalesce) submit += "+coalesce";
  return std::string(c.async ? "async" : "sync") + "/" + submit + "/" +
         kPayload[c.payload] + "/" + c.aggregation + "@" + c.topology + "/" +
         c.codec;
}

/// Appends fixed-width fields to a byte buffer for hashing.
struct Digest {
  std::vector<std::uint8_t> bytes;
  template <typename T>
  void add(T value) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    bytes.insert(bytes.end(), p, p + sizeof(T));
  }
  void add_bytes(std::span<const std::uint8_t> data) {
    add(std::uint64_t(data.size()));
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
  void add_str(const std::string& s) {
    add_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
};

/// Payloads of the drain matrix, built once and alive for the whole test
/// (borrowed puts read them at drain).  Per (step, rank): incompressible
/// int32 noise (70 000 elements in step 0, so each of the two aggregators
/// holds more than one 1 MiB async slice even under blosc; 5 000 in step
/// 1), a float64 ramp, a 4 x 16 uint8 block of a 2-D variable, and two
/// odd-sized chunks, so that adding a rank's CPU charges per chunk or per
/// rank rounds differently.
struct DrainPayloads {
  static constexpr int kRanks = 8;
  std::vector<std::int32_t> noise[2][kRanks];
  std::vector<double> ramp[2][kRanks];
  std::vector<std::uint8_t> mask[2][kRanks];
  std::vector<float> odd[2][kRanks];
  std::vector<std::uint64_t> tiny[2][kRanks];

  DrainPayloads() {
    Rng rng(16);
    for (int step = 0; step < 2; ++step)
      for (int r = 0; r < kRanks; ++r) {
        noise[step][r].resize(step == 0 ? 70000 : 5000);
        for (std::int32_t& v : noise[step][r]) v = std::int32_t(rng());
        ramp[step][r].resize(300);
        for (std::size_t i = 0; i < 300; ++i)
          ramp[step][r][i] = double(step * 1000 + r * 300) + double(i);
        mask[step][r].resize(4 * 16);
        for (std::uint8_t& v : mask[step][r]) v = std::uint8_t(rng.below(3));
        odd[step][r].resize(977);
        for (float& v : odd[step][r]) v = float(rng.uniform());
        tiny[step][r] = {std::uint64_t(r), std::uint64_t(step), 7};
      }
  }
};

/// Write a small 2-step, 8-rank job in one drain mode and hash everything
/// it leaves behind: every container file, every trace op field by field,
/// the replay report and the Darshan log.
std::uint64_t drain_digest(const DrainCase& c) {
  static const DrainPayloads data;
  const int nranks = DrainPayloads::kRanks;
  fsim::SharedFs fs(4);
  EngineConfig config;
  config.codec = c.codec;
  config.profiling = true;
  config.async_write = c.async;
  config.io_batch_depth = c.batch_depth;
  config.coalesce_writes = c.coalesce;
  config.aggregation = c.aggregation;
  config.topology = c.topology;
  config.ranks_per_node = 4;
  config.num_aggregators = 2;
  config.buffer_chunk_mb = 1;
  config.synthetic_codec_ratio = 0.375;
  const std::string path = "drain/plan.bp4";
  {
    Writer writer = Writer::open(fs, path, config, nranks);
    for (int step = 0; step < 2; ++step) {
      writer.begin_step(std::uint64_t(step));
      for (int r = 0; r < nranks; ++r) {
        if (step == 0 && r == 5) continue;  // a rank with no chunks
        const auto& noise = data.noise[step][r];
        const std::uint64_t ur = std::uint64_t(r), nx = noise.size();
        const std::vector<std::pair<std::string, ChunkView>> chunks{
            {"noise", ChunkView::of<std::int32_t>(noise, {ur * nx}, {nx})},
            {"ramp",
             ChunkView::of<double>(data.ramp[step][r], {ur * 300}, {300})},
            {"mask", ChunkView::of<std::uint8_t>(data.mask[step][r],
                                                 {ur * 4, 0}, {4, 16})},
            {"odd", ChunkView::of<float>(data.odd[step][r], {ur * 977},
                                         {977})},
            {"tiny",
             ChunkView::of<std::uint64_t>(data.tiny[step][r], {ur * 3}, {3})},
        };
        for (const auto& [name, view] : chunks) {
          Dims shape = view.count();
          shape[0] *= std::uint64_t(nranks);
          if (c.payload == 0)
            writer.put(r, name, shape, view);
          else if (c.payload == 1)
            writer.put_borrowed(r, name, shape, view);
          else
            writer.put_synthetic(r, name, view.dtype(), shape, view.offset(),
                                 view.count());
        }
      }
      writer.add_attribute("time", AttrValue(0.25 * double(step)));
      writer.end_step();
    }
    writer.close();
  }

  Digest d;
  for (const fsim::FileNode* node : fs.store().list_recursive(path)) {
    d.add_str(node->path);
    d.add_bytes(node->data);
  }
  for (const fsim::TraceOp& op : fs.trace()) {
    d.add(op.client);
    d.add(op.kind);
    d.add(op.tag);
    d.add(op.lane);
    d.add(op.file);
    d.add(op.offset);
    d.add(op.bytes);
    d.add(op.cpu_seconds);
    d.add(op.op_count);
    d.add(op.peer);
    d.add(op.fault);
  }
  fsim::SystemProfile profile = fsim::dardel();
  profile.ranks_per_node = config.ranks_per_node;
  profile.noise_amplitude = 0.0;
  const fsim::ReplayReport replay =
      fsim::replay_trace(profile, fs.store(), fs.trace(), nranks);
  for (const fsim::ClientTimes& t : replay.clients) {
    for (double v : {t.meta, t.write, t.read, t.cpu, t.drain, t.end}) d.add(v);
    for (std::uint64_t v :
         {t.meta_ops, t.write_calls, t.read_calls, t.drain_calls})
      d.add(v);
  }
  d.add(replay.makespan);
  d.add(replay.bytes_written);
  d.add(replay.bytes_read);
  d.add(replay.bytes_transferred);
  for (const auto& [tag, seconds] : replay.cpu_by_tag) {
    d.add_str(tag);
    d.add(seconds);
  }
  for (double v : replay.op_durations) d.add(v);
  for (double v : replay.ost_busy_seconds) d.add(v);
  for (double v : replay.ost_busy_until) d.add(v);
  d.add(replay.mds_busy_seconds);
  darshan::JobInfo job;
  job.nprocs = nranks;
  d.add_bytes(darshan::capture(fs, replay, job).serialize());
  return util::hash64(d.bytes);
}

TEST(BpDrainPlan, TraceContainerAndReplayArePinned) {
  // Digests taken from the writer that re-decided every mode per step,
  // rank and chunk: the drain plan resolved at open must leave the same
  // container, the same trace op for op, the same replayed times and the
  // same Darshan log in every cell of the matrix.
  // Cases in loop order; per group the six aggregation@topology x codec
  // cells run flat@flat, flat@dardel, two_level@dardel, each none then
  // blosc.
  static const std::uint64_t kPinned[] = {
      // sync/per-op/staged
      0xbf86d6295a2aececull, 0xa57c287fe4222facull, 0xb89051d795a5fa0bull,
      0xdb5101754d5df815ull, 0xb5550c42afb26de6ull, 0x3d23806446f9b559ull,
      // sync/per-op/borrowed
      0x69b092a2aff8e4c3ull, 0x1a13384ff4f3ee21ull, 0xb52f8f1bd2b5a2faull,
      0x17f9509c65b4b72aull, 0x6d16ddcef481fba4ull, 0xec6867ef8a0f0e3eull,
      // sync/per-op/synthetic
      0x8d3353efa589bae1ull, 0x8a536545f95927efull, 0xb934693ba1f1bdd8ull,
      0xff1aae52877cda57ull, 0x36bbea218c99fd17ull, 0x2154c097cf7ea138ull,
      // sync/ring/staged
      0x904dde7781c77b7bull, 0x92b95713602feabdull, 0x7f90efb3313f2e7full,
      0x07072ac783990d1bull, 0x36f32cf1f2579ffeull, 0x7998a604b6e5e8aeull,
      // sync/ring/borrowed
      0x3fc4528f558c7135ull, 0xc08fe154fbb58386ull, 0xb99c159ae6b41974ull,
      0xb831c20b30e5b822ull, 0x14552a62be9ab4f2ull, 0xdedd58c0b9e005a3ull,
      // sync/ring/synthetic
      0x33b1afdc44a0e60aull, 0x3ef8c63af6d7b2ceull, 0xfd0921ba29d634a6ull,
      0x8f27cb3526f1ddf5ull, 0xe85040ed181b08e7ull, 0x14a80c73d95a03b5ull,
      // sync/ring+coalesce/staged
      0xae2db4d85e54ff24ull, 0x8865b8649225e0d1ull, 0x1df28eccb076a3a3ull,
      0x39fc3f759e000563ull, 0xc6f1975c1de005e6ull, 0x74a38e24bf7a8bc2ull,
      // sync/ring+coalesce/borrowed
      0xe43e485417e354b0ull, 0x990531cabaa35b3aull, 0x600d2b0375e27e78ull,
      0x56849eaa11fcab54ull, 0x4fb3d675c9e2ea32ull, 0x16401b48aaeccb91ull,
      // sync/ring+coalesce/synthetic
      0x7d89cc416d0c929cull, 0xbe471b419c991f21ull, 0x354b47fa3ba7f49bull,
      0x673b101cc7a00099ull, 0x55e6be0630a734d8ull, 0x4eea38def16da592ull,
      // async/per-op/staged
      0x495f18e66232c4f0ull, 0x18acc81d4359c548ull, 0x425de509384ee1a2ull,
      0x79ad0ef03f5e12f3ull, 0x4b0c2afd640d717full, 0x032c787d94e41a1aull,
      // async/per-op/borrowed
      0xd0e58f240e968e54ull, 0x4db7365590aa362eull, 0x1c37ce99edec1910ull,
      0xe7860fda2095ebd6ull, 0xc4fe71bf10378fdaull, 0xa4d9bc9ce722571dull,
      // async/per-op/synthetic
      0x96832074776e5e6bull, 0x74c980585d3bcb2eull, 0x73ba0612b826a1e9ull,
      0x6a2c273b6f3e0806ull, 0x000e3ba30ce1e844ull, 0xd8831654880d54e4ull,
      // async/ring/staged
      0xeb59f23183c84f4eull, 0xfd1e9cf872032113ull, 0xb3144eb076f20194ull,
      0xecf6edbbb1a5eb8cull, 0x0b704ece04feeaeeull, 0xb24dca4f0344c5a6ull,
      // async/ring/borrowed
      0xd7864b260b381823ull, 0x407210782df45f1full, 0x70f70630271cc36aull,
      0x66eac528b7413c1cull, 0x4adcb3b1d7ac5f66ull, 0xff483ff54b773f3full,
      // async/ring/synthetic
      0xea41c2ff1444914cull, 0x67b11b2702b5cd21ull, 0x960fa1fb0adcee14ull,
      0x6f0dc8aeac6dc2afull, 0xa0395c114ead9d0dull, 0xd223b9dcf7838d07ull,
      // async/ring+coalesce/staged
      0xa80a197ca84e2a2dull, 0x52619fc6147e0c57ull, 0x1d6053a51c017977ull,
      0xd0bf950d385a8a96ull, 0xaad57dc1acec7603ull, 0x0f0bffced6b339b2ull,
      // async/ring+coalesce/borrowed
      0x0a4aaa25bcebbc74ull, 0xb921332b77e0a9feull, 0x77f3bc409fdd553dull,
      0x1f895b131e046510ull, 0xb1d9e710200caa31ull, 0xa908be848858a42dull,
      // async/ring+coalesce/synthetic
      0x5c9027442b33da51ull, 0xcd9f490e7054fe82ull, 0x102cb1ac20d6ce0aull,
      0xe11a3c3b925e1a2eull, 0x967101cb10569a23ull, 0x8e6ee1980364764dull,
  };
  std::vector<DrainCase> cases;
  for (const bool async : {false, true})
    for (const auto& [depth, coalesce] :
         {std::pair{0, false}, std::pair{4, false}, std::pair{4, true}})
      for (const int payload : {0, 1, 2})
        for (const auto& [aggregation, topology] :
             {std::pair{"flat", "flat"}, std::pair{"flat", "dardel"},
              std::pair{"two_level", "dardel"}})
          for (const char* codec : {"none", "blosc"})
            cases.push_back({async, depth, coalesce, payload, aggregation,
                             topology, codec});
  ASSERT_EQ(cases.size(), std::size(kPinned));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::uint64_t digest = drain_digest(cases[i]);
    EXPECT_EQ(digest, kPinned[i])
        << drain_case_name(cases[i]) << " digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace bitio::bp
