// On-disk corruption detection: bytes flipped in a written slice file must
// be caught by the CRC-32 recorded in the node index — through read_region,
// through the degradation policies, and through the full pipeline. Also
// covers the legacy (checksum-free) index format and truncated slice files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "core/analysis.hpp"
#include "io/dataset.hpp"
#include "io/phantom.hpp"
#include "io/resilient_reader.hpp"

namespace h4d::io {
namespace {

namespace fsys = std::filesystem;

// Flip one byte of a file in place.
void flip_byte(const fsys::path& file, std::streamoff offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << file;
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x5A));
  ASSERT_TRUE(f.good());
}

// Rewrite a node index dropping the checksum column (the pre-checksum
// on-disk format).
void strip_crc_column(const fsys::path& index_file) {
  std::ifstream in(index_file);
  ASSERT_TRUE(in.is_open()) << index_file;
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::int64_t t = 0, z = 0;
    std::string name;
    ASSERT_TRUE(static_cast<bool>(is >> t >> z >> name)) << line;
    out << t << ' ' << z << ' ' << name << '\n';
  }
  in.close();
  std::ofstream rewritten(index_file, std::ios::trunc);
  rewritten << out.str();
}

// Rewrite a text file line by line through `edit` (which may also append).
template <typename F>
void rewrite_lines(const fsys::path& file, F edit) {
  std::vector<std::string> lines;
  {
    std::ifstream in(file);
    ASSERT_TRUE(in.is_open()) << file;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  edit(lines);
  std::ofstream out(file, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_corrupt_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    vol_ = Volume4<std::uint16_t>({7, 6, 4, 3});
    std::mt19937_64 rng(21);
    std::uniform_int_distribution<int> u(0, 4000);
    for (auto& x : vol_.storage()) x = static_cast<std::uint16_t>(u(rng));
  }
  void TearDown() override { fsys::remove_all(root_); }

  // Slice (t=0, z=0) is slice number 0: always on node_0.
  fsys::path slice00_path() const { return root_ / "node_0" / "slice_t0_z0.raw"; }

  fsys::path root_;
  Volume4<std::uint16_t> vol_{Vec4{1, 1, 1, 1}};
};

TEST_F(CorruptionTest, FlippedByteOnDiskIsCaughtByDefaultReadRegion) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  flip_byte(slice00_path(), 5);
  try {
    ds.read_region(Region4::whole(vol_.dims()));
    FAIL() << "expected ChecksumError";
  } catch (const ChecksumError& e) {
    EXPECT_EQ(e.t, 0);
    EXPECT_EQ(e.z, 0);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST_F(CorruptionTest, UncorruptedDatasetRoundTripsThroughVerifiedPath) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  const auto back = ds.read_region(Region4::whole(vol_.dims()));
  EXPECT_EQ(back.storage(), vol_.storage());
}

TEST_F(CorruptionTest, SkipAndFillIsolatesTheDamagedSlice) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  flip_byte(slice00_path(), 5);

  ResilienceConfig rc;
  rc.policy = DegradePolicy::SkipAndFill;
  rc.retry.max_attempts = 2;
  rc.retry.really_sleep = false;
  rc.fill_value = 777;
  FaultReport report;
  const auto got = ds.read_region(Region4::whole(vol_.dims()), rc, nullptr, &report);

  ASSERT_EQ(got.dims(), vol_.dims());
  for (std::int64_t t = 0; t < vol_.dims()[3]; ++t)
    for (std::int64_t z = 0; z < vol_.dims()[2]; ++z)
      for (std::int64_t y = 0; y < vol_.dims()[1]; ++y)
        for (std::int64_t x = 0; x < vol_.dims()[0]; ++x) {
          if (t == 0 && z == 0) {
            ASSERT_EQ(got.at(x, y, z, t), 777);
          } else {
            ASSERT_EQ(got.at(x, y, z, t), vol_.at(x, y, z, t))
                << "undamaged slice altered at t=" << t << " z=" << z;
          }
        }

  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_EQ(report.skipped[0].t, 0);
  EXPECT_EQ(report.skipped[0].z, 0);
  EXPECT_EQ(report.slices_skipped, 1);
  EXPECT_GE(report.checksum_failures, 1);
}

TEST_F(CorruptionTest, VerificationCanBeDisabled) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  flip_byte(slice00_path(), 5);
  ResilienceConfig rc;  // FailFast, but...
  rc.verify_checksums = false;
  // ...without verification the flipped byte sails through undetected.
  const auto got = ds.read_region(Region4::whole(vol_.dims()), rc);
  EXPECT_NE(got.storage(), vol_.storage());
}

TEST_F(CorruptionTest, LegacyIndexWithoutChecksumsStillReads) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 2);
  strip_crc_column(root_ / "node_0" / "index.txt");
  strip_crc_column(root_ / "node_1" / "index.txt");

  const DiskDataset reopened = DiskDataset::open(root_);
  for (int n = 0; n < 2; ++n) {
    const StorageNodeReader reader = reopened.node_reader(n);
    for (const SliceRef& s : reader.slices()) {
      EXPECT_FALSE(s.has_crc);
    }
  }
  // Clean data still round-trips (verification is simply unavailable)...
  EXPECT_EQ(reopened.read_region(Region4::whole(vol_.dims())).storage(), vol_.storage());
  // ...and corruption is — by design — no longer detectable.
  flip_byte(slice00_path(), 5);
  EXPECT_NO_THROW(reopened.read_region(Region4::whole(vol_.dims())));
}

TEST_F(CorruptionTest, TruncatedSliceReportsExpectedVersusActual) {
  const DiskDataset ds = DiskDataset::create(root_, vol_, 1);
  const std::int64_t full = static_cast<std::int64_t>(fsys::file_size(slice00_path()));
  fsys::resize_file(slice00_path(), static_cast<std::uintmax_t>(full / 2));

  StorageNodeReader reader = ds.node_reader(0);
  const SliceRef* s = reader.find_slice(0, 0);
  ASSERT_NE(s, nullptr);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(full));
  try {
    reader.read_slice_bytes(*s, bytes.data());
    FAIL() << "expected SliceReadError";
  } catch (const SliceReadError& e) {
    EXPECT_EQ(e.t, 0);
    EXPECT_EQ(e.z, 0);
    EXPECT_EQ(e.expected_bytes, full);
    EXPECT_EQ(e.actual_bytes, full / 2);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(full)), std::string::npos) << msg;
    EXPECT_NE(msg.find("t=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("z=0"), std::string::npos) << msg;
  }

  // The row-wise path reports the same class of error.
  std::vector<std::uint16_t> row(static_cast<std::size_t>(vol_.dims()[0]));
  EXPECT_THROW(
      reader.read_slice_region(*s, 0, vol_.dims()[1] - 1, vol_.dims()[0], 1, row.data()),
      SliceReadError);
}

// --- Index grammar and meta validation ----------------------------------------

// Opening node 0 must fail with a runtime_error naming its index file, the
// offending line number and `why`.
void expect_index_rejected(const fsys::path& root, int lineno, const std::string& why) {
  const std::string where = (root / "node_0" / "index.txt").string() + ":" +
                            std::to_string(lineno) + ": ";
  try {
    DiskDataset::open(root).node_reader(0);
    FAIL() << "index accepted; expected: " << why;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(where), std::string::npos) << msg;
    EXPECT_NE(msg.find(why), std::string::npos) << msg;
  }
}

TEST_F(CorruptionTest, IndexFilenameMustBeABasename) {
  DiskDataset::create(root_, vol_, 2);
  rewrite_lines(root_ / "node_0" / "index.txt", [](std::vector<std::string>& lines) {
    lines[1] = "0 1 ../node_1/slice_t0_z1.raw";
  });
  expect_index_rejected(root_, 2, "basename");
}

TEST_F(CorruptionTest, IndexEntryOutsideDimsIsRejected) {
  DiskDataset::create(root_, vol_, 2);  // dims z=4, t=3
  rewrite_lines(root_ / "node_0" / "index.txt", [](std::vector<std::string>& lines) {
    lines.push_back("3 0 slice_t0_z0.raw");
  });
  const int appended = 7;  // 12 slices round-robin over 2 nodes, then this
  expect_index_rejected(root_, appended, "outside dataset dims");
  rewrite_lines(root_ / "node_0" / "index.txt", [](std::vector<std::string>& lines) {
    lines.back() = "0 -1 slice_t0_z0.raw";
  });
  expect_index_rejected(root_, appended, "outside dataset dims");
}

TEST_F(CorruptionTest, IndexEntryNotPlacedOnTheNodeIsRejected) {
  DiskDataset::create(root_, vol_, 2);  // node 0 holds the even slice numbers
  rewrite_lines(root_ / "node_0" / "index.txt", [](std::vector<std::string>& lines) {
    lines[1] = "0 1 slice_t0_z1.raw";  // slice 1 belongs to node 1
  });
  expect_index_rejected(root_, 2, "slice t=0, z=1 is not placed on node 0");
}

TEST_F(CorruptionTest, DuplicateIndexEntryIsRejected) {
  DiskDataset::create(root_, vol_, 2);
  rewrite_lines(root_ / "node_0" / "index.txt",
                [](std::vector<std::string>& lines) { lines.push_back(lines.front()); });
  expect_index_rejected(root_, 7, "duplicate entry for slice t=0, z=0");
}

TEST_F(CorruptionTest, IndexChecksumMustBeOneToEightHexDigits) {
  DiskDataset::create(root_, vol_, 2);
  for (const std::string crc : {"maybe", "123456789", "0x1f"}) {
    rewrite_lines(root_ / "node_0" / "index.txt", [&](std::vector<std::string>& lines) {
      lines[0] = "0 0 slice_t0_z0.raw " + crc;
    });
    expect_index_rejected(root_, 1, "checksum must be 1-8 hex digits");
  }
}

TEST_F(CorruptionTest, MetaDimsMustMatchTheSliceFiles) {
  DiskDataset::create(root_, vol_, 2);  // 7x6 u16 slices: 84 bytes
  const auto set_dims = [&](const std::string& dims) {
    rewrite_lines(root_ / "dataset.meta", [&](std::vector<std::string>& lines) {
      for (std::string& line : lines) {
        if (line.rfind("dims ", 0) == 0) line = "dims " + dims;
      }
    });
  };
  const auto expect_meta_rejected = [&](const std::string& dims, const std::string& why) {
    set_dims(dims);
    try {
      DiskDataset::open(root_);
      FAIL() << "dims " << dims << " accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("dataset.meta"), std::string::npos) << msg;
      EXPECT_NE(msg.find(why), std::string::npos) << msg;
    }
  };
  // The volume's byte count overflows int64_t before any slice is looked at.
  expect_meta_rejected("4611686018427387904 1 1 1", "overflow");
  // Terabyte slices that no slice file on disk agrees with.
  expect_meta_rejected("99999999999 6 4 3", "holds 84 bytes");
  expect_meta_rejected("8 6 4 3", "96-byte slices");
  set_dims("7 6 4 3");
  EXPECT_NO_THROW(DiskDataset::open(root_));
}

// DatasetMeta::load must throw DatasetError naming dataset.meta, `lineno`
// (0: no line number) and `why`.
void expect_meta_error(const fsys::path& root, int lineno, const std::string& why) {
  std::string where = (root / "dataset.meta").string();
  if (lineno > 0) where += ":" + std::to_string(lineno);
  try {
    DatasetMeta::load(root);
    FAIL() << "dataset.meta accepted; expected: " << why;
  } catch (const DatasetError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(e.line, lineno) << msg;
    EXPECT_NE(msg.find(where + ": "), std::string::npos) << msg;
    EXPECT_NE(msg.find(why), std::string::npos) << msg;
  }
}

// dataset.meta as DiskDataset::create writes it: version, dims, dtype,
// range, storage_nodes, replicas on lines 1-6.
void set_meta_line(const fsys::path& root, std::size_t lineno, const std::string& text) {
  rewrite_lines(root / "dataset.meta",
                [&](std::vector<std::string>& lines) { lines.at(lineno - 1) = text; });
}

TEST_F(CorruptionTest, MetaValueThatDoesNotParseIsRejected) {
  DiskDataset::create(root_, vol_, 3, 2);
  // Stream parsing stopped at the bad value and left every later key
  // (storage_nodes, replicas) at its default.
  set_meta_line(root_, 4, "range 424 abc");
  expect_meta_error(root_, 4, "malformed value for 'range'");
}

TEST_F(CorruptionTest, MetaKeyMustConsumeItsWholeLine) {
  DiskDataset::create(root_, vol_, 3, 2);
  set_meta_line(root_, 4, "range 424 1913x");
  expect_meta_error(root_, 4, "malformed value for 'range'");
  set_meta_line(root_, 4, "range 424 1913");
  set_meta_line(root_, 2, "dims 7 6 4 3 5");
  expect_meta_error(root_, 2, "malformed value for 'dims'");
}

TEST_F(CorruptionTest, MetaKeyAppearingTwiceIsRejected) {
  DiskDataset::create(root_, vol_, 3, 2);
  rewrite_lines(root_ / "dataset.meta",
                [](std::vector<std::string>& lines) { lines.push_back("replicas 1"); });
  expect_meta_error(root_, 7, "duplicate key 'replicas' (first on line 6)");
}

TEST_F(CorruptionTest, MetaUnknownKeysAndBlankLinesAreSkipped) {
  DiskDataset::create(root_, vol_, 3, 2);
  rewrite_lines(root_ / "dataset.meta", [](std::vector<std::string>& lines) {
    lines.insert(lines.begin() + 2, "");
    lines.push_back("acquired_by scanner 7 (any text)");
  });
  const DatasetMeta m = DatasetMeta::load(root_);
  EXPECT_EQ(m.dims, vol_.dims());
  EXPECT_EQ(m.storage_nodes, 3);
  EXPECT_EQ(m.replicas, 2);
}

TEST_F(CorruptionTest, MetaValidationErrorsAreDatasetErrors) {
  DiskDataset::create(root_, vol_, 3, 2);
  set_meta_line(root_, 1, "version 3");
  expect_meta_error(root_, 1, "version 3 is newer than supported 2");
  set_meta_line(root_, 1, "version 2");
  set_meta_line(root_, 5, "storage_nodes 0");
  expect_meta_error(root_, 0, "must all be positive");
  set_meta_line(root_, 5, "storage_nodes 3");
  set_meta_line(root_, 2, "dims 4611686018427387904 1 1 1");
  expect_meta_error(root_, 0, "overflow");
  set_meta_line(root_, 2, "dims 8 6 4 3");
  expect_meta_error(root_, 0, "96-byte slices");
  set_meta_line(root_, 3, "dtype u12");
  expect_meta_error(root_, 3, "unknown dtype: u12");
}

struct CorruptionE2E : ::testing::Test {
  void SetUp() override {
    root_ = fsys::temp_directory_path() /
            ("h4d_corrupt_e2e_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(root_);
    PhantomConfig pcfg;
    pcfg.dims = {16, 14, 5, 4};
    pcfg.num_tumors = 1;
    pcfg.seed = 11;
    phantom_ = generate_phantom(pcfg).volume;
    DiskDataset::create(root_, phantom_, 2);
    flip_byte(root_ / "node_0" / "slice_t0_z0.raw", 9);
  }
  void TearDown() override { fsys::remove_all(root_); }

  core::PipelineConfig config() const {
    core::PipelineConfig cfg;
    cfg.dataset_root = root_;
    cfg.engine.roi_dims = {5, 5, 3, 3};
    cfg.engine.num_levels = 16;
    cfg.engine.features = haralick::FeatureSet::paper_eval();
    cfg.texture_chunk = {10, 10, 4, 3};
    cfg.rfr_copies = 2;
    cfg.variant = core::Variant::HMP;
    cfg.hmp_copies = 2;
    cfg.resilience.retry.really_sleep = false;
    return cfg;
  }

  fsys::path root_;
  Volume4<std::uint16_t> phantom_{Vec4{1, 1, 1, 1}};
};

TEST_F(CorruptionE2E, PipelineFailsFastOnCorruptionByDefault) {
  EXPECT_THROW(core::analyze_threaded(config()), std::runtime_error);
}

TEST_F(CorruptionE2E, PipelineCompletesUnderSkipAndFill) {
  core::PipelineConfig cfg = config();
  cfg.resilience.policy = io::DegradePolicy::SkipAndFill;
  cfg.resilience.retry.max_attempts = 2;

  const core::AnalysisResult r = core::analyze_threaded(cfg);
  ASSERT_EQ(r.faults.skipped.size(), 1u);
  EXPECT_EQ(r.faults.skipped[0].t, 0);
  EXPECT_EQ(r.faults.skipped[0].z, 0);
  EXPECT_EQ(r.faults.slices_skipped, 1);
  EXPECT_GE(r.faults.checksum_failures, 1);
  EXPECT_FALSE(r.faults.clean());
  // All feature maps were produced despite the damaged slice.
  EXPECT_EQ(r.maps.size(), 4u);  // paper_eval feature count
  for (const auto& [feature, map] : r.maps) {
    EXPECT_GT(map.size(), 0) << haralick::feature_name(feature);
  }
}

}  // namespace
}  // namespace h4d::io
