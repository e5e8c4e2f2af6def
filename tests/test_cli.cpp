#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "io/mhd.hpp"
#include "io/phantom.hpp"

namespace h4d::cli {
namespace {

namespace fsys = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fsys::temp_directory_path() /
           ("h4d_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fsys::remove_all(dir_);
    fsys::create_directories(dir_);
  }
  void TearDown() override { fsys::remove_all(dir_); }

  int invoke(std::initializer_list<std::string> argv) {
    std::vector<const char*> raw{"h4d"};
    args_.assign(argv);
    for (const std::string& a : args_) raw.push_back(a.c_str());
    out_.str("");
    err_.str("");
    return run(static_cast<int>(raw.size()), raw.data(), out_, err_);
  }

  std::string stdout_text() const { return out_.str(); }
  std::string stderr_text() const { return err_.str(); }

  fsys::path dir_;
  std::vector<std::string> args_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_EQ(invoke({}), 2);
  EXPECT_NE(stderr_text().find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  // serve and jobs were removed verbs: they fail like any other unknown one.
  for (const std::string cmd : {"frobnicate", "serve", "jobs"}) {
    EXPECT_EQ(invoke({cmd}), 2) << cmd;
    EXPECT_NE(stderr_text().find("unknown command: " + cmd), std::string::npos) << cmd;
  }
}

TEST_F(CliTest, PhantomThenInfo) {
  const std::string ds = (dir_ / "ds").string();
  EXPECT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,4,3", "--nodes", "2",
                    "--tumors", "1"}),
            0);
  EXPECT_NE(stdout_text().find("wrote phantom dataset (16,16,4,3)"), std::string::npos);

  EXPECT_EQ(invoke({"info", ds}), 0);
  EXPECT_NE(stdout_text().find("dims           (16,16,4,3)"), std::string::npos);
  EXPECT_NE(stdout_text().find("storage nodes  2"), std::string::npos);
}

TEST_F(CliTest, PhantomRequiresOut) {
  EXPECT_EQ(invoke({"phantom"}), 1);
  EXPECT_NE(stderr_text().find("--out"), std::string::npos);
}

TEST_F(CliTest, ImportMhd) {
  io::PhantomConfig pcfg;
  pcfg.dims = {10, 8, 3, 2};
  io::write_mhd(dir_ / "study.mhd", io::generate_phantom(pcfg).volume);
  const std::string ds = (dir_ / "imported").string();
  EXPECT_EQ(invoke({"import", (dir_ / "study.mhd").string(), "--out", ds, "--nodes", "2"}),
            0);
  EXPECT_EQ(invoke({"info", ds}), 0);
  EXPECT_NE(stdout_text().find("(10,8,3,2)"), std::string::npos);
}

TEST_F(CliTest, AnalyzeWritesMaps) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "2"}), 0);
  const std::string maps = (dir_ / "maps").string();
  EXPECT_EQ(invoke({"analyze", ds, "--out", maps, "--roi", "5,5,3,3", "--workers", "2",
                    "--dirs", "axis", "--chunk", "12,12,6,4"}),
            0);
  EXPECT_NE(stdout_text().find("4 feature maps"), std::string::npos);
  std::size_t pgms = 0;
  for (const auto& e : fsys::directory_iterator(maps)) {
    if (e.path().extension() == ".pgm") ++pgms;
  }
  EXPECT_GT(pgms, 0u);
}

TEST_F(CliTest, SimulateReportsVirtualTime) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "2"}), 0);
  EXPECT_EQ(invoke({"simulate", ds, "--roi", "5,5,3,3", "--workers", "4", "--dirs", "axis",
                    "--variant", "hmp", "--chunk", "12,12,6,4"}),
            0);
  EXPECT_NE(stdout_text().find("virtual execution time"), std::string::npos);
  EXPECT_NE(stdout_text().find("HMP"), std::string::npos);
}

TEST_F(CliTest, UnknownOptionsFailNamingTheOption) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "2"}), 0);
  // Removed flags and typos fail before any work instead of running with
  // defaults; the error names the offending option.
  for (const std::string opt :
       {"queue", "cache-policy", "dir", "tile-cache-mb", "tile-shape", "prefetch-depth"}) {
    EXPECT_EQ(invoke({"analyze", ds, "--" + opt, "x"}), 1) << opt;
    EXPECT_NE(stderr_text().find("analyze: unknown option --" + opt), std::string::npos)
        << stderr_text();
    EXPECT_EQ(stdout_text(), "") << opt;
  }
  // Every unknown option is named, and each verb checks its own set:
  // simulate never writes maps, info takes no options at all.
  EXPECT_EQ(invoke({"analyze", ds, "--dir", "axis", "--sweeep", "fast"}), 1);
  EXPECT_NE(stderr_text().find("--dir, --sweeep"), std::string::npos) << stderr_text();
  EXPECT_EQ(invoke({"simulate", ds, "--out", "maps"}), 1);
  EXPECT_NE(stderr_text().find("simulate: unknown option --out"), std::string::npos);
  EXPECT_EQ(invoke({"info", ds, "--dims", "1,1,1,1"}), 1);
  EXPECT_NE(stderr_text().find("info: unknown option --dims"), std::string::npos);
}

TEST_F(CliTest, AnalyzeAcceptsOptionsReadOnlyInSomeCases) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "2"}), 0);
  const std::string metrics = (dir_ / "metrics.json").string();
  // --fill matters only under --on-corrupt skip, --max-restarts only under
  // --supervise restart, --plan only for the split variant: all accepted.
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--workers", "2", "--dirs", "axis",
                    "--chunk", "12,12,6,4", "--on-corrupt", "fail", "--fill", "7",
                    "--supervise", "fail", "--max-restarts", "5", "--variant", "hmp",
                    "--plan", "auto", "--metrics", metrics}),
            0)
      << stderr_text();
  std::ifstream in(metrics);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"queue_max_depth\""), std::string::npos);
  EXPECT_NE(text.find("\"queue_stalled_pushes\""), std::string::npos);
}

TEST_F(CliTest, AnalyzeRejectsRemovedSweepFlag) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "14,14,6,4", "--nodes", "2"}), 0);
  // One exact feature sweep serves every representation; the old
  // floating-point mode switch is an unknown option, not a silent no-op.
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--repr", "sparse", "--sweep",
                    "strict"}),
            1);
  EXPECT_NE(stderr_text().find("unknown option --sweep"), std::string::npos)
      << stderr_text();
  EXPECT_EQ(stdout_text(), "");
}

TEST_F(CliTest, BadOptionValueReportsError) {
  EXPECT_EQ(invoke({"phantom", "--out", (dir_ / "x").string(), "--dims", "16,16"}), 1);
  EXPECT_NE(stderr_text().find("comma-separated"), std::string::npos);
  EXPECT_EQ(invoke({"phantom", "--out", (dir_ / "x").string(), "--nodes", "two"}), 1);

  // Enum-valued flags reject anything outside their value set, naming the
  // flag, the allowed values and the offending value, before doing any work.
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,2", "--nodes", "2"}), 0);
  const struct {
    const char* verb;
    const char* flag;
    const char* value;
    const char* allowed;
  } cases[] = {
      {"analyze", "repr", "bogus", "full|sparse"},
      {"analyze", "dirs", "bogus", "all|axis"},
      {"analyze", "variant", "bogus", "split|hmp"},
      {"analyze", "checksums", "maybe", "on|off"},
      {"analyze", "resume", "maybe", "off|on"},
      {"analyze", "plan", "bogus", "fixed|auto"},
      {"analyze", "features", "some", "paper|all"},
      {"simulate", "variant", "hmp ", "split|hmp"},
      {"repair", "add-checksums", "yes", "off|on"},
  };
  for (const auto& c : cases) {
    const std::string flag = std::string("--") + c.flag;
    EXPECT_EQ(invoke({c.verb, ds, flag, c.value}), 1) << flag;
    EXPECT_NE(stderr_text().find(flag + " must be one of " + c.allowed + ", got '" +
                                 c.value + "'"),
              std::string::npos)
        << stderr_text();
    EXPECT_EQ(stdout_text(), "") << flag;
  }
  // A --faults value must fill its whole token.
  EXPECT_EQ(invoke({"analyze", ds, "--faults", "corrupt=0.5x,seed=3"}), 1);
  EXPECT_NE(stderr_text().find("bad fault spec value for corrupt: 0.5x"), std::string::npos)
      << stderr_text();
  EXPECT_EQ(stdout_text(), "");
}

// The hex digest of a run's `maps crc32` summary line.
std::string maps_digest(const std::string& text) {
  const std::string key = "maps crc32 ";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return "(no digest line)";
  return text.substr(at + key.size(), text.find('\n', at) - at - key.size());
}

TEST_F(CliTest, MapsDigestAgreesAcrossVariantsReprsAndExecutors) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "14,12,5,4", "--nodes", "2"}), 0);
  ASSERT_EQ(invoke({"analyze", ds}), 0) << stderr_text();
  const std::string digest = maps_digest(stdout_text());
  ASSERT_EQ(digest.size(), 8u) << stdout_text();
  EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"), std::string::npos) << digest;
  EXPECT_EQ(invoke({"analyze", ds, "--variant", "hmp"}), 0) << stderr_text();
  EXPECT_EQ(maps_digest(stdout_text()), digest) << "--variant hmp";
  EXPECT_EQ(invoke({"analyze", ds, "--repr", "sparse"}), 0) << stderr_text();
  EXPECT_EQ(maps_digest(stdout_text()), digest) << "--repr sparse";
  EXPECT_EQ(invoke({"simulate", ds}), 0) << stderr_text();
  EXPECT_EQ(maps_digest(stdout_text()), digest) << "simulate";
  // A change in the maps changes the digest.
  EXPECT_EQ(invoke({"analyze", ds, "--levels", "16"}), 0) << stderr_text();
  const std::string coarser = maps_digest(stdout_text());
  EXPECT_EQ(coarser.size(), 8u) << stdout_text();
  EXPECT_NE(coarser, digest);
}

TEST_F(CliTest, ResumeThatWouldSkipFinishedChunksFails) {
  // analyze and simulate assemble their maps in memory, so a resume that
  // prunes finished chunks would print and write maps that lack them. It
  // must fail naming the manifest and the pruned count, not exit 0.
  const std::string ds = (dir_ / "ds").string();
  const std::string ckpt = (dir_ / "run.ckpt").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,14,5,4", "--nodes", "2"}), 0);
  // A resume against a manifest that records nothing prunes nothing.
  ASSERT_EQ(invoke({"analyze", ds, "--chunk", "12,12,4,4", "--checkpoint", ckpt, "--resume",
                    "on"}),
            0)
      << stderr_text();
  const std::string digest = maps_digest(stdout_text());
  ASSERT_EQ(invoke({"analyze", ds, "--chunk", "12,12,4,4", "--checkpoint", ckpt}), 0)
      << stderr_text();
  EXPECT_EQ(maps_digest(stdout_text()), digest);
  for (const std::string verb : {"analyze", "simulate"}) {
    EXPECT_EQ(invoke({verb, ds, "--chunk", "12,12,4,4", "--checkpoint", ckpt, "--resume", "on"}),
              1)
        << verb;
    EXPECT_NE(stderr_text().find("checkpoint manifest " + ckpt + " records 8 finished chunk"),
              std::string::npos)
        << verb << ": " << stderr_text();
    EXPECT_EQ(stdout_text().find("maps crc32"), std::string::npos) << verb << ": "
                                                                    << stdout_text();
  }
}

TEST_F(CliTest, InfoOnMissingDatasetFails) {
  EXPECT_EQ(invoke({"info", (dir_ / "nope").string()}), 1);
}

TEST_F(CliTest, SparseSplitAnalyzeWorks) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "14,14,6,4", "--nodes", "2"}), 0);
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,3", "--repr", "sparse", "--variant",
                    "split", "--workers", "3", "--dirs", "axis", "--chunk", "12,12,6,4"}),
            0);
}

TEST_F(CliTest, PhantomWithReplicasReportsAndPersistsFactor) {
  const std::string ds = (dir_ / "ds").string();
  EXPECT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,2", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  EXPECT_NE(stdout_text().find("replication factor 2"), std::string::npos);
  EXPECT_EQ(invoke({"info", ds}), 0);
  EXPECT_NE(stdout_text().find("replicas       2"), std::string::npos);
}

TEST_F(CliTest, ScrubReportsCleanAndDamagedDatasets) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,2", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  EXPECT_EQ(invoke({"scrub", ds}), 0);
  EXPECT_NE(stdout_text().find("0 defects"), std::string::npos);

  fsys::remove(fsys::path(ds) / io::node_dir_name(0) / io::slice_filename(0, 0));
  const std::string json = (dir_ / "inventory.json").string();
  EXPECT_EQ(invoke({"scrub", ds, "--json", json}), 1);
  EXPECT_NE(stdout_text().find("missing_copy"), std::string::npos);
  std::ifstream f(json);
  std::string inv((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_NE(inv.find("\"schema\": \"h4d-scrub-v1\""), std::string::npos);
  EXPECT_NE(inv.find("missing_copy"), std::string::npos);
}

TEST_F(CliTest, RepairRestoresALostNodeDirectory) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "12,12,4,2", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  fsys::remove_all(fsys::path(ds) / io::node_dir_name(1));
  ASSERT_EQ(invoke({"scrub", ds}), 1);
  EXPECT_EQ(invoke({"repair", ds}), 0);
  EXPECT_EQ(invoke({"scrub", ds}), 0);
}

TEST_F(CliTest, AnalyzeToleratesDeadNodesWhenReplicated) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,6,4", "--nodes", "3",
                    "--replicas", "2"}),
            0);
  const std::string maps = (dir_ / "maps").string();
  EXPECT_EQ(invoke({"analyze", ds, "--out", maps, "--roi", "5,5,3,3", "--workers", "2",
                    "--dirs", "axis", "--chunk", "12,12,6,4", "--dead-nodes", "1"}),
            0);
  EXPECT_NE(stdout_text().find("4 feature maps"), std::string::npos);
  EXPECT_NE(stdout_text().find("replica failovers"), std::string::npos);
}

TEST_F(CliTest, AnalyzeFailsWhenDeadNodesUncovered) {
  const std::string ds = (dir_ / "ds").string();
  ASSERT_EQ(invoke({"phantom", "--out", ds, "--dims", "16,16,4,2", "--nodes", "2"}), 0);
  EXPECT_EQ(invoke({"analyze", ds, "--roi", "5,5,3,1", "--dirs", "axis", "--dead-nodes",
                    "0"}),
            1);
  EXPECT_NE(stderr_text().find("no surviving replica"), std::string::npos);
}

}  // namespace
}  // namespace h4d::cli
