#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "bench_common.hpp"
#include "haralick/directions.hpp"
#include "io/phantom.hpp"
#include "measure.hpp"

namespace h4d::perfbench {

namespace {

/// Standard deviation of the seed-drawn noise (intensity units; the
/// phantom's own acquisition noise is 30).
constexpr double kSeedNoiseSigma = 15.0;

/// Threaded pipeline as `h4d analyze` builds it: one RFR copy per storage
/// node, one IIC, texture copies as given, CLI default engine.
core::PipelineConfig threaded_config(int storage_nodes, core::Variant variant, int hmp,
                                     int hcc, int hpc) {
  core::PipelineConfig cfg;
  cfg.engine = haralick::EngineConfig{};  // ROI 7x7x3x3, Ng 32, 40 dirs, paper, full
  cfg.rfr_copies = storage_nodes;
  cfg.variant = variant;
  cfg.hmp_copies = hmp;
  cfg.hcc_copies = hcc;
  cfg.hpc_copies = hpc;
  return cfg;
}

Workload hmp_ragged(bool toy) {
  Workload w;
  w.name = "hmp-ragged";
  // Origins 42x42x6x6; the 32x32x6x6 chunk owns 26+16 origins in x and y
  // and 4+2 in z and t: 16 chunks of 1,024 to 10,816 ROIs.
  w.dims = toy ? Vec4{20, 20, 6, 6} : Vec4{48, 48, 8, 8};
  w.pipeline = threaded_config(w.storage_nodes, core::Variant::HMP, 4, 1, 1);
  w.pipeline.texture_chunk = toy ? Vec4{14, 14, 5, 5} : Vec4{32, 32, 6, 6};
  return w;
}

Workload split_full(bool toy) {
  Workload w;
  w.name = "split-full";
  // Same dataset; the 27x27x5x5 chunk owns 21 origins in x and y and 3 in z
  // and t, so the grid divides evenly: 16 chunks of 3,969 ROIs.
  w.dims = toy ? Vec4{20, 20, 6, 6} : Vec4{48, 48, 8, 8};
  w.pipeline = threaded_config(w.storage_nodes, core::Variant::Split, 1, 3, 1);
  w.pipeline.texture_chunk = toy ? Vec4{13, 13, 4, 4} : Vec4{27, 27, 5, 5};
  return w;
}

Workload stream_light(bool toy) {
  Workload w;
  w.name = "stream-light";
  w.dims = toy ? Vec4{24, 24, 6, 6} : Vec4{128, 128, 16, 16};
  w.pipeline = threaded_config(w.storage_nodes, core::Variant::HMP, 4, 1, 1);
  w.pipeline.engine.roi_dims = {3, 3, 3, 3};
  w.pipeline.engine.num_levels = 8;
  w.pipeline.engine.directions = haralick::axis_directions(haralick::ActiveDims::all4());
  w.pipeline.texture_chunk = toy ? Vec4{10, 10, 4, 4} : Vec4{16, 16, 4, 4};
  w.writes_images = true;
  return w;
}

Workload sim_paper(bool toy) {
  Workload w;
  w.name = "sim-paper";
  w.dims = toy ? Vec4{20, 20, 6, 6} : Vec4{40, 40, 12, 12};
  // Fig. 7(b): 16 texture nodes split 13 HCC + 3 HPC on the PIII cluster,
  // sparse matrices on the wire.
  bench::Workload bw;
  bw.dims = w.dims;
  bw.roi = {7, 7, 3, 3};
  bw.texture_chunk = toy ? Vec4{14, 14, 5, 5} : Vec4{32, 32, 8, 8};
  bw.storage_nodes = w.storage_nodes;
  constexpr int kTextureNodes = 16;
  w.pipeline = bench::split_config(bw, kTextureNodes, haralick::Representation::Sparse,
                                   /*overlap=*/false);
  w.sim = bench::piii_options(kTextureNodes);
  w.simulated = true;
  w.clients = 4;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, bool toy) {
  if (name == "hmp-ragged") return hmp_ragged(toy);
  if (name == "split-full") return split_full(toy);
  if (name == "stream-light") return stream_light(toy);
  if (name == "sim-paper") return sim_paper(toy);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

SetupTimes setup_dataset(const Workload& w, std::uint64_t seed,
                         const std::filesystem::path& root,
                         Volume4<std::uint16_t>* volume_out) {
  SetupTimes t;
  double t0 = wall_seconds();
  // The seed draws acquisition noise over one fixed study (anatomy, texture
  // and lesions from the phantom's default seed). Lesion amplitudes set the
  // global intensity range and with it the requantized texture, so letting
  // the seed move them would swing the per-ROI cost by a quarter between
  // seeds; added noise keeps every seed statistically the same study.
  io::PhantomConfig pcfg;
  pcfg.dims = w.dims;
  io::Phantom phantom = io::generate_phantom(pcfg);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, kSeedNoiseSigma);
  for (std::uint16_t& v : phantom.volume.storage()) {
    v = static_cast<std::uint16_t>(std::clamp(v + noise(rng), 0.0, 65535.0));
  }
  t.generate_s = wall_seconds() - t0;

  std::filesystem::remove_all(root);
  t0 = wall_seconds();
  io::DiskDataset::create(root, phantom.volume, w.storage_nodes);
  t.create_s = wall_seconds() - t0;

  t0 = wall_seconds();
  const io::DiskDataset opened = io::DiskDataset::open(root);
  t.open_s = wall_seconds() - t0;
  if (opened.meta().dims != w.dims) throw std::runtime_error("setup: reopened dims differ");

  if (volume_out != nullptr) *volume_out = std::move(phantom.volume);
  return t;
}

}  // namespace h4d::perfbench
