#include "traced.hpp"

#include <cstring>
#include <exception>
#include <limits>
#include <memory>

#include "filters/payloads.hpp"
#include "io/image_write.hpp"
#include "io/resilient_reader.hpp"
#include "measure.hpp"
#include "nd/raster.hpp"
#include "spans.hpp"

namespace h4d::perfbench {

std::map<std::string, std::int64_t> WorkCounts::named() const {
  return {{"glcm_pair_updates", glcm_pair_updates},
          {"feature_cell_ops", feature_cell_ops},
          {"disk_bytes_read", disk_bytes_read},
          {"elements_quantized", elements_quantized},
          {"elements_stitched", elements_stitched},
          {"matrix_wire_bytes", matrix_wire_bytes}};
}

WorkCounts pipeline_counts(const fs::BottleneckReport& report) {
  WorkCounts c;
  for (const fs::FilterMetrics& f : report.filters) {
    const fs::WorkMeter& m = f.meter;
    c.glcm_pair_updates += m.work.glcm_pair_updates;
    c.feature_cell_ops += m.work.feature_cell_ops;
    c.disk_bytes_read += m.disk_bytes_read;
    c.elements_quantized += m.elements_quantized;
    c.elements_stitched += m.stitch_elements;
    if (f.filter == "HPC") c.matrix_wire_bytes += m.bytes_in;
  }
  return c;
}

namespace {

using haralick::Feature;

/// Every map as a PGM slice series under `dir`, normalized by the map's
/// range, as `h4d analyze --out` writes them.
void write_images(const std::filesystem::path& dir, const FeatureMaps& maps,
                  const std::map<Feature, std::pair<float, float>>& ranges) {
  for (const auto& [feature, map] : maps) {
    const auto [lo, hi] = ranges.at(feature);
    io::write_feature_map_images(dir, std::string(haralick::feature_slug(feature)), map, lo,
                                 hi);
  }
}

std::int64_t directory_bytes(const std::filesystem::path& dir) {
  std::int64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bytes += static_cast<std::int64_t>(entry.file_size());
  }
  return bytes;
}

/// Span names, interned once per pass.
struct Names {
  explicit Names(SpanRecorder& r)
      : run(r.intern("run")),
        open(r.intern("io.open")),
        partition(r.intern("nd.partition")),
        read(r.intern("io.read")),
        quantize(r.intern("nd.quantize")),
        stitch(r.intern("nd.stitch")),
        analyze_chunk(r.intern("haralick.analyze_chunk")),
        split_chunk(r.intern("texture.chunk")),
        glcm(r.intern("haralick.glcm_for_roi")),
        pack(r.intern("filters.pack")),
        unpack(r.intern("filters.unpack")),
        features(r.intern("haralick.compute_features")),
        assemble(r.intern("haralick.assemble")),
        write(r.intern("io.write")) {}
  int run, open, partition, read, quantize, stitch, analyze_chunk, split_chunk, glcm, pack,
      unpack, features, assemble, write;
};

/// A chunk whose input is being stitched together, as the IIC keeps it.
struct Pending {
  explicit Pending(const Vec4& dims) : data(dims) {}
  Volume4<Level> data;
  std::int64_t filled = 0;
};

class Pass {
 public:
  Pass(const Workload& w, SpanRecorder& rec)
      : w_(w), cfg_(w.pipeline), eng_(cfg_.engine), rec_(rec), n_(rec) {}

  void run(const std::filesystem::path& image_dir) {
    ScopedSpan root(rec_, n_.run);
    open_dataset();
    {
      ScopedSpan s(rec_, n_.partition);
      chunks_ = partition_overlapping(meta_.dims, cfg_.texture_chunk, eng_.roi_dims);
    }
    read_and_analyze();
    assemble();
    if (w_.writes_images) {
      ScopedSpan s(rec_, n_.write);
      write_images(image_dir, maps_, ranges_);
    }
  }

  const WorkCounts& counts() const { return counts_; }
  const FeatureMaps& maps() const { return maps_; }
  std::int64_t slices_read() const { return slices_read_; }
  std::int64_t nonzero_upper() const { return nnz_; }
  std::int64_t assembled_elements() const { return assembled_; }
  const std::vector<Chunk>& chunks() const { return chunks_; }

 private:
  void open_dataset() {
    ScopedSpan s(rec_, n_.open);
    const io::DiskDataset ds = io::DiskDataset::open(cfg_.dataset_root);
    meta_ = ds.meta();
    for (int node = 0; node < ds.num_nodes(); ++node) {
      readers_.push_back(
          std::make_unique<io::ResilientReader>(ds.node_reader(node), cfg_.resilience));
    }
  }

  /// RFR + IIC in slice order (t-major, as each RFR copy walks its index):
  /// read, requantize, stitch into the pending chunks; every chunk that
  /// completes goes straight to the texture stage.
  void read_and_analyze() {
    const Quantizer quant(meta_.value_min, meta_.value_max, eng_.num_levels);
    const std::int64_t sx = meta_.dims[0];
    const std::int64_t sy = meta_.dims[1];
    std::vector<std::uint16_t> raw(static_cast<std::size_t>(sx * sy));
    std::map<std::int64_t, Pending> pending;
    for (std::int64_t t = 0; t < meta_.dims[3]; ++t) {
      for (std::int64_t z = 0; z < meta_.dims[2]; ++z) {
        io::ResilientReader& reader = *readers_[static_cast<std::size_t>(
            meta_.node_of_slice(z, t))];
        const io::SliceRef* slice = reader.find_slice(t, z);
        if (slice == nullptr) throw std::runtime_error("traced pass: slice not indexed");
        {
          ScopedSpan s(rec_, n_.read);
          reader.read_slice_region(*slice, 0, 0, sx, sy, raw.data());
        }
        ++slices_read_;

        const Region4 piece{{0, 0, z, t}, {sx, sy, 1, 1}};
        std::vector<Level> levels(raw.size());
        {
          ScopedSpan s(rec_, n_.quantize);
          quantize_into<std::uint16_t>(Vol4View<const std::uint16_t>(raw.data(), piece.size),
                                       quant, Vol4View<Level>(levels.data(), piece.size));
        }
        counts_.elements_quantized += static_cast<std::int64_t>(levels.size());

        std::vector<std::pair<const Chunk*, std::vector<std::byte>>> ready;
        {
          ScopedSpan s(rec_, n_.stitch);
          const Vol4View<const Level> piece_view(levels.data(), piece.size);
          for (const Chunk& c : chunks_) {
            const Region4 common = c.region.intersect(piece);
            if (common.empty()) continue;
            auto [it, inserted] = pending.try_emplace(c.id, c.region.size);
            Pending& slot = it->second;
            copy_region<Level>(piece_view, piece, slot.data.view(), c.region);
            slot.filled += common.volume();
            counts_.elements_stitched += common.volume();
            if (slot.filled == c.region.volume()) {
              std::vector<std::byte> payload(static_cast<std::size_t>(c.region.volume()));
              std::memcpy(payload.data(), slot.data.data(), payload.size());
              counts_.elements_stitched += c.region.volume();
              pending.erase(it);
              ready.emplace_back(&c, std::move(payload));
            }
          }
        }
        for (const auto& [chunk, payload] : ready) {
          const Vol4View<const Level> view(reinterpret_cast<const Level*>(payload.data()),
                                           chunk->region.size);
          if (cfg_.variant == core::Variant::HMP) {
            analyze_hmp(*chunk, view);
          } else {
            analyze_split(*chunk, view);
          }
        }
      }
    }
    if (!pending.empty()) throw std::runtime_error("traced pass: incomplete chunks");
    for (const auto& r : readers_) counts_.disk_bytes_read += r->bytes_read();
    counts_.glcm_pair_updates = work_.glcm_pair_updates;
    counts_.feature_cell_ops = work_.feature_cell_ops;
  }

  void analyze_hmp(const Chunk& c, Vol4View<const Level> view) {
    ScopedSpan s(rec_, n_.analyze_chunk, c.id, c.owned_origins.volume());
    auto blocks =
        haralick::analyze_chunk(view, c.region, c.owned_origins, eng_, &work_, &scratch_);
    for (auto& b : blocks) blocks_.push_back(std::move(b));
  }

  /// HCC then HPC on one chunk: GLCM per ROI, packed into matrix packets at
  /// the HCC's packet boundaries; each packet is unpacked and its features
  /// computed as soon as it is taken.
  void analyze_split(const Chunk& c, Vol4View<const Level> view) {
    const Region4& owned = c.owned_origins;
    const std::int64_t total = owned.empty() ? 0 : owned.volume();
    ScopedSpan s(rec_, n_.split_chunk, c.id, total);
    const std::int64_t per_packet =
        std::max<std::int64_t>(1, total / std::max(1, cfg_.packets_per_chunk));
    const bool sparse = eng_.representation == haralick::Representation::Sparse;

    const std::size_t first_block = blocks_.size();
    for (int f = 0; f < haralick::kNumFeatures; ++f) {
      if (!eng_.features.has(static_cast<Feature>(f))) continue;
      blocks_.push_back({static_cast<Feature>(f), owned,
                         std::vector<float>(static_cast<std::size_t>(total))});
    }
    std::size_t next_value = 0;

    const auto consume = [&](const fs::BufferPtr& packet) {
      counts_.matrix_wire_bytes += static_cast<std::int64_t>(packet->wire_bytes());
      filters::MatrixPacketReader reader(*packet);
      for (;;) {
        bool more = false;
        {
          ScopedSpan u(rec_, n_.unpack, c.id, 1);
          more = reader.next();
        }
        if (!more) break;
        haralick::FeatureVector fv;
        {
          ScopedSpan fspan(rec_, n_.features, c.id, 1);
          fv = sparse ? haralick::compute_features(reader.sparse(), eng_.features, &work_)
                      : haralick::compute_features(reader.dense(), eng_.features,
                                                   eng_.zero_policy, &work_);
        }
        for (std::size_t b = first_block; b < blocks_.size(); ++b) {
          blocks_[b].values[next_value] = static_cast<float>(fv[blocks_[b].feature]);
        }
        ++next_value;
      }
    };
    const auto take = [&] {
      fs::BufferPtr packet;
      {
        ScopedSpan p(rec_, n_.pack, c.id, 0);
        packet = writer_.take(c.id, seq_++);
      }
      consume(packet);
    };

    std::int64_t since_flush = 0;
    for (const Vec4& origin : raster(owned)) {
      const Region4 roi{origin - c.region.origin, eng_.roi_dims};
      const haralick::Glcm g = [&] {
        ScopedSpan gs(rec_, n_.glcm, c.id, 1);
        return haralick::glcm_for_roi(view, roi, dirs_, eng_.num_levels, &work_, &scratch_);
      }();
      nnz_ += g.nonzero_upper();
      {
        ScopedSpan p(rec_, n_.pack, c.id, 1);
        writer_.add(origin, g);
      }
      if (++since_flush >= per_packet) {
        take();
        since_flush = 0;
      }
    }
    if (!writer_.empty()) take();
  }

  /// HIC: per-feature maps over every ROI origin, with their value ranges.
  void assemble() {
    ScopedSpan s(rec_, n_.assemble);
    const Region4 origins = roi_origin_region(meta_.dims, eng_.roi_dims);
    for (int f = 0; f < haralick::kNumFeatures; ++f) {
      const auto feature = static_cast<Feature>(f);
      if (!eng_.features.has(feature)) continue;
      std::vector<const haralick::FeatureBlock*> parts;
      for (const auto& b : blocks_) {
        if (b.feature == feature) parts.push_back(&b);
      }
      Volume4<float> map = haralick::assemble_feature_map(parts, origins);
      float lo = std::numeric_limits<float>::infinity();
      float hi = -lo;
      for (const float v : map.storage()) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      ranges_[feature] = {lo, hi};
      assembled_ += map.size();
      maps_.emplace(feature, std::move(map));
    }
  }

  const Workload& w_;
  const core::PipelineConfig& cfg_;
  const haralick::EngineConfig& eng_;
  SpanRecorder& rec_;
  const Names n_;
  const std::vector<Vec4> dirs_ = eng_.effective_directions();

  io::DatasetMeta meta_;
  std::vector<std::unique_ptr<io::ResilientReader>> readers_;
  std::vector<Chunk> chunks_;
  haralick::WorkCounters work_;
  haralick::KernelScratch scratch_{2};
  filters::MatrixPacketWriter writer_{eng_.representation, eng_.num_levels};
  std::int64_t seq_ = 0;
  std::vector<haralick::FeatureBlock> blocks_;
  FeatureMaps maps_;
  std::map<Feature, std::pair<float, float>> ranges_;
  WorkCounts counts_;
  std::int64_t slices_read_ = 0;
  std::int64_t nnz_ = 0;
  std::int64_t assembled_ = 0;
};

/// Spans whose self time counts toward trace.cpu_coverage: every src/ layer
/// call the untraced run also makes. Image writes are left out because the
/// untraced runs do not write.
bool in_layer(const std::string& name) {
  if (name == "io.write") return false;
  for (const char* layer : {"io.", "nd.", "haralick.", "filters."}) {
    if (name.rfind(layer, 0) == 0) return true;
  }
  return false;
}

}  // namespace

TracedPass traced_pass(const Workload& w, const FeatureMaps& ref,
                       const std::filesystem::path& image_dir,
                       const std::filesystem::path& chrome_trace) {
  TracedPass out;
  if (w.writes_images) {
    std::filesystem::remove_all(image_dir);
    std::filesystem::create_directories(image_dir);
  }
  SpanRecorder rec;
  Pass pass(w, rec);
  try {
    const double cpu0 = process_cpu_times().total();
    pass.run(image_dir);
    out.cpu_s = process_cpu_times().total() - cpu0;
    out.error = compare_maps(pass.maps(), ref);
    out.ok = out.error.empty();
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  out.counts = pass.counts();
  if (!chrome_trace.empty()) rec.write_chrome_trace(chrome_trace);

  // Self time per span name, and the per-chunk texture spans.
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = rec.self_seconds();
  std::map<std::string, double> self_by_name;
  std::vector<double> chunk_ms;
  double chunk_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = rec.names()[static_cast<std::size_t>(spans[i].name)];
    self_by_name[name] += self[i];
    if (in_layer(name)) out.layer_self_s += self[i];
    if (name == "haralick.analyze_chunk" || name == "texture.chunk") {
      chunk_ms.push_back(spans[i].seconds() * 1e3);
      chunk_s += spans[i].seconds();
    }
  }
  out.kernel_self_s = self_by_name["haralick.analyze_chunk"] +
                      self_by_name["haralick.glcm_for_roi"] +
                      self_by_name["haralick.compute_features"];

  const auto rois = static_cast<double>(w.roi_origins());
  const WorkCounts& c = out.counts;
  const bool split = w.pipeline.variant == core::Variant::Split;
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  std::int64_t chunk_rois_max = 0;
  std::int64_t chunk_elems = 0;
  for (const Chunk& ch : pass.chunks()) {
    chunk_rois_max = std::max(chunk_rois_max, ch.owned_origins.volume());
    chunk_elems += ch.region.volume();
  }
  const auto nchunks = static_cast<double>(pass.chunks().size());
  const auto volume_elems = static_cast<double>(w.dims.volume());

  auto& m = out.metrics;
  m["io.read_s"] = self_by_name["io.read"];
  m["io.read_bytes"] = static_cast<double>(c.disk_bytes_read);
  m["io.read_slices"] = static_cast<double>(pass.slices_read());
  m["io.write_s"] = self_by_name["io.write"];
  m["io.write_bytes"] =
      w.writes_images ? static_cast<double>(directory_bytes(image_dir)) : 0.0;
  m["nd.quantize_s"] = self_by_name["nd.quantize"];
  m["nd.quantize_elems"] = static_cast<double>(c.elements_quantized);
  m["nd.stitch_s"] = self_by_name["nd.stitch"];
  m["nd.stitch_elems"] = static_cast<double>(c.elements_stitched);
  m["nd.ghost_ratio"] = per(static_cast<double>(chunk_elems), volume_elems);
  m["nd.chunks"] = nchunks;
  m["nd.chunk_rois_max_over_mean"] =
      per(static_cast<double>(chunk_rois_max), per(rois, nchunks));
  m["haralick.chunk_us_per_roi"] = per(chunk_s * 1e6, rois);
  m["haralick.chunk_ms.p50"] = quantile(chunk_ms, 0.5);
  m["haralick.chunk_ms.p90"] = quantile(chunk_ms, 0.9);
  m["haralick.glcm_ns_per_pair"] =
      split ? per(self_by_name["haralick.glcm_for_roi"] * 1e9,
                  static_cast<double>(c.glcm_pair_updates))
            : 0.0;
  m["haralick.glcm_pairs_per_roi"] = per(static_cast<double>(c.glcm_pair_updates), rois);
  m["haralick.features_us_per_roi"] =
      split ? per(self_by_name["haralick.compute_features"] * 1e6, rois) : 0.0;
  m["haralick.features_cell_ops_per_roi"] =
      per(static_cast<double>(c.feature_cell_ops), rois);
  m["haralick.nnz_per_roi"] = split ? per(static_cast<double>(pass.nonzero_upper()), rois) : 0.0;
  m["haralick.assemble_s"] = self_by_name["haralick.assemble"];
  m["haralick.assemble_elems"] = static_cast<double>(pass.assembled_elements());
  m["filters.pack_s"] = self_by_name["filters.pack"];
  m["filters.unpack_s"] = self_by_name["filters.unpack"];
  m["filters.wire_bytes_per_roi"] = per(static_cast<double>(c.matrix_wire_bytes), rois);
  return out;
}

}  // namespace h4d::perfbench
