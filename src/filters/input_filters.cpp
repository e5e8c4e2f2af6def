#include "filters/input_filters.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "nd/quantize.hpp"

namespace h4d::filters {

void RawFileReader::run_source(fs::FilterContext& ctx) {
  const int node = ctx.copy_index();
  // Resume accounting: chunks pruned from the work list by the checkpoint
  // manifest, credited once (copy 0) so the run's meters show what was
  // skipped rather than silently planning less work.
  if (node == 0) ctx.meter().chunks_resumed += p_->chunks_resumed;
  io::ReplicaSet& replicas = *p_->replica_set;
  // A statically dead node (operator-declared or directory missing) reads
  // nothing; read_owner() has already reassigned its slices to the surviving
  // replicas' copies.
  if (replicas.node_dead(node)) return;
  // Slice access goes through the resilient reader: bounded retry, checksum
  // verification, failover to the other replica nodes, and graceful
  // degradation per the pipeline's policy. The shared injector (when faults
  // are configured) makes storage-fault drills deterministic across copies.
  io::ResilientReader reader(
      io::StorageNodeReader(p_->dataset_root / io::node_dir_name(node), p_->meta, node),
      p_->resilience, p_->fault_injector.get(), p_->fault_sink.get(),
      p_->replica_set.get());
  if (p_->latency && p_->io_pool) {
    reader.attach_tail(p_->tail, p_->latency.get(), p_->io_pool.get());
  }
  const Quantizer quant = p_->quantizer();

  // x/y tiling of a slice into RFR->IIC pieces.
  const Vec4 slice_dims{p_->meta.dims[0], p_->meta.dims[1], 1, 1};
  const std::vector<Region4> tiles = partition_plain(slice_dims, p_->io_chunk);

  std::vector<std::uint16_t> raw;
  std::int64_t seq = 0;
  std::int64_t seeks_before = 0;
  std::int64_t bytes_before = 0;
  io::FaultReport report_before;
  std::int64_t hedges_issued_before = 0;
  std::int64_t hedges_won_before = 0;
  std::int64_t hedges_abandoned_before = 0;
  std::int64_t reads_abandoned_before = 0;
  std::int64_t tail_breaches_before = 0;
  std::int64_t slow_evictions_before = 0;

  // Each slice is read by exactly one copy — its read owner (first surviving
  // replica in rank order) — so replication never duplicates pieces. With
  // r == 1 and all nodes alive this degenerates to "the slices in this
  // node's index", in index (t-major) order. A slice every replica of which
  // is dead falls to the first alive node, whose reader degrades it to fill
  // (make() rejects that situation under fail/retry policies).
  std::int64_t static_failovers = 0;
  for (std::int64_t t = 0; t < p_->meta.dims[3]; ++t) {
    for (std::int64_t z = 0; z < p_->meta.dims[2]; ++z) {
      int owner = replicas.read_owner(z, t);
      if (owner < 0) owner = replicas.first_alive_node();
      if (owner != node) continue;
      // Owning a slice whose primary node is dead is a (planned) failover:
      // the read was rerouted to this replica before it was ever attempted.
      if (p_->meta.node_of_slice(z, t) != node) {
        ++static_failovers;
        ++ctx.meter().replica_failovers;
      }
      // Prefer the index entry (it carries the checksum); a slice this node
      // never indexed (failover fallback) gets the conventional name.
      io::SliceRef slice{t, z, io::slice_filename(t, z), 0, false};
      if (const io::SliceRef* indexed = reader.find_slice(t, z)) slice = *indexed;
      for (const Region4& tile : tiles) {
        raw.resize(static_cast<std::size_t>(tile.size[0] * tile.size[1]));
        reader.read_slice_region(slice, tile.origin[0], tile.origin[1], tile.size[0],
                                 tile.size[1], raw.data());
        ctx.meter().disk_seeks += reader.seeks_performed() - seeks_before;
        ctx.meter().disk_bytes_read += reader.bytes_read() - bytes_before;
        seeks_before = reader.seeks_performed();
        bytes_before = reader.bytes_read();
        const io::FaultReport& rep = reader.report();
        ctx.meter().read_retries += rep.read_retries - report_before.read_retries;
        ctx.meter().slices_skipped += rep.slices_skipped - report_before.slices_skipped;
        ctx.meter().checksum_failures +=
            rep.checksum_failures - report_before.checksum_failures;
        ctx.meter().replica_failovers +=
            rep.replica_failovers - report_before.replica_failovers;
        ctx.meter().nodes_evicted += rep.nodes_evicted - report_before.nodes_evicted;
        report_before.read_retries = rep.read_retries;
        report_before.slices_skipped = rep.slices_skipped;
        report_before.checksum_failures = rep.checksum_failures;
        report_before.replica_failovers = rep.replica_failovers;
        report_before.nodes_evicted = rep.nodes_evicted;
        ctx.meter().hedges_issued += reader.tail_hedges_issued() - hedges_issued_before;
        ctx.meter().hedges_won += reader.tail_hedges_won() - hedges_won_before;
        ctx.meter().hedges_abandoned +=
            reader.tail_hedges_abandoned() - hedges_abandoned_before;
        ctx.meter().reads_abandoned +=
            reader.tail_reads_abandoned() - reads_abandoned_before;
        ctx.meter().tail_breaches += reader.tail_breaches() - tail_breaches_before;
        ctx.meter().slow_evictions += reader.tail_slow_evictions() - slow_evictions_before;
        hedges_issued_before = reader.tail_hedges_issued();
        hedges_won_before = reader.tail_hedges_won();
        hedges_abandoned_before = reader.tail_hedges_abandoned();
        reads_abandoned_before = reader.tail_reads_abandoned();
        tail_breaches_before = reader.tail_breaches();
        slow_evictions_before = reader.tail_slow_evictions();

        // Global region of this piece.
        const Region4 piece{{tile.origin[0], tile.origin[1], slice.z, slice.t},
                            {tile.size[0], tile.size[1], 1, 1}};

        // Which IIC copies need it? The owners of every overlapping chunk.
        std::set<int> targets;
        for (const Chunk& c : p_->chunks) {
          if (c.region.intersects(piece)) targets.insert(p_->iic_copy_of_chunk(c.id));
        }
        if (targets.empty()) continue;

        // Quantize once.
        std::vector<std::byte> levels(raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i) {
          levels[i] = static_cast<std::byte>(quant(static_cast<double>(raw[i])));
        }
        ctx.meter().elements_quantized += static_cast<std::int64_t>(raw.size());

        for (const int target : targets) {
          fs::BufferHeader h;
          h.kind = fs::BufferKind::RawChunkPiece;
          h.region = piece;
          h.seq = seq++;
          h.aux = target;
          ctx.emit(kPortPieces, fs::make_buffer(h, levels));
        }
      }
    }
  }
  // Planned (static) failovers join the dynamic ones ResilientReader merged
  // on destruction, so the run's fault report shows every rerouted read.
  if (static_failovers > 0 && p_->fault_sink) {
    io::FaultReport rerouted;
    rerouted.replica_failovers = static_failovers;
    p_->fault_sink->merge(rerouted);
  }
}

void InputImageConstructor::process(int port, const fs::BufferPtr& buffer,
                                    fs::FilterContext& ctx) {
  if (port != kPortPieces || buffer->header.kind != fs::BufferKind::RawChunkPiece) {
    throw std::runtime_error("IIC: unexpected input buffer");
  }
  const Region4& piece = buffer->header.region;
  const Vol4View<const Level> piece_view(
      reinterpret_cast<const Level*>(buffer->payload.data()), piece.size);

  for (const Chunk& c : p_->chunks) {
    if (p_->iic_copy_of_chunk(c.id) != ctx.copy_index()) continue;
    const Region4 common = c.region.intersect(piece);
    if (common.empty()) continue;

    auto [it, inserted] = pending_.try_emplace(c.id, c.region.size);
    Pending& slot = it->second;
    copy_region<Level>(piece_view, piece, slot.data.view(), c.region);
    slot.filled += common.volume();
    ctx.meter().stitch_elements += common.volume();

    if (slot.filled == c.region.volume()) {
      fs::BufferHeader h;
      h.kind = fs::BufferKind::TextureChunk;
      h.region = c.region;
      h.region2 = c.owned_origins;
      h.chunk_id = c.id;
      h.seq = emitted_++;
      std::vector<std::byte> payload(static_cast<std::size_t>(c.region.volume()));
      std::memcpy(payload.data(), slot.data.data(), payload.size());
      ctx.meter().stitch_elements += static_cast<std::int64_t>(payload.size());
      pending_.erase(it);
      ctx.emit(kPortChunks, fs::make_buffer(h, std::move(payload)));
    }
  }
}

void InputImageConstructor::flush(fs::FilterContext&) {
  if (!pending_.empty()) {
    throw std::runtime_error("IIC copy finished with " + std::to_string(pending_.size()) +
                             " incomplete chunks — missing input pieces");
  }
}

}  // namespace h4d::filters
