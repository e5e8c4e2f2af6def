#include "haralick/glcm_sparse.hpp"

#include <cstring>
#include <stdexcept>

namespace h4d::haralick {

SparseGlcm SparseGlcm::from_dense(const Glcm& g) {
  std::vector<SparseEntry> entries;
  scan_entries(g, entries);
  return SparseGlcm(g.num_levels(), g.total(), std::move(entries));
}

void SparseGlcm::scan_entries(const Glcm& g, std::vector<SparseEntry>& out) {
  out.clear();
  const int ng = g.num_levels();
  for (int i = 0; i < ng; ++i) {
    // A clear occupancy bit guarantees the whole row is zero — skip it
    // without touching its Ng - i cells.
    if (!g.row_possibly_occupied(i)) continue;
    for (int j = i; j < ng; ++j) {
      const std::uint32_t c = g.count(i, j);
      if (c != 0) {
        out.push_back({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j), c});
      }
    }
  }
}

Glcm SparseGlcm::to_dense() const {
  Glcm g(ng_);
  std::vector<std::uint32_t> table(static_cast<std::size_t>(ng_) * static_cast<std::size_t>(ng_), 0);
  for (const SparseEntry& e : entries_) {
    table[static_cast<std::size_t>(e.i) * static_cast<std::size_t>(ng_) + e.j] = e.count;
    table[static_cast<std::size_t>(e.j) * static_cast<std::size_t>(ng_) + e.i] = e.count;
  }
  g.set_raw(std::move(table), total_);
  return g;
}

void SparseGlcm::serialize(std::vector<std::byte>& out) const {
  const std::size_t base = out.size();
  out.resize(base + wire_size());
  std::byte* p = out.data() + base;
  const auto ng32 = static_cast<std::uint32_t>(ng_);
  const auto nnz32 = static_cast<std::uint32_t>(entries_.size());
  const auto tot64 = static_cast<std::uint64_t>(total_);
  std::memcpy(p, &ng32, sizeof(ng32));
  p += sizeof(ng32);
  std::memcpy(p, &nnz32, sizeof(nnz32));
  p += sizeof(nnz32);
  std::memcpy(p, &tot64, sizeof(tot64));
  p += sizeof(tot64);
  if (!entries_.empty()) {
    std::memcpy(p, entries_.data(), entries_.size() * sizeof(SparseEntry));
  }
}

SparseGlcm SparseGlcm::deserialize(const std::byte* data, std::size_t size,
                                   std::size_t& consumed) {
  if (size < kWireHeader) throw std::runtime_error("SparseGlcm::deserialize: short buffer");
  std::uint32_t ng32 = 0, nnz32 = 0;
  std::uint64_t tot64 = 0;
  const std::byte* p = data;
  std::memcpy(&ng32, p, sizeof(ng32));
  p += sizeof(ng32);
  std::memcpy(&nnz32, p, sizeof(nnz32));
  p += sizeof(nnz32);
  std::memcpy(&tot64, p, sizeof(tot64));
  p += sizeof(tot64);
  const std::size_t need = kWireHeader + nnz32 * sizeof(SparseEntry);
  if (size < need) throw std::runtime_error("SparseGlcm::deserialize: truncated entries");
  std::vector<SparseEntry> entries(nnz32);
  if (nnz32 != 0) std::memcpy(entries.data(), p, nnz32 * sizeof(SparseEntry));
  consumed = need;
  return SparseGlcm(static_cast<int>(ng32), static_cast<std::int64_t>(tot64),
                    std::move(entries));
}

}  // namespace h4d::haralick
