#include "io/tile_cache.hpp"

#include <algorithm>
#include <cstring>

namespace h4d::io {

namespace {

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::size_t TileCache::TileKeyHash::operator()(const TileKey& k) const {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(&k.dataset, sizeof(k.dataset), h);
  h = fnv1a(&k.t, sizeof(k.t), h);
  h = fnv1a(&k.z, sizeof(k.z), h);
  h = fnv1a(&k.xi, sizeof(k.xi), h);
  h = fnv1a(&k.yi, sizeof(k.yi), h);
  return static_cast<std::size_t>(h);
}

TileCache::TileCache(TileCacheConfig config) : cfg_(config) {
  if (cfg_.budget_bytes < 0) cfg_.budget_bytes = 0;
  cfg_.tile_w = std::max<std::int64_t>(1, cfg_.tile_w);
  cfg_.tile_h = std::max<std::int64_t>(1, cfg_.tile_h);
  // Every shard must be able to hold at least one full tile (worst case
  // uint16 elements), otherwise a sliver of the budget would cache nothing.
  const std::int64_t max_tile_bytes =
      cfg_.tile_w * cfg_.tile_h * static_cast<std::int64_t>(sizeof(std::uint16_t));
  const std::int64_t max_shards = std::max<std::int64_t>(1, cfg_.budget_bytes / max_tile_bytes);
  cfg_.shards = static_cast<int>(
      std::clamp<std::int64_t>(cfg_.shards, 1, std::min<std::int64_t>(max_shards, 64)));
  shard_budget_ = cfg_.budget_bytes / cfg_.shards;
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int i = 0; i < cfg_.shards; ++i) shards_.push_back(std::make_unique<Shard>());
  // Tenant id 0 always exists: solo runs intern the empty name as "local".
  tenants_.emplace_back().name = "local";
}

std::uint64_t TileCache::dataset_key(const std::string& root, const DatasetMeta& meta) {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(root.data(), root.size(), h);
  for (int d = 0; d < kDims; ++d) {
    const std::int64_t v = meta.dims[d];
    h = fnv1a(&v, sizeof(v), h);
  }
  const int dt = static_cast<int>(meta.dtype);
  return fnv1a(&dt, sizeof(dt), h);
}

int TileCache::tenant_id(const std::string& name) {
  const std::string& key = name.empty() ? std::string("local") : name;
  std::lock_guard lk(tenants_mu_);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].name == key) return static_cast<int>(i);
  }
  tenants_.emplace_back().name = key;
  return static_cast<int>(tenants_.size() - 1);
}

TileCache::TenantCounters& TileCache::tenant(int id) {
  std::lock_guard lk(tenants_mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= tenants_.size()) return tenants_[0];
  return tenants_[static_cast<std::size_t>(id)];
}

TileCache::Shard& TileCache::shard_of(const TileKey& k) {
  return *shards_[TileKeyHash{}(k) % shards_.size()];
}

const TileCache::Shard& TileCache::shard_of(const TileKey& k) const {
  return *shards_[TileKeyHash{}(k) % shards_.size()];
}

void TileCache::evict_entry(Shard& s, std::list<TileKey>::iterator victim) {
  const auto it = s.map.find(*victim);
  const std::int64_t size = static_cast<std::int64_t>(it->second.bytes.size());
  s.resident -= size;
  tenant(it->second.tenant).resident.fetch_add(-size, std::memory_order_relaxed);
  s.map.erase(it);
  s.order.erase(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  pending_evictions_.fetch_add(1, std::memory_order_relaxed);
}

void TileCache::make_room(Shard& s, std::int64_t need) {
  while (s.resident + need > shard_budget_ && !s.order.empty()) {
    evict_entry(s, std::prev(s.order.end()));
  }
}

bool TileCache::read_rect(std::uint64_t dataset, const DatasetMeta& meta, std::int64_t t,
                          std::int64_t z, std::int64_t x0, std::int64_t y0,
                          std::int64_t w, std::int64_t h, std::uint16_t* out,
                          int tenant_idx, TileRectStats& stats) {
  const std::int64_t tw = cfg_.tile_w, th = cfg_.tile_h;
  const std::size_t esz = dtype_size(meta.dtype);
  TenantCounters& tc = tenant(tenant_idx);
  std::int64_t bytes = 0;
  for (std::int64_t yi = y0 / th; yi * th < y0 + h; ++yi) {
    for (std::int64_t xi = x0 / tw; xi * tw < x0 + w; ++xi) {
      const TileKey key{dataset, t, z, xi, yi};
      Shard& s = shard_of(key);
      std::lock_guard lk(s.mu);
      const auto it = s.map.find(key);
      if (it == s.map.end()) {
        ++stats.misses;
        misses_.fetch_add(1, std::memory_order_relaxed);
        tc.misses.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      Entry& e = it->second;
      s.order.splice(s.order.begin(), s.order, e.pos);
      if (e.prefetched) {
        e.prefetched = false;
        prefetch_useful_.fetch_add(1, std::memory_order_relaxed);
        pending_prefetch_useful_.fetch_add(1, std::memory_order_relaxed);
      }
      ++stats.hits;
      hits_.fetch_add(1, std::memory_order_relaxed);
      tc.hits.fetch_add(1, std::memory_order_relaxed);

      // Copy the tile's intersection with the requested rectangle, widening
      // to uint16 exactly like the disk path.
      const std::int64_t gx0 = std::max(x0, xi * tw), gx1 = std::min(x0 + w, xi * tw + e.ew);
      const std::int64_t gy0 = std::max(y0, yi * th), gy1 = std::min(y0 + h, yi * th + e.eh);
      for (std::int64_t gy = gy0; gy < gy1; ++gy) {
        const std::uint8_t* src =
            e.bytes.data() + (static_cast<std::size_t>((gy - yi * th) * e.ew + (gx0 - xi * tw))) * esz;
        std::uint16_t* dst = out + (gy - y0) * w + (gx0 - x0);
        if (meta.dtype == Dtype::U16) {
          std::memcpy(dst, src, static_cast<std::size_t>(gx1 - gx0) * sizeof(std::uint16_t));
        } else {
          for (std::int64_t x = 0; x < gx1 - gx0; ++x) dst[x] = src[x];
        }
      }
      bytes += (gx1 - gx0) * (gy1 - gy0) * static_cast<std::int64_t>(esz);
    }
  }
  stats.bytes_served += bytes;
  bytes_served_.fetch_add(bytes, std::memory_order_relaxed);
  tc.bytes_served.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

void TileCache::insert_slice(std::uint64_t dataset, const DatasetMeta& meta,
                             std::int64_t t, std::int64_t z, const std::uint8_t* bytes,
                             bool prefetched, int tenant_idx) {
  const std::int64_t nx = meta.dims[0], ny = meta.dims[1];
  const std::int64_t tw = cfg_.tile_w, th = cfg_.tile_h;
  const std::size_t esz = dtype_size(meta.dtype);
  for (std::int64_t yi = 0; yi * th < ny; ++yi) {
    for (std::int64_t xi = 0; xi * tw < nx; ++xi) {
      const std::int64_t ew = std::min(tw, nx - xi * tw);
      const std::int64_t eh = std::min(th, ny - yi * th);
      const std::int64_t size = ew * eh * static_cast<std::int64_t>(esz);
      const TileKey key{dataset, t, z, xi, yi};
      Shard& s = shard_of(key);
      std::lock_guard lk(s.mu);
      if (s.map.count(key) != 0) continue;  // keep the resident copy
      if (size > shard_budget_) continue;   // tile cannot fit this shard
      make_room(s, size);
      Entry e;
      e.bytes.resize(static_cast<std::size_t>(size));
      for (std::int64_t y = 0; y < eh; ++y) {
        std::memcpy(e.bytes.data() + static_cast<std::size_t>(y * ew) * esz,
                    bytes + (static_cast<std::size_t>((yi * th + y) * nx + xi * tw)) * esz,
                    static_cast<std::size_t>(ew) * esz);
      }
      e.ew = ew;
      e.eh = eh;
      e.prefetched = prefetched;
      e.tenant = tenant_idx;
      s.order.push_front(key);
      e.pos = s.order.begin();
      s.resident += size;
      tenant(tenant_idx).resident.fetch_add(size, std::memory_order_relaxed);
      s.map.emplace(key, std::move(e));
      if (prefetched) {
        prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
        pending_prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

bool TileCache::slice_fully_cached(std::uint64_t dataset, const DatasetMeta& meta,
                                   std::int64_t t, std::int64_t z) const {
  const std::int64_t nx = meta.dims[0], ny = meta.dims[1];
  for (std::int64_t yi = 0; yi * cfg_.tile_h < ny; ++yi) {
    for (std::int64_t xi = 0; xi * cfg_.tile_w < nx; ++xi) {
      const TileKey key{dataset, t, z, xi, yi};
      const Shard& s = shard_of(key);
      std::lock_guard lk(s.mu);
      if (s.map.count(key) == 0) return false;
    }
  }
  return true;
}

TileCacheStats TileCache::stats() const {
  TileCacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.lookups = st.hits + st.misses;
  st.bytes_served = bytes_served_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  st.prefetch_useful = prefetch_useful_.load(std::memory_order_relaxed);
  for (const auto& s : shards_) {
    std::lock_guard lk(s->mu);
    st.resident_bytes += s->resident;
    st.resident_tiles += static_cast<std::int64_t>(s->map.size());
  }
  return st;
}

std::int64_t TileCache::resident_bytes() const {
  std::int64_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard lk(s->mu);
    total += s->resident;
  }
  return total;
}

std::vector<TenantCacheStats> TileCache::tenant_stats() const {
  std::lock_guard lk(tenants_mu_);
  std::vector<TenantCacheStats> out;
  out.reserve(tenants_.size());
  for (const TenantCounters& t : tenants_) {
    TenantCacheStats row;
    row.tenant = t.name;
    row.hits = t.hits.load(std::memory_order_relaxed);
    row.misses = t.misses.load(std::memory_order_relaxed);
    row.bytes_served = t.bytes_served.load(std::memory_order_relaxed);
    row.resident_bytes = t.resident.load(std::memory_order_relaxed);
    out.push_back(std::move(row));
  }
  return out;
}

void TileCache::drain_unmetered(std::int64_t& evictions, std::int64_t& prefetch_issued,
                                std::int64_t& prefetch_useful) {
  evictions = pending_evictions_.exchange(0, std::memory_order_relaxed);
  prefetch_issued = pending_prefetch_issued_.exchange(0, std::memory_order_relaxed);
  prefetch_useful = pending_prefetch_useful_.exchange(0, std::memory_order_relaxed);
}

}  // namespace h4d::io
