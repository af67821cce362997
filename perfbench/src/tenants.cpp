#include "tenants.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "controller/request.hpp"
#include "workload/trace_format.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kBurst = 16;
constexpr std::int64_t kSpanPs = 30'000'000'000;  // arrivals over 30 ms

/// splitmix64: small, seedable and independent of the simulator's RNGs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

mcm::ctrl::Request make(std::uint64_t addr, bool is_write, std::int64_t ps) {
  mcm::ctrl::Request r;
  r.addr = addr;
  r.is_write = is_write;
  r.arrival = mcm::Time{ps};
  return r;
}

std::int64_t even(std::uint64_t i, std::uint64_t n) {
  // i < 2^40 requests at most, so the product stays far below 2^63.
  return static_cast<std::int64_t>(i) * kSpanPs / static_cast<std::int64_t>(n);
}

std::vector<mcm::ctrl::Request> seq_write(std::uint64_t n, Rng& rng) {
  std::vector<mcm::ctrl::Request> out;
  out.reserve(n);
  const std::uint64_t base = rng.below(1024) * 2048;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(make(base + i * kBurst, true, even(i, n)));
  }
  return out;
}

std::vector<mcm::ctrl::Request> random_read(std::uint64_t n, Rng& rng) {
  constexpr std::uint64_t kWindow = std::uint64_t{32} << 20;
  std::vector<mcm::ctrl::Request> out;
  out.reserve(n);
  // Bursty arrivals: exponential gaps with the same mean as an even spread.
  const double mean_gap = static_cast<double>(kSpanPs) / static_cast<double>(n);
  double t = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    t += -mean_gap * std::log1p(-rng.unit());
    const auto ps = std::min<std::int64_t>(static_cast<std::int64_t>(t), kSpanPs);
    out.push_back(make(rng.below(kWindow / kBurst) * kBurst, false, ps));
  }
  return out;
}

std::vector<mcm::ctrl::Request> strided(std::uint64_t n, Rng& rng) {
  // 4 channels x 16 B interleave x 4 banks x 2 KiB rows: a 32 KiB global
  // stride lands on the same channel and bank, one row further on.
  constexpr std::uint64_t kStride = 32 * 1024;
  constexpr std::uint64_t kWindow = std::uint64_t{16} << 20;
  std::vector<mcm::ctrl::Request> out;
  out.reserve(n);
  std::uint64_t addr = rng.below(kStride / kBurst) * kBurst;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(make(addr, (rng.next() & 1) != 0, even(i, n)));
    addr = (addr + kStride) % kWindow;
    // Every 64 accesses move to another column, channel and bank.
    if (i % 64 == 63) addr = (addr + rng.below(kStride / kBurst) * kBurst) % kWindow;
  }
  return out;
}

std::vector<mcm::ctrl::Request> paced_read(std::uint64_t n, Rng& rng) {
  std::vector<mcm::ctrl::Request> out;
  out.reserve(n);
  const std::uint64_t base = rng.below(1024) * 2048;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(make(base + i * kBurst, false, even(i, n)));
  }
  return out;
}

}  // namespace

mcm::workload::WorkloadSpec write_mixed_tenants(const std::string& dir,
                                                std::uint64_t seed,
                                                std::uint64_t requests) {
  using mcm::workload::TraceFormat;
  struct Tenant {
    const char* name;
    std::uint64_t share_pct;
    TraceFormat format;
    std::vector<mcm::ctrl::Request> (*make)(std::uint64_t, Rng&);
  };
  static constexpr Tenant kTenants[] = {
      {"seq_write", 35, TraceFormat::kBinary, seq_write},
      {"random_read", 25, TraceFormat::kBinary, random_read},
      {"strided", 15, TraceFormat::kMcmText, strided},
      {"paced_read", 25, TraceFormat::kMcmText, paced_read},
  };

  mcm::workload::WorkloadSpec spec;
  spec.name = "mixed_random";
  spec.channels = 4;
  spec.freq_mhz = 400;
  spec.interleave_bytes = 16;
  spec.frames = 1;
  spec.sim_threads = 1;
  Rng root(seed);
  for (const Tenant& t : kTenants) {
    Rng rng(root.next());
    const std::uint64_t n = std::max<std::uint64_t>(1, requests * t.share_pct / 100);
    const std::string path =
        dir + "/" + t.name +
        (t.format == TraceFormat::kBinary ? ".bin" : ".txt");
    mcm::workload::write_trace_file(path, t.format, t.make(n, rng));
    mcm::workload::TenantSpec tenant;
    tenant.name = t.name;
    tenant.kind = "trace";
    tenant.path = path;
    tenant.format = std::string(mcm::workload::to_string(t.format));
    spec.tenants.push_back(std::move(tenant));
  }
  return spec;
}

}  // namespace perfbench
