// Stream build cost: what the stream cache pays on a miss, per paper format.
//
// For each H.264 level of the paper's grid, times StreamCache::generate (one
// frame's request stream through the load models, paper-default load
// options, 64 KiB surface alignment) and ChunkMeta::build over every stage at
// 8 channels x 16 B, and reports nanoseconds per request / per position.
// The floor column is the cost of filling a fresh vector of the same number
// of words (reserve + push_back): the first touch of the memory a build must
// write, which no generator can beat.
//
//   bench_stream_build              # 5 repetitions per format, best of
//   bench_stream_build --reps 9
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "load/stream_cache.hpp"
#include "video/h264_levels.hpp"

namespace {

using namespace mcm;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

template <class F>
double best_of(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock_type::now();
    f();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::max(1, std::atoi(argv[i + 1]));
  }
  constexpr std::uint64_t kAlign = 64 * 1024;
  const load::LoadOptions opt;

  std::printf("%-6s %12s %9s %11s %11s %11s\n", "level", "requests", "MB",
              "build ns/r", "meta ns/p", "floor ns/w");
  for (const video::H264Level level : video::kAllLevels) {
    video::UseCaseParams p;
    p.level = level;
    const video::UseCaseModel model(p);
    const video::SurfaceLayout layout(model, kAlign);

    std::shared_ptr<const load::CachedWorkload> wl;
    const double build_s = best_of(reps, [&] {
      wl.reset();  // free the previous copy first: time a cold fill
      wl = load::StreamCache::generate(model, layout, opt);
    });
    const auto n = static_cast<double>(wl->total_requests);

    const double meta_s = best_of(reps, [&] {
      for (const auto& stage : wl->stages) {
        (void)load::ChunkMeta::build(stage, 8, 16);
      }
    });

    const double floor_s = best_of(reps, [&] {
      std::vector<std::uint64_t> words;
      words.reserve(wl->total_requests);
      for (std::uint64_t i = 0; i < wl->total_requests; ++i) words.push_back(i);
      if (words.size() != wl->total_requests) std::abort();
    });

    const std::string_view name = video::level_spec(level).name;
    std::printf("%-6.*s %12llu %9.1f %11.2f %11.2f %11.2f\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(wl->total_requests),
                static_cast<double>(wl->footprint_bytes()) / 1e6,
                build_s * 1e9 / n, meta_s * 1e9 / n, floor_s * 1e9 / n);
  }
  return 0;
}
