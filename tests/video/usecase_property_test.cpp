// Property sweep over the use-case model's parameter space: structural
// invariants must hold for every (level, zoom, reference policy) cell.
#include <gtest/gtest.h>

#include <ostream>

#include "video/usecase.hpp"

namespace mcm::video {
namespace {

struct Params {
  H264Level level;
  double zoom;
  RefFramePolicy policy;
};

// Names each grid cell in the test list. Without a printer gtest dumps the
// struct's raw bytes, padding included, so the names changed between runs.
void PrintTo(const Params& p, std::ostream* os) {
  *os << "level " << level_spec(p.level).name << " zoom " << p.zoom << ' '
      << (p.policy == RefFramePolicy::kCalibrated ? "calibrated" : "dpb");
}

class UseCaseProperty : public ::testing::TestWithParam<Params> {};

TEST_P(UseCaseProperty, StructuralInvariants) {
  const auto [level, zoom, policy] = GetParam();
  UseCaseParams p;
  p.level = level;
  p.digizoom = zoom;
  p.ref_policy = policy;
  const UseCaseModel m(p);

  // Per-stage volumes are non-negative and finite.
  double sum = 0;
  for (const auto& s : m.stages()) {
    EXPECT_GE(s.read_bits, 0.0) << s.name;
    EXPECT_GE(s.write_bits, 0.0) << s.name;
    EXPECT_TRUE(std::isfinite(s.total_bits())) << s.name;
    sum += s.total_bits();
  }
  EXPECT_DOUBLE_EQ(sum, m.total_bits_per_frame());
  EXPECT_DOUBLE_EQ(m.total_bits_per_frame(), m.image_processing_bits_per_frame() +
                                                 m.video_coding_bits_per_frame());

  // Sanity bounds: at least the raw sensor write, at most a silly multiple.
  const double n = static_cast<double>(m.level().resolution.pixels());
  EXPECT_GT(m.total_bits_per_frame(), 16.0 * n);
  EXPECT_LT(m.total_bits_per_frame(), 2000.0 * n);

  // Frame period consistent with the level's rate.
  EXPECT_NEAR(m.frame_period().seconds() * m.level().fps, 1.0, 1e-9);
}

TEST_P(UseCaseProperty, ZoomMonotonicity) {
  const auto [level, zoom, policy] = GetParam();
  if (zoom >= 3.0) return;
  UseCaseParams lo;
  lo.level = level;
  lo.digizoom = zoom;
  lo.ref_policy = policy;
  UseCaseParams hi = lo;
  hi.digizoom = zoom + 0.5;
  EXPECT_GE(UseCaseModel(lo).total_bits_per_frame(),
            UseCaseModel(hi).total_bits_per_frame());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UseCaseProperty,
    ::testing::Values(Params{H264Level::k31, 1.0, RefFramePolicy::kCalibrated},
                      Params{H264Level::k31, 2.0, RefFramePolicy::kDpbDerived},
                      Params{H264Level::k32, 1.0, RefFramePolicy::kCalibrated},
                      Params{H264Level::k32, 1.5, RefFramePolicy::kDpbDerived},
                      Params{H264Level::k40, 1.0, RefFramePolicy::kCalibrated},
                      Params{H264Level::k40, 3.0, RefFramePolicy::kDpbDerived},
                      Params{H264Level::k42, 1.0, RefFramePolicy::kCalibrated},
                      Params{H264Level::k42, 2.5, RefFramePolicy::kCalibrated},
                      Params{H264Level::k52, 1.0, RefFramePolicy::kDpbDerived},
                      Params{H264Level::k52, 2.0, RefFramePolicy::kCalibrated}));

}  // namespace
}  // namespace mcm::video
