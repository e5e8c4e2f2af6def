// Synthetic DCE-MRI phantom generator.
//
// Stands in for the paper's clinical breast DCE-MRI study (Sec. 5.1), which
// we cannot ship. The phantom reproduces the statistical properties the
// algorithm and its optimizations depend on:
//   * spatially smooth, textured tissue background (=> sparse GLCMs at Ng=32,
//     the premise of the sparse-representation optimization);
//   * tumor-like blobs whose intensity follows a contrast uptake/washout
//     curve over the time axis (the texture signal of interest);
//   * additive acquisition noise.
// Generation is fully deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "nd/volume4.hpp"

namespace h4d::io {

/// One synthetic lesion: an ellipsoid with contrast enhancement over time.
struct Tumor {
  Vec4 center;          ///< (x, y, z, -) spatial center; t component unused
  Vec4 radii;           ///< (rx, ry, rz, -) ellipsoid radii
  double amplitude;     ///< peak added intensity
  double uptake_rate;   ///< contrast wash-in rate (1/timestep)
  double washout_rate;  ///< contrast wash-out rate (1/timestep)
};

struct PhantomConfig {
  Vec4 dims{64, 64, 16, 8};  ///< (x, y, z, t)
  unsigned seed = 2004;
  int num_tumors = 3;
  double base_intensity = 800.0;    ///< mean tissue intensity
  double texture_amplitude = 250.0; ///< smooth texture modulation depth
  double noise_sigma = 30.0;        ///< Gaussian acquisition noise
  double tumor_amplitude = 1200.0;  ///< peak lesion enhancement
  int texture_cell = 6;             ///< value-noise lattice spacing (voxels)
};

/// Generated phantom plus the ground-truth lesions (for examples/tests).
struct Phantom {
  Volume4<std::uint16_t> volume;
  std::vector<Tumor> tumors;
};

/// Tofts-style contrast enhancement at time `t` (0-based timestep):
/// s(t) = (e^{-washout t} - e^{-uptake t}) normalized to peak 1.
/// Requires uptake_rate > washout_rate > 0 for a physical wash-in/wash-out.
double enhancement_curve(double t, double uptake_rate, double washout_rate);

/// Generate the phantom.
Phantom generate_phantom(const PhantomConfig& cfg);

}  // namespace h4d::io
