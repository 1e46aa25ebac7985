// Sliding-window cell-averaging CFAR (paper §5.5).
//
// The value of a test cell is compared against the mean of a set of
// reference range cells around it (excluding guard cells) times a
// probability-of-false-alarm factor. Post-detection power after |.|^2 of a
// complex Gaussian is exponentially distributed, for which the CA-CFAR
// multiplier achieving PFA with W reference cells is W (PFA^(-1/W) - 1);
// near the range edges the window shrinks and the multiplier is recomputed
// for the actual cell count so the false alarm rate stays constant.
#pragma once

#include <span>
#include <vector>

#include "cube/cube.hpp"
#include "stap/params.hpp"

namespace ppstap::stap {

/// One target report: the pipeline's final output.
struct Detection {
  index_t doppler_bin = 0;  ///< global Doppler bin
  index_t beam = 0;         ///< receive beam index
  index_t range = 0;        ///< range cell
  float power = 0.0f;       ///< cell power
  float threshold = 0.0f;   ///< threshold that was exceeded
};

/// Run CFAR over a B x M x K power cube whose B rows correspond to the
/// global Doppler bins listed in `bins`. Detections are ordered by
/// (bin row, beam, range).
std::vector<Detection> cfar_detect(cube::CubeView<float> power,
                                   std::span<const index_t> bins,
                                   const StapParams& p);

/// ABFT invariant (PR 5): sanity check of a detection list against the
/// power cube it was derived from. Every report must quote exactly the
/// power stored at its (bin row, beam, range) cell (bitwise float
/// equality — the detector copies, never transforms), carry a finite
/// positive power above its finite non-negative threshold, point inside
/// the cube, reference an owned bin, and the list must be sorted by
/// (bin row, beam, range). Catches any bit flip in the report buffer.
bool verify_detections(std::span<const Detection> dets,
                       cube::CubeView<float> power,
                       std::span<const index_t> bins, const StapParams& p);

}  // namespace ppstap::stap
