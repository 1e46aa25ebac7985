// Beamforming (paper §5.3).
//
// Applies the adaptive weights to the Doppler-filtered data: per easy bin a
// single J x M weight matrix across the whole range extent; per hard bin a
// separate 2J x M weight matrix for each of the six range segments.
//
// Inputs arrive in the bin-major layout the parallel pipeline redistributes
// into (paper Fig. 8): a B x K x C cube where B indexes the owned Doppler
// bins, K is range, and C is J (easy — single Doppler spectrum) or 2J (hard
// — both stagger windows). The kernel walks the unit-stride channel line per
// (bin, range), so no further reorganization is needed.
#pragma once

#include "cube/cube.hpp"
#include "stap/params.hpp"
#include "stap/weights.hpp"

namespace ppstap::stap {

/// Easy beamforming: `data` is B x K x J, `w.bins` must match the B rows of
/// `data` with J x M weight matrices. Returns B x M x K.
///
/// `active_beams` (-1 = all) computes only the first `active_beams` receive
/// beams and leaves the rest zero — the overload ladder's reduced-beam rungs
/// shed beamforming work proportionally (flops scale with the active count).
cube::CpiCube easy_beamform(cube::CubeView<cfloat> data, const WeightSet& w,
                            const StapParams& p, index_t active_beams = -1);

/// Hard beamforming: `data` is B x K x 2J; `w` holds num_segments matrices
/// of 2J x M per bin. Weight matrix of segment s applies to range cells
/// [segment_begin(s), segment_end(s)). Returns B x M x K. `active_beams`
/// as in easy_beamform.
cube::CpiCube hard_beamform(cube::CubeView<cfloat> data, const WeightSet& w,
                            const StapParams& p, index_t active_beams = -1);

/// ABFT invariant (PR 5): Huang–Abraham column-checksum verification of the
/// beamforming matmul. For each (bin, range) cell the sum of the active
/// beam outputs must equal the checksum beam — the data line dotted with
/// the per-matrix column-sum weight vector c_j = sum_m w(j, m). One extra
/// J-length dot per cell (~1/M of the kernel's flops) recomputed in double,
/// so `tol` (relative to the term magnitudes) only absorbs float rounding.
/// Returns false on the first deviating or non-finite cell.
bool easy_beamform_check(cube::CubeView<cfloat> data, const WeightSet& w,
                         const StapParams& p, const cube::CpiCube& out,
                         index_t active_beams, double tol);

/// Same invariant for the segmented hard-bin matmul.
bool hard_beamform_check(cube::CubeView<cfloat> data, const WeightSet& w,
                         const StapParams& p, const cube::CpiCube& out,
                         index_t active_beams, double tol);

}  // namespace ppstap::stap
