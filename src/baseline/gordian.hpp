// GORDIAN-style baseline placer (Kleinhans/Sigl/Johannes/Antreich, TCAD
// 1991 — reference [7] of the paper): global quadratic placement combined
// with recursive partitioning of the placement area. At every level each
// region's cells are attracted to their region center while the full
// quadratic wire-length objective is re-minimized globally; regions are
// then bisected along their longer side with an area-balanced split of
// their cells.
//
// Substitution note (DESIGN.md §4): the original formulates the region
// restriction as linear center-of-mass equality constraints; we realize it
// with per-cell anchor springs whose weight grows with the partitioning
// level, which has the same fixed point and avoids a constrained solver.
#pragma once

#include <cstddef>
#include <vector>

#include "model/net_models.hpp"
#include "netlist/netlist.hpp"

namespace gpf {

struct gordian_options {
    std::size_t min_cells_per_region = 16; ///< recursion stop
    std::size_t max_levels = 12;
    /// Anchor spring weight at level L, relative to the mean connection
    /// stiffness: anchor = strength · 2^L · s̄.
    double anchor_strength = 0.25;
    net_model_options net_model;
};

struct gordian_stats {
    std::size_t levels = 0;
    std::vector<double> hpwl_per_level;
    std::size_t final_regions = 0;
};

/// Global placement (overlapping, spread by partitioning); legalize with
/// the shared legalization pipeline afterwards.
placement gordian_place(const netlist& nl, const gordian_options& options = {},
                        gordian_stats* stats = nullptr);

} // namespace gpf
