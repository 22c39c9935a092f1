// Probabilistic global routing over a capacity grid — the "routing
// estimation" of the paper's congestion-driven flow (section 5), one level
// more faithful than the RUDY map: nets are decomposed into two-pin edges
// by a minimum spanning tree and each edge is routed with the less
// congested of its L-shapes (optionally refined with Z-shapes), committing
// track usage to per-bin horizontal/vertical capacities.
#pragma once

#include <cstddef>
#include <vector>

#include "core/placer.hpp"
#include "geometry/geometry.hpp"
#include "netlist/netlist.hpp"

namespace gpf {

struct router_options {
    double h_capacity = 8.0;   ///< horizontal tracks per bin
    double v_capacity = 8.0;   ///< vertical tracks per bin
    /// Refine the L-shape routing with Z bends: after the L-only routing
    /// (greedy pass plus reroute passes), up to max(1, reroute_passes)
    /// sweeps may also pick Z bends, and the lowest-overflow state seen is
    /// returned — so the total overflow is never above the L-only one.
    bool use_z_shapes = true;
    std::size_t max_z_candidates = 8; ///< intermediate coordinates probed per edge
    /// Rip-up-and-reroute sweeps after the initial greedy pass: every bent
    /// edge is re-chosen against the congestion left by the others, which
    /// lets early commitments escape congestion discovered later. 0
    /// restores single-pass greedy L routing.
    std::size_t reroute_passes = 2;
    /// Congestion cost exponent: cost of using a bin = (usage/capacity)^p.
    double cost_exponent = 2.0;
};

struct routing_result {
    std::size_t nx = 0;
    std::size_t ny = 0;
    std::vector<double> h_usage; ///< tracks used per bin (row-major, ix major)
    std::vector<double> v_usage;
    double wirelength = 0.0;     ///< total routed length, layout units
    double overflow = 0.0;       ///< Σ max(0, usage − capacity) over bins & layers
    double max_utilization = 0.0; ///< worst bin usage/capacity over both layers
    std::size_t edges_routed = 0;

    double h_at(std::size_t ix, std::size_t iy) const { return h_usage[ix * ny + iy]; }
    double v_at(std::size_t ix, std::size_t iy) const { return v_usage[ix * ny + iy]; }

    /// Combined per-bin utilization map (max of the two layers), suitable
    /// for heat-map export and for the placer's density hook.
    std::vector<double> utilization_map(const router_options& options) const;
};

/// Route every net of the placement over an nx × ny grid spanning `region`.
/// Deterministic: nets are processed in id order, ties broken toward the
/// lower bend.
routing_result route_global(const netlist& nl, const placement& pl, const rect& region,
                            std::size_t nx, std::size_t ny,
                            const router_options& options = {});

/// Density hook driven by the router instead of RUDY: bins whose routing
/// utilization exceeds the mean repel cells like over-dense bins do.
placer::density_hook make_router_hook(const netlist& nl, router_options options = {},
                                      double density_weight = 1.0);

} // namespace gpf
