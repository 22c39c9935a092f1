#include "route/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace gpf {

namespace {

/// Router working state: usage grids plus bin geometry.
struct grid_state {
    const rect region;
    const std::size_t nx;
    const std::size_t ny;
    const double bin_w;
    const double bin_h;
    const router_options& opt;
    std::vector<double>& h_usage;
    std::vector<double>& v_usage;

    std::size_t bin_x(double x) const {
        const double t = (x - region.xlo) / bin_w;
        return static_cast<std::size_t>(std::clamp(
            t, 0.0, static_cast<double>(nx - 1)));
    }
    std::size_t bin_y(double y) const {
        const double t = (y - region.ylo) / bin_h;
        return static_cast<std::size_t>(std::clamp(
            t, 0.0, static_cast<double>(ny - 1)));
    }

    double cost_of(double usage, double capacity) const {
        return std::pow((usage + 1.0) / capacity, opt.cost_exponent);
    }

    /// Cost / commit of a horizontal run at bin row `iy` spanning bins
    /// [x0, x1] (inclusive).
    double h_cost(std::size_t x0, std::size_t x1, std::size_t iy) const {
        double acc = 0.0;
        for (std::size_t ix = std::min(x0, x1); ix <= std::max(x0, x1); ++ix) {
            acc += cost_of(h_usage[ix * ny + iy], opt.h_capacity);
        }
        return acc;
    }
    double v_cost(std::size_t ix, std::size_t y0, std::size_t y1) const {
        double acc = 0.0;
        for (std::size_t iy = std::min(y0, y1); iy <= std::max(y0, y1); ++iy) {
            acc += cost_of(v_usage[ix * ny + iy], opt.v_capacity);
        }
        return acc;
    }
    void h_commit(std::size_t x0, std::size_t x1, std::size_t iy) {
        for (std::size_t ix = std::min(x0, x1); ix <= std::max(x0, x1); ++ix) {
            h_usage[ix * ny + iy] += 1.0;
        }
    }
    void v_commit(std::size_t ix, std::size_t y0, std::size_t y1) {
        for (std::size_t iy = std::min(y0, y1); iy <= std::max(y0, y1); ++iy) {
            v_usage[ix * ny + iy] += 1.0;
        }
    }
};

/// A routed two-pin edge with a bend choice (ax != bx and ay != by):
/// vertical legs on columns ax/bx joined by a horizontal run at `row`.
struct bent_edge {
    std::size_t ax, ay, bx, by;
    std::size_t row;
};

/// Cheapest horizontal-run row among the candidate single-bend (L) /
/// double-bend (Z, when `z_shapes`) paths under the current usage. Ties
/// break toward the earliest candidate (the lower-bend L first), so
/// re-evaluating an edge whose surroundings did not change reproduces its
/// previous choice.
std::size_t choose_row(const grid_state& g, const bent_edge& e, bool z_shapes) {
    std::vector<std::size_t> rows = {e.ay, e.by};
    if (z_shapes) {
        const std::size_t lo = std::min(e.ay, e.by);
        const std::size_t hi = std::max(e.ay, e.by);
        const std::size_t span = hi - lo;
        const std::size_t step =
            std::max<std::size_t>(1, span / (g.opt.max_z_candidates + 1));
        for (std::size_t m = lo + step; m < hi; m += step) rows.push_back(m);
    }

    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best_row = e.ay;
    for (const std::size_t m : rows) {
        const double cost = g.v_cost(e.ax, e.ay, m) + g.h_cost(e.ax, e.bx, m) +
                            g.v_cost(e.bx, m, e.by);
        if (cost < best_cost) {
            best_cost = cost;
            best_row = m;
        }
    }
    return best_row;
}

void commit_bent(grid_state& g, const bent_edge& e) {
    g.v_commit(e.ax, e.ay, e.row);
    g.h_commit(e.ax, e.bx, e.row);
    g.v_commit(e.bx, e.row, e.by);
}

void uncommit_bent(grid_state& g, const bent_edge& e) {
    for (std::size_t iy = std::min(e.ay, e.row); iy <= std::max(e.ay, e.row); ++iy) {
        g.v_usage[e.ax * g.ny + iy] -= 1.0;
    }
    for (std::size_t ix = std::min(e.ax, e.bx); ix <= std::max(e.ax, e.bx); ++ix) {
        g.h_usage[ix * g.ny + e.row] -= 1.0;
    }
    for (std::size_t iy = std::min(e.row, e.by); iy <= std::max(e.row, e.by); ++iy) {
        g.v_usage[e.bx * g.ny + iy] -= 1.0;
    }
}

/// Route one two-pin edge with an L-shape. Straight edges have no routing
/// freedom and are committed directly; bent edges record their choice in
/// `bent` so the reroute passes can revisit it.
void route_edge(grid_state& g, std::size_t ax, std::size_t ay, std::size_t bx,
                std::size_t by, std::vector<bent_edge>& bent) {
    if (ax == bx && ay == by) return;
    if (ax == bx) {
        g.v_commit(ax, ay, by);
        return;
    }
    if (ay == by) {
        g.h_commit(ax, bx, ay);
        return;
    }
    bent_edge e{ax, ay, bx, by, 0};
    e.row = choose_row(g, e, /*z_shapes=*/false);
    commit_bent(g, e);
    bent.push_back(e);
}

/// One rip-up-and-reroute sweep: every bent edge is re-chosen against the
/// congestion left by all others. Each re-choice is a best response under
/// the congestion cost, so the sweep descends the same potential the
/// greedy pass optimizes; an edge whose surroundings did not change
/// re-derives its previous choice and stays put. Returns whether any edge
/// moved.
bool reroute_sweep(grid_state& g, std::vector<bent_edge>& bent, bool z_shapes) {
    bool changed = false;
    for (bent_edge& e : bent) {
        uncommit_bent(g, e);
        const std::size_t row = choose_row(g, e, z_shapes);
        changed |= row != e.row;
        e.row = row;
        commit_bent(g, e);
    }
    return changed;
}

/// Σ max(0, usage − capacity) over bins and both layers.
double total_overflow(const grid_state& g) {
    double overflow = 0.0;
    for (std::size_t i = 0; i < g.nx * g.ny; ++i) {
        overflow += std::max(0.0, g.h_usage[i] - g.opt.h_capacity) +
                    std::max(0.0, g.v_usage[i] - g.opt.v_capacity);
    }
    return overflow;
}

/// Minimum spanning tree over the net's pin positions (Prim, O(k²) — net
/// degrees are small). Returns edge index pairs.
std::vector<std::pair<std::size_t, std::size_t>> mst_edges(
    const std::vector<point>& pins) {
    const std::size_t k = pins.size();
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    if (k < 2) return edges;
    std::vector<char> in_tree(k, 0);
    std::vector<double> dist(k, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> parent(k, 0);
    in_tree[0] = 1;
    for (std::size_t j = 1; j < k; ++j) {
        dist[j] = manhattan_distance(pins[0], pins[j]);
    }
    for (std::size_t added = 1; added < k; ++added) {
        std::size_t best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < k; ++j) {
            if (!in_tree[j] && dist[j] < best_d) {
                best_d = dist[j];
                best = j;
            }
        }
        in_tree[best] = 1;
        edges.push_back({parent[best], best});
        for (std::size_t j = 0; j < k; ++j) {
            if (in_tree[j]) continue;
            const double d = manhattan_distance(pins[best], pins[j]);
            if (d < dist[j]) {
                dist[j] = d;
                parent[j] = best;
            }
        }
    }
    return edges;
}

} // namespace

std::vector<double> routing_result::utilization_map(const router_options& options) const {
    std::vector<double> map(nx * ny, 0.0);
    for (std::size_t i = 0; i < map.size(); ++i) {
        map[i] = std::max(h_usage[i] / options.h_capacity,
                          v_usage[i] / options.v_capacity);
    }
    return map;
}

routing_result route_global(const netlist& nl, const placement& pl, const rect& region,
                            std::size_t nx, std::size_t ny,
                            const router_options& options) {
    GPF_CHECK(pl.size() == nl.num_cells());
    GPF_CHECK(nx >= 1 && ny >= 1);
    GPF_CHECK(options.h_capacity > 0.0 && options.v_capacity > 0.0);

    routing_result result;
    result.nx = nx;
    result.ny = ny;
    result.h_usage.assign(nx * ny, 0.0);
    result.v_usage.assign(nx * ny, 0.0);

    grid_state grid{region,
                    nx,
                    ny,
                    region.width() / static_cast<double>(nx),
                    region.height() / static_cast<double>(ny),
                    options,
                    result.h_usage,
                    result.v_usage};

    std::vector<point> pins;
    std::vector<bent_edge> bent;
    for (const net& n : nl.nets()) {
        if (n.degree() < 2) continue;
        pins.clear();
        for (const pin& p : n.pins) pins.push_back(pin_position(nl, pl, p));
        for (const auto& [a, b] : mst_edges(pins)) {
            route_edge(grid, grid.bin_x(pins[a].x), grid.bin_y(pins[a].y),
                       grid.bin_x(pins[b].x), grid.bin_y(pins[b].y), bent);
            ++result.edges_routed;
        }
    }

    // The L-only routing: greedy pass (above) plus rip-up-and-reroute.
    for (std::size_t pass = 0; pass < options.reroute_passes; ++pass) {
        if (!reroute_sweep(grid, bent, /*z_shapes=*/false)) break;
    }

    // Z-shapes refine the L-only routing: Z sweeps start from it, and the
    // lowest-overflow state seen is kept (ties go to the later, Z-refined
    // state). A greedy Z choice can still raise the total overflow, so
    // the L-only state stays the fallback — Z-shapes never route worse
    // than L-shapes alone.
    if (options.use_z_shapes && options.max_z_candidates > 0) {
        double best_overflow = total_overflow(grid);
        std::vector<double> best_h = result.h_usage;
        std::vector<double> best_v = result.v_usage;
        const std::size_t z_passes = std::max<std::size_t>(1, options.reroute_passes);
        for (std::size_t pass = 0; pass < z_passes; ++pass) {
            if (!reroute_sweep(grid, bent, /*z_shapes=*/true)) break;
            const double overflow = total_overflow(grid);
            if (overflow <= best_overflow) {
                best_overflow = overflow;
                best_h = result.h_usage;
                best_v = result.v_usage;
            }
        }
        result.h_usage = std::move(best_h);
        result.v_usage = std::move(best_v);
    }

    // Wirelength and overflow from the committed usage.
    result.overflow = total_overflow(grid);
    for (std::size_t i = 0; i < nx * ny; ++i) {
        result.wirelength +=
            result.h_usage[i] * grid.bin_w + result.v_usage[i] * grid.bin_h;
        result.max_utilization =
            std::max({result.max_utilization, result.h_usage[i] / options.h_capacity,
                      result.v_usage[i] / options.v_capacity});
    }
    return result;
}

placer::density_hook make_router_hook(const netlist& nl, router_options options,
                                      double density_weight) {
    return [&nl, options, density_weight](density_map& density, const placement& pl) {
        const routing_result routes = route_global(
            nl, pl, density.region(), density.nx(), density.ny(), options);
        std::vector<double> map = routes.utilization_map(options);
        double mean = 0.0;
        for (const double v : map) mean += v;
        mean /= static_cast<double>(map.size());
        for (double& v : map) v = std::max(0.0, v - mean);
        density.add_field(map, density_weight);
    };
}

} // namespace gpf
