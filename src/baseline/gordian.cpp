#include "baseline/gordian.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/metrics.hpp"
#include "linalg/cg_solver.hpp"
#include "model/quadratic_system.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace gpf {

namespace {

struct region {
    rect bounds;
    std::vector<std::size_t> vars; ///< quadratic-system variable indices
};

/// Solve the quadratic system with per-variable anchors to region centers.
placement solve_anchored(const quadratic_system& sys, const placement& start,
                         const std::vector<point>& anchor, double anchor_weight) {
    const std::size_t n = sys.num_vars();
    GPF_CHECK(anchor.size() >= sys.num_movable());

    // The anchors are a diagonal shift on the movable rows; star centers
    // get a zero shift, which adds exactly nothing (a row sum is never −0).
    std::vector<double> shift(n, 0.0);
    std::fill(shift.begin(), shift.begin() + static_cast<std::ptrdiff_t>(sys.num_movable()),
              anchor_weight);
    const auto solve_dim = [&](const sliced_matrix& a, const std::vector<double>& b,
                               bool is_x) {
        std::vector<double> rhs(n);
        for (std::size_t v = 0; v < n; ++v) {
            double anchored = 0.0;
            if (v < sys.num_movable()) {
                anchored = anchor_weight * (is_x ? anchor[v].x : anchor[v].y);
            }
            rhs[v] = -b[v] + anchored;
        }
        std::vector<double> x(n, 0.0);
        for (std::size_t v = 0; v < sys.num_movable(); ++v) {
            x[v] = is_x ? start[sys.cell_of_var(v)].x : start[sys.cell_of_var(v)].y;
        }
        cg_solve(a, rhs, x, cg_options{}, nullptr, &shift);
        return x;
    };

    const std::vector<double> xs = solve_dim(sys.matrix_x(), sys.rhs_x(), true);
    const std::vector<double> ys = solve_dim(sys.matrix_y(), sys.rhs_y(), false);

    placement out = start;
    for (std::size_t v = 0; v < sys.num_movable(); ++v) {
        out[sys.cell_of_var(v)] = point(xs[v], ys[v]);
    }
    return out;
}

} // namespace

placement gordian_place(const netlist& nl, const gordian_options& options,
                        gordian_stats* stats) {
    quadratic_system sys(nl, options.net_model);
    placement current = nl.centered_placement();

    // Level 0: unconstrained global quadratic optimum.
    sys.assemble(current);
    current = sys.solve(current, {}, {});

    const double mean_stiffness = std::max(1e-12, sys.mean_stiffness());

    std::vector<region> regions(1);
    regions[0].bounds = nl.region();
    regions[0].vars.resize(sys.num_movable());
    std::iota(regions[0].vars.begin(), regions[0].vars.end(), 0);

    if (stats) {
        stats->hpwl_per_level.clear();
        stats->hpwl_per_level.push_back(total_hpwl(nl, current));
    }

    std::vector<point> anchor(sys.num_movable());
    for (std::size_t level = 0; level < options.max_levels; ++level) {
        // --- partition every region that is still large ----------------------
        std::vector<region> next;
        bool any_split = false;
        for (region& r : regions) {
            if (r.vars.size() <= options.min_cells_per_region) {
                next.push_back(std::move(r));
                continue;
            }
            any_split = true;
            const bool split_x = r.bounds.width() >= r.bounds.height();
            std::sort(r.vars.begin(), r.vars.end(), [&](std::size_t a, std::size_t b) {
                const point pa = current[sys.cell_of_var(a)];
                const point pb = current[sys.cell_of_var(b)];
                return split_x ? pa.x < pb.x : pa.y < pb.y;
            });
            double total_area = 0.0;
            for (const std::size_t v : r.vars) total_area += nl.cell_at(sys.cell_of_var(v)).area();
            // Area-balanced split of the sorted cells.
            region lo, hi;
            double acc = 0.0;
            for (const std::size_t v : r.vars) {
                if (acc < total_area / 2) {
                    lo.vars.push_back(v);
                    acc += nl.cell_at(sys.cell_of_var(v)).area();
                } else {
                    hi.vars.push_back(v);
                }
            }
            if (lo.vars.empty() || hi.vars.empty()) {
                next.push_back(std::move(r));
                continue;
            }
            // Region cut proportional to the area shares.
            const double frac = acc / total_area;
            if (split_x) {
                const double cut = r.bounds.xlo + frac * r.bounds.width();
                lo.bounds = rect(r.bounds.xlo, r.bounds.ylo, cut, r.bounds.yhi);
                hi.bounds = rect(cut, r.bounds.ylo, r.bounds.xhi, r.bounds.yhi);
            } else {
                const double cut = r.bounds.ylo + frac * r.bounds.height();
                lo.bounds = rect(r.bounds.xlo, r.bounds.ylo, r.bounds.xhi, cut);
                hi.bounds = rect(r.bounds.xlo, cut, r.bounds.xhi, r.bounds.yhi);
            }
            next.push_back(std::move(lo));
            next.push_back(std::move(hi));
        }
        regions = std::move(next);
        if (!any_split) break;

        // --- re-solve with anchors to the region centers --------------------
        for (const region& r : regions) {
            for (const std::size_t v : r.vars) anchor[v] = r.bounds.center();
        }
        const double anchor_weight =
            options.anchor_strength * std::pow(2.0, static_cast<double>(level)) *
            mean_stiffness;
        sys.assemble(current);
        current = solve_anchored(sys, current, anchor, anchor_weight);

        if (stats) {
            stats->levels = level + 1;
            stats->hpwl_per_level.push_back(total_hpwl(nl, current));
        }
        log(log_level::debug) << "gordian level " << level << ": " << regions.size()
                              << " regions, hpwl " << total_hpwl(nl, current);
    }

    if (stats) stats->final_regions = regions.size();
    return current;
}

} // namespace gpf
