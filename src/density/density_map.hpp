// Discretized supply-and-demand density D(x,y) of section 3.3:
//
//   D(x,y) = sum_i a_i(x,y) - s * A(x,y)
//
// on a regular nx x ny bin grid over the placement region. `demand` is the
// exact rectangle-overlap coverage of the cells normalized by bin area;
// `supply` is the uniform scaled chip area. finalize() sets the supply
// level to the mean demand so that the integral of D over the region is
// exactly zero (the paper achieves the same by scaling the supply with s;
// with cells fully inside the region the two definitions coincide).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "geometry/geometry.hpp"
#include "netlist/netlist.hpp"

namespace gpf {

class density_map {
public:
    density_map(const rect& region, std::size_t nx, std::size_t ny);

    std::size_t nx() const { return nx_; }
    std::size_t ny() const { return ny_; }
    const rect& region() const { return region_; }
    double bin_width() const { return bin_w_; }
    double bin_height() const { return bin_h_; }
    double bin_area() const { return bin_w_ * bin_h_; }

    /// Center of bin (ix, iy).
    point bin_center(std::size_t ix, std::size_t iy) const;

    /// Reset all demand to zero (supply untouched until finalize()).
    void clear();

    /// Stamp a rectangle's area into the demand grid (exact overlap,
    /// clipped to the region). `weight` scales the deposited area.
    void add_rect(const rect& r, double weight = 1.0);

    /// Stamp many rectangles at once, in parallel. The grid's ix rows are
    /// split into contiguous chunks and every chunk deposits, in rect
    /// index order, exactly the rows it owns — each bin accumulates its
    /// contributions in rect index order no matter how the rows are
    /// chunked, so the result is bitwise identical to repeated add_rect
    /// for EVERY chunk and thread count (no scratch grids, no merge
    /// pass, and the chunk count may follow the thread count freely).
    void add_rects(const std::vector<rect>& rects, double weight = 1.0);

    /// Deposit `area` into the single bin containing p (point model).
    void add_point(const point& p, double area);

    /// Add an externally computed per-bin demand term (e.g. a congestion
    /// or heat map); values are in density units (dimensionless coverage).
    void add_field(const std::vector<double>& values, double weight = 1.0);

    /// Compute the supply level (mean demand) making sum(D) == 0.
    void finalize();

    /// Demand density of bin (ix, iy) — coverage in [0, inf).
    double demand_at(std::size_t ix, std::size_t iy) const;

    /// Demand density of the bin containing p (clamped to the grid).
    double demand_near(const point& p) const;

    /// D = demand - supply at bin (ix, iy). Requires finalize().
    double density_at(std::size_t ix, std::size_t iy) const;

    double supply_level() const { return supply_; }
    bool finalized() const { return finalized_; }

    /// Row-major (ix major) demand vector, length nx*ny.
    const std::vector<double>& demand() const { return demand_; }

    /// Convenience: max over bins of density (overflow indicator).
    double max_density() const;

    /// Sum over bins of max(0, D) * bin_area: total overflowing area.
    double overflow_area() const;

private:
    std::size_t index(std::size_t ix, std::size_t iy) const { return ix * ny_ + iy; }

    /// Exact-overlap stamping of one rect into an arbitrary grid (the
    /// shared core of add_rect and the row-chunked add_rects path).
    /// Deposits are restricted to grid rows ix in [row_begin, row_end).
    void stamp_rows(const rect& r, double weight, std::vector<double>& out,
                    std::size_t row_begin, std::size_t row_end) const;

    /// stamp_rows over the whole grid.
    void stamp(const rect& r, double weight, std::vector<double>& out) const;

    rect region_;
    std::size_t nx_;
    std::size_t ny_;
    double bin_w_;
    double bin_h_;
    std::vector<double> demand_;
    double supply_ = 0.0;
    bool finalized_ = false;
};

/// Grid dimensions near `target_bins` total bins, with bins as square as
/// the region aspect allows (both dims >= 4).
std::pair<std::size_t, std::size_t> density_grid_dims(const rect& region,
                                                      std::size_t target_bins);

/// Footprint of every non-pad cell at its placement position, in cell
/// order — the rects compute_density stamps. `out` is overwritten.
void collect_cell_rects(const netlist& nl, const placement& pl, std::vector<rect>& out);

/// Stamp every non-pad cell of the netlist at its placement position and
/// finalize, on the density_grid_dims(region, target_bins) grid.
density_map compute_density(const netlist& nl, const placement& pl,
                            std::size_t target_bins = 4096);

/// Same, with explicit grid dimensions.
density_map compute_density_grid(const netlist& nl, const placement& pl,
                                 std::size_t nx, std::size_t ny);

} // namespace gpf
