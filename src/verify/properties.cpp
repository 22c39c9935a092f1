#include "verify/properties.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include <complex>

#include <unistd.h>

#include "cluster/coarsen.hpp"
#include "core/metrics.hpp"
#include "core/placer.hpp"
#include "density/density_map.hpp"
#include "density/force_field.hpp"
#include "linalg/fft.hpp"
#include "model/quadratic_system.hpp"
#include "netlist/generator.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"

namespace gpf {

namespace {

std::string fmt(double v) {
    std::ostringstream os;
    os.precision(6);
    os << v;
    return os.str();
}

/// Seeded random density on a seed-varied (often non-square) grid: a mix
/// of interior rects, rects overhanging every region edge (the clipping
/// path), a bulk add_rects batch and a few point stamps — the same stamp
/// classes the placer and its hooks use.
density_map random_density(prng& rng, bool finalize = true) {
    const double w = rng.next_range(8.0, 24.0);
    const double h = rng.next_range(8.0, 24.0);
    const rect region(0, 0, w, h);
    const std::size_t nx = 8 + static_cast<std::size_t>(rng.next_below(25));
    const std::size_t ny = 8 + static_cast<std::size_t>(rng.next_below(25));
    density_map d(region, nx, ny);

    const std::size_t n_single = 10 + static_cast<std::size_t>(rng.next_below(30));
    for (std::size_t k = 0; k < n_single; ++k) {
        // Centers may fall outside the region so rects overhang (clipped).
        const point c(rng.next_range(-0.1 * w, 1.1 * w),
                      rng.next_range(-0.1 * h, 1.1 * h));
        const rect r = rect::from_center(c, rng.next_range(0.2, 0.25 * w),
                                         rng.next_range(0.2, 0.25 * h));
        d.add_rect(r, rng.next_range(0.25, 2.0));
    }
    std::vector<rect> bulk;
    const std::size_t n_bulk = 20 + static_cast<std::size_t>(rng.next_below(60));
    for (std::size_t k = 0; k < n_bulk; ++k) {
        const point c(rng.next_range(0.0, w), rng.next_range(0.0, h));
        bulk.push_back(rect::from_center(c, rng.next_range(0.1, 0.15 * w),
                                         rng.next_range(0.1, 0.15 * h)));
    }
    d.add_rects(bulk, rng.next_range(0.5, 1.5));
    const std::size_t n_points = static_cast<std::size_t>(rng.next_below(6));
    for (std::size_t k = 0; k < n_points; ++k) {
        d.add_point(point(rng.next_range(0.0, w), rng.next_range(0.0, h)),
                    rng.next_range(0.05, 0.5));
    }
    if (finalize) d.finalize();
    return d;
}

/// Small seeded circuit for the quadratic-model and placer checks. The
/// degree distribution is tilted toward high-degree nets so the star /
/// hybrid decompositions actually engage.
netlist random_circuit(prng& rng, std::size_t min_cells, std::size_t span) {
    generator_options gen;
    gen.num_cells = min_cells + rng.next_below(span);
    gen.num_nets = gen.num_cells + gen.num_cells / 8;
    gen.num_rows = std::max<std::size_t>(4, gen.num_cells / 40);
    gen.num_pads = 8 + static_cast<std::size_t>(rng.next_below(17));
    gen.frac_two_pin = 0.45;
    gen.frac_three_pin = 0.20;
    gen.tail_decay = 0.75;
    gen.max_degree = 40;
    gen.seed = rng.next_u64();
    return generate_circuit(gen);
}

placement random_placement(const netlist& nl, prng& rng) {
    placement pl = nl.initial_placement();
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        pl[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    return pl;
}

} // namespace

verify_report check_force_field_conservative(std::uint64_t seed,
                                             const property_options& opt) {
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    const density_map d = random_density(rng);
    const force_field f = compute_force_field(d);

    const std::size_t nx = f.nx(), ny = f.ny();
    if (nx < 5 || ny < 5) return report;
    const double bw = f.region().width() / static_cast<double>(nx);
    const double bh = f.region().height() / static_cast<double>(ny);

    // The continuous field is a gradient, so ∂fy/∂x − ∂fx/∂y ≡ 0; the
    // discrete field samples ∇G, so the central-difference curl carries
    // only the O(h²) truncation error of differencing those samples. The
    // density magnitude is the natural yardstick: the same truncation
    // argument bounds the divergence defect, and ∇·f = D.
    double curl_sum = 0.0;
    double density_sum = 0.0;
    for (std::size_t ix = 2; ix + 2 < nx; ++ix) {
        for (std::size_t iy = 2; iy + 2 < ny; ++iy) {
            const double curl =
                (f.fy_at(ix + 1, iy) - f.fy_at(ix - 1, iy)) / (2.0 * bw) -
                (f.fx_at(ix, iy + 1) - f.fx_at(ix, iy - 1)) / (2.0 * bh);
            curl_sum += std::abs(curl);
            density_sum += std::abs(d.density_at(ix, iy));
        }
    }
    if (density_sum <= 0.0) return report;
    const double ratio = curl_sum / density_sum;
    if (!(ratio <= opt.curl_ratio_limit)) {
        report.add("force_field",
                   "discrete curl not vanishing: Σ|curl f| = " + fmt(curl_sum) +
                       " vs Σ|D| = " + fmt(density_sum) + " (ratio " + fmt(ratio) +
                       " > limit " + fmt(opt.curl_ratio_limit) + ") on " +
                       std::to_string(nx) + "x" + std::to_string(ny) + " grid");
    }
    return report;
}

verify_report check_force_field_antisymmetry(std::uint64_t seed,
                                             const property_options& opt) {
    verify_report report;
    // Two identical stamp sequences, the second with every weight negated:
    // after finalize the densities are exact negations of each other
    // (supply is the mean demand), and eq. (9) is linear and odd in D.
    prng rng_pos(seed * 0x9e3779b97f4a7c15ULL + 2);
    prng rng_neg(seed * 0x9e3779b97f4a7c15ULL + 2);
    density_map d_pos = random_density(rng_pos, /*finalize=*/false);
    const double w = d_pos.region().width();
    const double h = d_pos.region().height();

    density_map d_neg(d_pos.region(), d_pos.nx(), d_pos.ny());
    {
        // Replay the exact stamp sequence of random_density with weights
        // negated, by consuming rng_neg identically.
        prng& rng = rng_neg;
        (void)rng.next_range(8.0, 24.0);
        (void)rng.next_range(8.0, 24.0);
        (void)rng.next_below(25);
        (void)rng.next_below(25);
        const std::size_t n_single =
            10 + static_cast<std::size_t>(rng.next_below(30));
        for (std::size_t k = 0; k < n_single; ++k) {
            const point c(rng.next_range(-0.1 * w, 1.1 * w),
                          rng.next_range(-0.1 * h, 1.1 * h));
            const rect r = rect::from_center(c, rng.next_range(0.2, 0.25 * w),
                                             rng.next_range(0.2, 0.25 * h));
            d_neg.add_rect(r, -rng.next_range(0.25, 2.0));
        }
        std::vector<rect> bulk;
        const std::size_t n_bulk = 20 + static_cast<std::size_t>(rng.next_below(60));
        for (std::size_t k = 0; k < n_bulk; ++k) {
            const point c(rng.next_range(0.0, w), rng.next_range(0.0, h));
            bulk.push_back(rect::from_center(c, rng.next_range(0.1, 0.15 * w),
                                             rng.next_range(0.1, 0.15 * h)));
        }
        d_neg.add_rects(bulk, -rng.next_range(0.5, 1.5));
        const std::size_t n_points = static_cast<std::size_t>(rng.next_below(6));
        for (std::size_t k = 0; k < n_points; ++k) {
            d_neg.add_point(point(rng.next_range(0.0, w), rng.next_range(0.0, h)),
                            -rng.next_range(0.05, 0.5));
        }
    }
    d_pos.finalize();
    d_neg.finalize();

    const force_field f_pos = compute_force_field(d_pos);
    const force_field f_neg = compute_force_field(d_neg);
    double max_f = 0.0;
    for (std::size_t i = 0; i < f_pos.fx().size(); ++i) {
        max_f = std::max({max_f, std::abs(f_pos.fx()[i]), std::abs(f_pos.fy()[i])});
    }
    const double tol = opt.antisymmetry_tol * std::max(1.0, max_f);
    for (std::size_t i = 0; i < f_pos.fx().size(); ++i) {
        const double rx = f_pos.fx()[i] + f_neg.fx()[i];
        const double ry = f_pos.fy()[i] + f_neg.fy()[i];
        if (std::abs(rx) > tol || std::abs(ry) > tol) {
            report.add("force_field",
                       "f(-D) != -f(D) at bin " + std::to_string(i) +
                           ": residual (" + fmt(rx) + ", " + fmt(ry) +
                           "), tolerance " + fmt(tol));
            if (report.total() >= 4) break;
        }
    }
    return report;
}

verify_report check_density_zero_integral(std::uint64_t seed,
                                          const property_options& opt) {
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
    const density_map d = random_density(rng);
    double integral = 0.0;
    double demand_area = 0.0;
    for (std::size_t ix = 0; ix < d.nx(); ++ix) {
        for (std::size_t iy = 0; iy < d.ny(); ++iy) {
            integral += d.density_at(ix, iy) * d.bin_area();
            demand_area += d.demand_at(ix, iy) * d.bin_area();
        }
    }
    const double tol = opt.zero_integral_tol * std::max(1.0, demand_area);
    if (!(std::abs(integral) <= tol)) {
        report.add("density_map",
                   "∫D dA = " + fmt(integral) + " after finalize (demand area " +
                       fmt(demand_area) + ", tolerance " + fmt(tol) + ")");
    }
    if (!(std::abs(d.supply_level() * d.bin_area() * static_cast<double>(d.nx()) *
                       static_cast<double>(d.ny()) -
                   demand_area) <= tol)) {
        report.add("density_map", "supply level is not the mean demand");
    }
    return report;
}

verify_report check_fft_field_matches_direct(std::uint64_t seed,
                                             const property_options& opt) {
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
    // Small, usually non-square grids: the direct reference is O(m⁴).
    const rect region(0, 0, rng.next_range(6.0, 14.0), rng.next_range(6.0, 14.0));
    const std::size_t nx = 5 + static_cast<std::size_t>(rng.next_below(8));
    const std::size_t ny = 5 + static_cast<std::size_t>(rng.next_below(8));
    density_map d(region, nx, ny);
    const std::size_t n = 5 + static_cast<std::size_t>(rng.next_below(15));
    for (std::size_t k = 0; k < n; ++k) {
        const point c(rng.next_range(0.0, region.width()),
                      rng.next_range(0.0, region.height()));
        d.add_rect(rect::from_center(c, rng.next_range(0.3, 4.0),
                                     rng.next_range(0.3, 4.0)),
                   rng.next_range(0.25, 2.0));
    }
    d.finalize();

    const force_field fft_field = compute_force_field(d);
    const force_field direct = compute_force_field_direct(d);
    double max_f = 0.0;
    for (std::size_t i = 0; i < direct.fx().size(); ++i) {
        max_f = std::max({max_f, std::abs(direct.fx()[i]), std::abs(direct.fy()[i])});
    }
    const double tol = opt.fft_vs_direct_tol * std::max(1.0, max_f);
    for (std::size_t ix = 0; ix < nx; ++ix) {
        for (std::size_t iy = 0; iy < ny; ++iy) {
            const double dx = fft_field.fx_at(ix, iy) - direct.fx_at(ix, iy);
            const double dy = fft_field.fy_at(ix, iy) - direct.fy_at(ix, iy);
            if (std::abs(dx) > tol || std::abs(dy) > tol) {
                report.add("force_field",
                           "FFT vs direct mismatch at (" + std::to_string(ix) +
                               ", " + std::to_string(iy) + "): (" + fmt(dx) + ", " +
                               fmt(dy) + "), tolerance " + fmt(tol));
                if (report.total() >= 4) return report;
            }
        }
    }
    return report;
}

verify_report check_r2c_transform_roundtrip(std::uint64_t seed,
                                            const property_options& opt) {
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 8);
    // Seed-varied power-of-two shapes, including strongly rectangular
    // ones (the convolver's padded grids are 2n0 x 2n1, rarely square).
    const std::size_t n0 = std::size_t{1} << (2 + rng.next_below(5));
    const std::size_t n1 = std::size_t{1} << (2 + rng.next_below(5));
    std::vector<double> data(n0 * n1);
    double max_abs = 0.0;
    for (double& v : data) {
        v = rng.next_range(-10.0, 10.0);
        max_abs = std::max(max_abs, std::abs(v));
    }

    std::vector<std::complex<double>> half = fft_2d_r2c(data, n0, n1);
    const std::size_t hw = n1 / 2 + 1;
    if (half.size() != n0 * hw) {
        report.add("fft", "r2c half spectrum has size " +
                              std::to_string(half.size()) + ", expected " +
                              std::to_string(n0 * hw));
        return report;
    }
    // DC and Nyquist columns of a real signal must be (conjugate-)
    // self-mirrored: rows i and n0-i conjugate at j = 0 and j = n1/2.
    for (const std::size_t j : {std::size_t{0}, n1 / 2}) {
        for (std::size_t i = 1; i < n0; ++i) {
            const std::complex<double> a = half[i * hw + j];
            const std::complex<double> b = half[(n0 - i) * hw + j];
            if (std::abs(a - std::conj(b)) >
                1e-9 * std::max(1.0, std::abs(a))) {
                report.add("fft", "half spectrum breaks Hermitian symmetry "
                                  "at (" + std::to_string(i) + ", " +
                                      std::to_string(j) + ")");
                if (report.total() >= 4) return report;
            }
        }
    }

    const std::vector<double> back = fft_2d_c2r(half, n0, n1);
    const double tol = opt.r2c_roundtrip_tol * std::max(1.0, max_abs);
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (!(std::abs(back[i] - data[i]) <= tol)) {
            report.add("fft", "r2c∘c2r roundtrip error " +
                                  fmt(back[i] - data[i]) + " at index " +
                                  std::to_string(i) + " (tolerance " + fmt(tol) +
                                  ", " + std::to_string(n0) + "x" +
                                  std::to_string(n1) + ")");
            if (report.total() >= 4) return report;
        }
    }
    return report;
}

verify_report check_r2c_convolution_matches_complex(std::uint64_t seed,
                                                    const property_options& opt) {
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 9);
    // Arbitrary (non-power-of-two) shapes exercise the padding logic.
    const std::size_t n0 = 3 + rng.next_below(14);
    const std::size_t n1 = 3 + rng.next_below(14);
    std::vector<double> data(n0 * n1);
    for (double& v : data) v = rng.next_range(-1.0, 1.0);
    std::vector<double> kernel((2 * n0 - 1) * (2 * n1 - 1));
    for (double& v : kernel) v = rng.next_range(-1.0, 1.0);

    const std::vector<double> via_r2c = convolve_2d(data, n0, n1, kernel);

    // Full complex wrap-around reference: scatter both arrays onto the
    // cyclic p0 x p1 grid, transform, multiply, invert — the PR-8 path
    // the packed implementation replaced.
    const std::size_t p0 = next_power_of_two(2 * n0 - 1);
    const std::size_t p1 = next_power_of_two(2 * n1 - 1);
    std::vector<std::complex<double>> da(p0 * p1), ka(p0 * p1);
    for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j) {
            da[i * p1 + j] = {data[i * n1 + j], 0.0};
        }
    }
    // Tap (m, l) carries offset (m - (n0-1), l - (n1-1)); it lands at that
    // offset mod P, exactly as convolve_2d scatters it.
    for (std::size_t m = 0; m < 2 * n0 - 1; ++m) {
        const std::size_t wi = (m + p0 - n0 + 1) % p0;
        for (std::size_t l = 0; l < 2 * n1 - 1; ++l) {
            const std::size_t wj = (l + p1 - n1 + 1) % p1;
            ka[wi * p1 + wj] += kernel[m * (2 * n1 - 1) + l];
        }
    }
    fft_2d(da, p0, p1, false);
    fft_2d(ka, p0, p1, false);
    for (std::size_t i = 0; i < da.size(); ++i) da[i] *= ka[i];
    fft_2d(da, p0, p1, true);

    double max_out = 0.0;
    for (const double v : via_r2c) max_out = std::max(max_out, std::abs(v));
    const double tol = opt.r2c_vs_complex_tol * std::max(1.0, max_out);
    for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j) {
            const double diff =
                via_r2c[i * n1 + j] - da[i * p1 + j].real();
            if (!(std::abs(diff) <= tol)) {
                report.add("fft", "r2c vs complex convolution mismatch " +
                                      fmt(diff) + " at (" + std::to_string(i) +
                                      ", " + std::to_string(j) + "), tolerance " +
                                      fmt(tol));
                if (report.total() >= 4) return report;
            }
        }
    }
    return report;
}

verify_report check_net_model_equivalence(std::uint64_t seed,
                                          const property_options& opt) {
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
    const netlist nl = random_circuit(rng, 80, 120);
    const placement start = random_placement(nl, rng);

    // The star center is a Schur complement away from the 1/k clique, so
    // with linearization off the three models define the *same* quadratic
    // objective over the cell variables and must solve to the same
    // placement (up to the CG residual bound, see property_options).
    cg_options cg;
    cg.tolerance = opt.model_cg_tolerance;

    placement solved[3];
    const net_model_kind kinds[3] = {net_model_kind::clique, net_model_kind::star,
                                     net_model_kind::hybrid};
    for (int m = 0; m < 3; ++m) {
        net_model_options model;
        model.kind = kinds[m];
        model.linearize = false;
        model.star_threshold = 8; // engage star edges for the mid-degree tail
        quadratic_system sys(nl, model);
        sys.assemble(start);
        solved[m] = sys.solve(start, {}, {}, cg);
    }

    const double scale = nl.region().width() + nl.region().height();
    const double tol = opt.model_position_tol_fraction * scale;
    const char* names[3] = {"clique", "star", "hybrid"};
    for (int m = 1; m < 3; ++m) {
        for (cell_id i = 0; i < nl.num_cells(); ++i) {
            if (nl.cell_at(i).fixed) continue;
            const double dx = solved[m][i].x - solved[0][i].x;
            const double dy = solved[m][i].y - solved[0][i].y;
            if (std::abs(dx) > tol || std::abs(dy) > tol) {
                report.add(nl.cell_at(i).name,
                           std::string(names[m]) + " vs clique solution differs by (" +
                               fmt(dx) + ", " + fmt(dy) + "), tolerance " + fmt(tol));
                if (report.total() >= 4) return report;
            }
        }
    }
    return report;
}

verify_report check_coarsening_conservation(std::uint64_t seed,
                                            const property_options& opt) {
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 6);
    const netlist nl = random_circuit(rng, 250, 350);

    coarsen_options copt;
    copt.min_coarse_cells = 30; // let the chain reach real depth
    const cluster_hierarchy hierarchy =
        build_hierarchy(nl, opt.hierarchy_levels, copt);
    if (hierarchy.empty()) {
        report.add("hierarchy", "coarsening produced no levels for " +
                                    std::to_string(nl.num_cells()) + " cells");
        return report;
    }
    const netlist* fine = &nl;
    for (std::size_t k = 0; k < hierarchy.depth(); ++k) {
        const cluster_level& level = hierarchy.levels[k];
        const verify_report lvl =
            verify_coarsening(*fine, level.coarse, level.parent);
        for (const violation& v : lvl.violations()) {
            report.add("level " + std::to_string(k) + "/" + v.where, v.message);
        }
        // Pin accounting recomputed from the stored tallies.
        if (level.fine_pins !=
            level.coarse.num_pins() + level.merged_pins + level.dropped_pins) {
            report.add("level " + std::to_string(k),
                       "pin accounting broken: " + std::to_string(level.fine_pins) +
                           " fine != " + std::to_string(level.coarse.num_pins()) +
                           " coarse + " + std::to_string(level.merged_pins) +
                           " merged + " + std::to_string(level.dropped_pins) +
                           " dropped");
        }
        fine = &level.coarse;
    }
    return report;
}

verify_report check_stop_best_monotonic(std::uint64_t seed,
                                        const property_options& opt) {
    (void)opt;
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    const netlist nl = random_circuit(rng, 120, 180);

    placer_options popt;
    popt.max_iterations = 40;
    popt.density_bins = 1024;

    // Poison CG from a seed-varied visit on: every later transformation
    // fails its health check, so the ladder must walk retry → rollback →
    // stop_best and hand back the best-scoring healthy placement.
    struct disarm_guard {
        ~disarm_guard() { fault_injector::instance().disarm(); }
    } guard;
    const std::size_t fire_at = 6 + rng.next_below(10);
    fault_injector::instance().arm(fault_site::cg_nan, fire_at, seed, 100000);

    placer p(nl, popt);
    std::vector<placement> accepted;
    p.set_step_callback([&](const iteration_stats&, const placement& pl) {
        accepted.push_back(pl);
        return true;
    });
    const placement returned = p.run();
    fault_injector::instance().disarm();

    if (!p.degraded()) {
        report.add("placer", "armed cg_nan fault did not degrade the run "
                             "(fire_at=" + std::to_string(fire_at) + ")");
        return report;
    }
    bool stopped_best = false;
    for (const recovery_event& ev : p.recovery_log()) {
        if (ev.action == recovery_action::stop_best) stopped_best = true;
    }
    if (!stopped_best) {
        report.add("placer", "recovery log has no stop_best rung");
        return report;
    }
    if (accepted.empty() || p.history().size() != accepted.size()) {
        report.add("placer",
                   "history (" + std::to_string(p.history().size()) +
                       ") and accepted placements (" +
                       std::to_string(accepted.size()) + ") out of step");
        return report;
    }

    // Recompute the placer's best-so-far score from the recorded stats
    // (overflow weighted 4:1, both normalized by the first healthy
    // iteration) and demand the returned placement IS the argmin — i.e.
    // stop-best is never worse than any snapshot it could have kept.
    constexpr double kTiny = 1e-12;
    const double norm_overflow = std::max(p.history().front().overflow_area, kTiny);
    const double norm_hpwl = std::max(p.history().front().hpwl, kTiny);
    std::size_t best_index = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < p.history().size(); ++i) {
        const iteration_stats& stats = p.history()[i];
        const double score = 4.0 * stats.overflow_area / norm_overflow +
                             stats.hpwl / norm_hpwl;
        if (score < best_score) {
            best_score = score;
            best_index = i;
        }
    }
    const placement& best = accepted[best_index];
    if (returned.size() != best.size()) {
        report.add("placer", "returned placement has wrong size");
        return report;
    }
    for (cell_id i = 0; i < returned.size(); ++i) {
        if (returned[i].x != best[i].x || returned[i].y != best[i].y) {
            report.add("placer",
                       "returned placement differs from the best-scoring "
                       "healthy iteration " +
                           std::to_string(best_index) + " at cell " +
                           std::to_string(i));
            return report;
        }
    }
    return report;
}

verify_report check_checkpoint_resume_equivalence(std::uint64_t seed,
                                                  const property_options& opt) {
    (void)opt;
    verify_report report;
    prng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const netlist nl = random_circuit(rng, 90, 140);

    placer_options popt;
    popt.max_iterations = 12;
    popt.plateau_window = 0;
    popt.density_bins = 1024;

    // Reference: the uninterrupted run.
    placer reference(nl, popt);
    const placement uninterrupted = reference.run();
    const std::size_t total = reference.history().size();
    if (total == 0) {
        report.add("reference", "run recorded no transformations");
        return report;
    }

    // Interrupted run: checkpoint every accepted transformation, cut the
    // loop at a seed-varied point (the in-process stand-in for a SIGKILL
    // there — the checkpoint file is all a restarted process would have).
    const std::size_t kill_at = 1 + rng.next_below(total);
    // Process-unique: concurrent test processes must not share the file.
    const std::string ckpt =
        (std::filesystem::temp_directory_path() /
         ("gpf_resume_property_" + std::to_string(::getpid()) + "_" +
          std::to_string(seed) + ".ckpt"))
            .string();
    struct cleanup_guard {
        std::string path;
        ~cleanup_guard() {
            std::error_code ec;
            std::filesystem::remove(path, ec);
            std::filesystem::remove(path + ".prev", ec);
            std::filesystem::remove(path + ".tmp", ec);
        }
    } guard{ckpt};

    popt.checkpoint_path = ckpt;
    placer interrupted(nl, popt);
    interrupted.set_step_callback(
        [kill_at](const iteration_stats& stats, const placement&) {
            return stats.iteration < kill_at;
        });
    (void)interrupted.run();

    placer resumed(nl, popt);
    placement out;
    try {
        out = resumed.resume(ckpt);
    } catch (const checkpoint_error& e) {
        report.add("resume", std::string("kill_at=") + std::to_string(kill_at) +
                                 "/" + std::to_string(total) + ": " + e.what());
        return report;
    }

    if (out.size() != uninterrupted.size()) {
        report.add("resume", "placement size mismatch");
        return report;
    }
    for (cell_id i = 0; i < out.size(); ++i) {
        if (out[i].x != uninterrupted[i].x || out[i].y != uninterrupted[i].y) {
            report.add("resume",
                       "cell " + std::to_string(i) +
                           " diverged after resume at transformation " +
                           std::to_string(kill_at) + "/" + std::to_string(total) +
                           ": (" + fmt(out[i].x) + ", " + fmt(out[i].y) +
                           ") != (" + fmt(uninterrupted[i].x) + ", " +
                           fmt(uninterrupted[i].y) + ")");
            return report;
        }
    }
    if (resumed.history().size() != total) {
        report.add("resume", "history length " +
                                 std::to_string(resumed.history().size()) +
                                 " != uninterrupted " + std::to_string(total));
        return report;
    }
    for (std::size_t k = 0; k < total; ++k) {
        const iteration_stats& a = resumed.history()[k];
        const iteration_stats& b = reference.history()[k];
        if (a.hpwl != b.hpwl || a.overflow_area != b.overflow_area) {
            report.add("resume", "history diverged at transformation " +
                                     std::to_string(k) + " (kill_at=" +
                                     std::to_string(kill_at) + ")");
            return report;
        }
    }
    if (resumed.converged() != reference.converged() ||
        resumed.degraded() != reference.degraded()) {
        report.add("resume", "converged/degraded flags diverged");
    }
    return report;
}

const std::vector<property_check>& property_catalogue() {
    static const std::vector<property_check> catalogue = {
        {"force_field_conservative", &check_force_field_conservative},
        {"force_field_antisymmetry", &check_force_field_antisymmetry},
        {"density_zero_integral", &check_density_zero_integral},
        {"fft_field_matches_direct", &check_fft_field_matches_direct},
        {"r2c_transform_roundtrip", &check_r2c_transform_roundtrip},
        {"r2c_convolution_matches_complex",
         &check_r2c_convolution_matches_complex},
        {"net_model_equivalence", &check_net_model_equivalence},
        {"coarsening_conservation", &check_coarsening_conservation},
        {"stop_best_monotonic", &check_stop_best_monotonic},
        {"checkpoint_resume_equivalence", &check_checkpoint_resume_equivalence},
    };
    return catalogue;
}

} // namespace gpf
