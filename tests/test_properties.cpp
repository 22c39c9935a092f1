// Property-based tests: invariants that must hold across randomized inputs
// and parameter sweeps, complementing the per-module example-based tests.
#include <gtest/gtest.h>

#include <cmath>

#include "gpf.hpp"

namespace gpf {
namespace {

// ---------------------------------------------------------------------------
// HPWL invariances
// ---------------------------------------------------------------------------

class HpwlProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HpwlProperties, TranslationInvariant) {
    generator_options opt;
    opt.num_cells = 120;
    opt.num_nets = 130;
    opt.num_rows = 6;
    opt.num_pads = 12;
    opt.seed = GetParam();
    const netlist nl = generate_circuit(opt);

    prng rng(GetParam() ^ 0x5555);
    placement pl = nl.initial_placement();
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        pl[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    const double base = total_hpwl(nl, pl);
    placement shifted = pl;
    for (point& p : shifted) p += point(13.7, -4.2);
    EXPECT_NEAR(total_hpwl(nl, shifted), base, 1e-9 * std::max(1.0, base));
}

TEST_P(HpwlProperties, NonNegativeAndZeroForCoincident) {
    generator_options opt;
    opt.num_cells = 60;
    opt.num_nets = 66;
    opt.num_rows = 4;
    opt.num_pads = 0;
    opt.pad_net_fraction = 0.0;
    opt.seed = GetParam();
    const netlist nl = generate_circuit(opt);
    // All pins at one point (no offsets considered: build placement that
    // cancels offsets is hard, so just assert >= 0 and <= perimeter bound).
    const placement pile(nl.num_cells(), nl.region().center());
    const double wl = total_hpwl(nl, pile);
    EXPECT_GE(wl, 0.0);
    // Upper bound: every net's HPWL <= region half-perimeter + max offsets.
    EXPECT_LE(wl, static_cast<double>(nl.num_nets()) *
                      (nl.region().half_perimeter() + 20.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpwlProperties, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Density conservation under random rectangles
// ---------------------------------------------------------------------------

class DensityProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DensityProperties, AreaConservedForInteriorRects) {
    prng rng(GetParam());
    density_map d(rect(0, 0, 20, 12), 32, 16);
    double expected = 0.0;
    for (int k = 0; k < 40; ++k) {
        const double x0 = rng.next_range(0.0, 16.0);
        const double y0 = rng.next_range(0.0, 9.0);
        const double w = rng.next_range(0.1, 4.0);
        const double h = rng.next_range(0.1, 3.0);
        d.add_rect(rect(x0, y0, x0 + w, y0 + h));
        expected += w * h;
    }
    double total = 0.0;
    for (std::size_t ix = 0; ix < d.nx(); ++ix)
        for (std::size_t iy = 0; iy < d.ny(); ++iy)
            total += d.demand_at(ix, iy) * d.bin_area();
    EXPECT_NEAR(total, expected, 1e-9 * expected);
}

TEST_P(DensityProperties, FinalizedDensityAlwaysZeroMean) {
    prng rng(GetParam() ^ 0xbeef);
    density_map d(rect(0, 0, 10, 10), 16, 16);
    for (int k = 0; k < 25; ++k) {
        d.add_rect(rect::from_center(point(rng.next_range(0, 10), rng.next_range(0, 10)),
                                     rng.next_range(0.2, 3.0), rng.next_range(0.2, 3.0)));
    }
    d.finalize();
    double sum = 0.0;
    for (std::size_t ix = 0; ix < 16; ++ix)
        for (std::size_t iy = 0; iy < 16; ++iy) sum += d.density_at(ix, iy);
    EXPECT_NEAR(sum, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityProperties, ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Legalization invariants across seeds
// ---------------------------------------------------------------------------

class LegalizationProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LegalizationProperties, AlwaysLegalAndInRegion) {
    generator_options opt;
    opt.num_cells = 180;
    opt.num_nets = 200;
    opt.num_rows = 8;
    opt.num_pads = 16;
    opt.target_utilization = 0.7;
    opt.seed = GetParam();
    const netlist nl = generate_circuit(opt);

    // Arbitrary (even terrible) global placements must legalize.
    prng rng(GetParam() * 7 + 1);
    placement global = nl.initial_placement();
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        global[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    placement legal;
    legalize(nl, global, legal);
    EXPECT_NEAR(total_overlap_area(nl, legal), 0.0, 1e-6);
    EXPECT_DOUBLE_EQ(in_region_fraction(nl, legal), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LegalizationProperties,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Placer invariants across the suite
// ---------------------------------------------------------------------------

class PlacerSuiteSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PlacerSuiteSweep, EndToEndQuality) {
    const netlist nl =
        make_suite_circuit(suite_circuit_by_name(GetParam()), 0.06, 2024);
    placer_options opt;
    opt.max_iterations = 120;
    placer p(nl, opt);
    placement legal;
    legalize(nl, p.run(), legal);

    EXPECT_NEAR(total_overlap_area(nl, legal), 0.0, 1e-6);
    EXPECT_DOUBLE_EQ(in_region_fraction(nl, legal), 1.0);

    // Quality: within 2x of the GORDIAN baseline on the same input.
    placement gordian_legal;
    legalize(nl, gordian_place(nl), gordian_legal);
    EXPECT_LT(total_hpwl(nl, legal), 2.0 * total_hpwl(nl, gordian_legal));
}

INSTANTIATE_TEST_SUITE_P(Circuits, PlacerSuiteSweep,
                         ::testing::Values("fract", "primary1", "struct", "primary2",
                                           "biomed"));

// ---------------------------------------------------------------------------
// STA monotonicity: stretching a placement cannot reduce the longest path
// ---------------------------------------------------------------------------

class StaProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaProperties, ScalingUpNeverReducesDelay) {
    generator_options opt;
    opt.num_cells = 150;
    opt.num_nets = 170;
    opt.num_rows = 6;
    opt.num_pads = 16;
    opt.seed = GetParam();
    const netlist nl = generate_circuit(opt);
    const timing_graph graph(nl);
    const timing_config cfg;

    prng rng(GetParam() + 5);
    placement pl = nl.initial_placement();
    const rect r = nl.region();
    const point c = r.center();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        pl[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    placement stretched = pl;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        stretched[i] = c + (stretched[i] - c) * 1.5;
    }
    const double base = run_sta(graph, pl, cfg).max_delay;
    const double big = run_sta(graph, stretched, cfg).max_delay;
    // Fixed pads keep some nets from scaling exactly, but stretching all
    // movable cells outward cannot shorten every net of the longest path.
    EXPECT_GE(big, base * 0.999);
}

TEST_P(StaProperties, WeightingLeavesSlacksFiniteOnTimedNets) {
    generator_options opt;
    opt.num_cells = 120;
    opt.num_nets = 140;
    opt.num_rows = 6;
    opt.num_pads = 12;
    opt.seed = GetParam();
    netlist nl = generate_circuit(opt);
    const timing_graph graph(nl);
    const sta_result res = run_sta(graph, nl.centered_placement(), timing_config{});
    for (net_id ni = 0; ni < nl.num_nets(); ++ni) {
        const net& n = nl.net_at(ni);
        if (n.has_driver() && n.degree() <= 60 && n.degree() >= 2) {
            EXPECT_TRUE(std::isfinite(res.net_slack[ni])) << n.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaProperties, ::testing::Values(7, 8, 9));

// ---------------------------------------------------------------------------
// Force-field superposition (linearity in the density)
// ---------------------------------------------------------------------------

TEST(ForceFieldProperties, SuperpositionHolds) {
    // field(D1 + D2) == field(D1) + field(D2): eq. (9) is linear in D.
    const rect region(0, 0, 12, 12);
    density_map d1(region, 12, 12);
    d1.add_rect(rect(2, 2, 4, 4), 2.0);
    density_map d2(region, 12, 12);
    d2.add_rect(rect(8, 7, 10, 10), 1.5);
    density_map both(region, 12, 12);
    both.add_rect(rect(2, 2, 4, 4), 2.0);
    both.add_rect(rect(8, 7, 10, 10), 1.5);
    d1.finalize();
    d2.finalize();
    both.finalize();

    const force_field f1 = compute_force_field(d1);
    const force_field f2 = compute_force_field(d2);
    const force_field fb = compute_force_field(both);
    for (std::size_t ix = 0; ix < 12; ++ix) {
        for (std::size_t iy = 0; iy < 12; ++iy) {
            EXPECT_NEAR(fb.fx_at(ix, iy), f1.fx_at(ix, iy) + f2.fx_at(ix, iy), 1e-9);
            EXPECT_NEAR(fb.fy_at(ix, iy), f1.fy_at(ix, iy) + f2.fy_at(ix, iy), 1e-9);
        }
    }
}

TEST(ForceFieldProperties, DivergenceMatchesDensity) {
    // ∇·f = D: central finite differences of the discrete field reproduce
    // the density in the grid interior (up to discretization error).
    const rect region(0, 0, 16, 16);
    density_map d(region, 16, 16);
    d.add_rect(rect(5, 5, 11, 11), 1.0);
    d.finalize();
    const force_field f = compute_force_field(d);

    double err = 0.0;
    double ref = 0.0;
    for (std::size_t ix = 2; ix < 14; ++ix) {
        for (std::size_t iy = 2; iy < 14; ++iy) {
            const double div = (f.fx_at(ix + 1, iy) - f.fx_at(ix - 1, iy)) / 2.0 +
                               (f.fy_at(ix, iy + 1) - f.fy_at(ix, iy - 1)) / 2.0;
            err += std::abs(div - d.density_at(ix, iy));
            ref += std::abs(d.density_at(ix, iy));
        }
    }
    // Discretization error of the central difference at the box edges is
    // significant; require the aggregate error below 40% of the signal.
    EXPECT_LT(err, 0.4 * ref);
}

// ---------------------------------------------------------------------------
// Net model sweep: all models solve the same circuit sanely
// ---------------------------------------------------------------------------

class NetModelSweep : public ::testing::TestWithParam<net_model_kind> {};

TEST_P(NetModelSweep, PlacerWorksWithEveryNetModel) {
    generator_options gen;
    gen.num_cells = 150;
    gen.num_nets = 170;
    gen.num_rows = 6;
    gen.num_pads = 16;
    gen.seed = 91;
    const netlist nl = generate_circuit(gen);

    placer_options opt;
    opt.net_model.kind = GetParam();
    opt.max_iterations = 60;
    placer p(nl, opt);
    placement legal;
    legalize(nl, p.run(), legal);
    EXPECT_NEAR(total_overlap_area(nl, legal), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Kinds, NetModelSweep,
                         ::testing::Values(net_model_kind::clique, net_model_kind::star,
                                           net_model_kind::hybrid));

// ---------------------------------------------------------------------------
// Threaded kernels are EXACTLY serial (not just within tolerance)
// ---------------------------------------------------------------------------

class ThreadedKernelProperties : public ::testing::TestWithParam<std::uint64_t> {
protected:
    // Runs fn at 1 thread and at `threads`, requiring bitwise equality.
    template <class Fn>
    static void expect_exact(Fn&& fn, std::size_t threads) {
        thread_pool& pool = thread_pool::instance();
        const std::size_t previous = pool.num_threads();
        pool.set_num_threads(1);
        const auto serial = fn();
        pool.set_num_threads(threads);
        const auto threaded = fn();
        pool.set_num_threads(previous);
        ASSERT_EQ(serial.size(), threaded.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(serial[i], threaded[i]) << "index " << i;
        }
    }
};

TEST_P(ThreadedKernelProperties, SpmvMatchesSerialExactly) {
    prng rng(GetParam() * 2654435761u + 1);
    const std::size_t n = 200 + static_cast<std::size_t>(rng.next_range(0.0, 600.0));
    coo_builder builder(n);
    for (std::size_t i = 0; i < n; ++i) {
        builder.add_diagonal(i, 4.0 + rng.next_range(0.0, 2.0));
        for (int k = 0; k < 6; ++k) {
            const auto j = static_cast<std::size_t>(
                rng.next_range(0.0, static_cast<double>(n) - 0.5));
            builder.add(i, std::min(j, n - 1), rng.next_range(-1.0, 1.0));
        }
    }
    const sliced_matrix a = builder.build();
    std::vector<double> x(n);
    for (double& v : x) v = rng.next_range(-10.0, 10.0);

    expect_exact(
        [&] {
            std::vector<double> y;
            a.multiply(x, y);
            return y;
        },
        2 + GetParam() % 7);
}

TEST_P(ThreadedKernelProperties, Fft2dMatchesSerialExactly) {
    prng rng(GetParam() ^ 0xf17f17);
    const std::size_t n0 = std::size_t{1} << (3 + GetParam() % 3); // 8..32
    const std::size_t n1 = std::size_t{1} << (3 + (GetParam() / 3) % 3);
    std::vector<std::complex<double>> data(n0 * n1);
    for (auto& c : data) {
        c = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
    }
    const bool inverse = (GetParam() % 2) == 0;

    expect_exact(
        [&] {
            auto a = data;
            fft_2d(a, n0, n1, inverse);
            std::vector<double> flat;
            flat.reserve(2 * a.size());
            for (const auto& c : a) {
                flat.push_back(c.real());
                flat.push_back(c.imag());
            }
            return flat;
        },
        2 + GetParam() % 7);
}

TEST_P(ThreadedKernelProperties, ConvolutionMatchesSerialExactly) {
    prng rng(GetParam() + 0xabcd);
    const std::size_t n0 = 16;
    const std::size_t n1 = 8;
    std::vector<double> data(n0 * n1);
    std::vector<double> kernel((2 * n0 - 1) * (2 * n1 - 1));
    for (double& v : data) v = rng.next_range(-2.0, 2.0);
    for (double& v : kernel) v = rng.next_range(-1.0, 1.0);

    expect_exact([&] { return convolve_2d(data, n0, n1, kernel); },
                 2 + GetParam() % 7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedKernelProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace gpf
