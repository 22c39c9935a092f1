#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/placer.hpp"
#include "density/empty_square.hpp"
#include "netlist/generator.hpp"
#include "util/logging.hpp"
#include "util/prng.hpp"

namespace gpf {
namespace {

netlist medium_circuit(std::uint64_t seed = 5) {
    generator_options opt;
    opt.num_cells = 300;
    opt.num_nets = 330;
    opt.num_rows = 10;
    opt.num_pads = 32;
    opt.seed = seed;
    return generate_circuit(opt);
}

TEST(Placer, RunSpreadsThePile) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    placer p(nl, opt);
    const placement pl = p.run();

    const placement_quality start_q =
        evaluate_placement(nl, nl.centered_placement(), 1024);
    const placement_quality end_q = evaluate_placement(nl, pl, 1024);
    EXPECT_LT(end_q.max_density, start_q.max_density / 3.0);
    EXPECT_LT(end_q.overlap_area, start_q.overlap_area / 3.0);
    EXPECT_DOUBLE_EQ(end_q.in_region, 1.0);
    EXPECT_FALSE(p.history().empty());
}

TEST(Placer, HistoryTracksIterations) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    opt.max_iterations = 7;
    opt.plateau_window = 0;
    placer p(nl, opt);
    p.run();
    EXPECT_EQ(p.history().size(), 7u);
    for (std::size_t i = 0; i < p.history().size(); ++i) {
        EXPECT_EQ(p.history()[i].iteration, i);
        EXPECT_GT(p.history()[i].hpwl, 0.0);
    }
}

TEST(Placer, PlateauStopIsReportedAsPlateau) {
    // A tolerance of 1 means overflow never counts as improving, so the
    // run stops on the plateau after plateau_window transformations. The
    // closing line must name that reason, not the iteration cap.
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    opt.max_iterations = 50;
    opt.plateau_window = 2;
    opt.plateau_tolerance = 1.0;
    std::vector<std::string> lines;
    const log_level previous = get_log_level();
    set_log_level(log_level::info);
    set_log_sink([&](log_level, const std::string& message) { lines.push_back(message); });
    placer p(nl, opt);
    p.run();
    set_log_sink(nullptr);
    set_log_level(previous);

    EXPECT_EQ(p.history().size(), 2u);
    std::string finished;
    for (const std::string& line : lines) {
        if (line.find("placer finished") != std::string::npos) finished = line;
    }
    ASSERT_FALSE(finished.empty());
    EXPECT_NE(finished.find("(overflow plateau)"), std::string::npos) << finished;
    EXPECT_EQ(finished.find("iteration cap"), std::string::npos) << finished;
}

TEST(Placer, StepCallbackCanStopEarly) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    placer p(nl, opt);
    std::size_t calls = 0;
    p.set_step_callback([&](const iteration_stats&, const placement&) {
        return ++calls < 3;
    });
    p.run();
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(p.history().size(), 3u);
}

TEST(Placer, TransformKeepsFixedCells) {
    const netlist nl = medium_circuit();
    placer p(nl, {});
    placement pl = p.run();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (!nl.cell_at(i).fixed) continue;
        EXPECT_EQ(pl[i], nl.cell_at(i).position);
    }
}

TEST(Placer, ClampKeepsCellsInsideRegion) {
    const netlist nl = medium_circuit();
    placer p(nl, {});
    const placement pl = p.run();
    EXPECT_DOUBLE_EQ(in_region_fraction(nl, pl), 1.0);
}

TEST(Placer, DeterministicAcrossRuns) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    placer p1(nl, opt);
    placer p2(nl, opt);
    const placement a = p1.run();
    const placement b = p2.run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
        EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
    }
}

TEST(Placer, FastModeSpreadsFasterPerIteration) {
    // K = 1.0 must reduce the density overflow faster than K = 0.2 over
    // the same number of transformations (the paper's speed/quality knob).
    const netlist nl = medium_circuit();
    const auto overflow_after = [&](double k, std::size_t iters) {
        placer_options opt;
        opt.density_bins = 1024;
        opt.force_scale_k = k;
        opt.max_iterations = iters;
        opt.min_iterations = iters;
        opt.plateau_window = 0;
        placer p(nl, opt);
        p.run();
        return p.history().back().overflow_area;
    };
    EXPECT_LT(overflow_after(1.0, 8), overflow_after(0.2, 8));
}

TEST(Placer, DensityHookInfluencesResult) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;

    placer plain(nl, opt);
    const placement base = plain.run();

    // Hook declares the left half of the chip maximally congested.
    placer hooked(nl, opt);
    hooked.set_density_hook([&](density_map& d, const placement&) {
        std::vector<double> extra(d.nx() * d.ny(), 0.0);
        for (std::size_t ix = 0; ix < d.nx() / 2; ++ix)
            for (std::size_t iy = 0; iy < d.ny(); ++iy) extra[ix * d.ny() + iy] = 2.0;
        d.add_field(extra);
    });
    const placement shifted = hooked.run();

    // Centroid of movable cells must move right.
    double cx_base = 0.0;
    double cx_shifted = 0.0;
    std::size_t m = 0;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        cx_base += base[i].x;
        cx_shifted += shifted[i].x;
        ++m;
    }
    EXPECT_GT(cx_shifted / static_cast<double>(m), cx_base / static_cast<double>(m));
}

TEST(Placer, WeightHookRunsEveryTransformation) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    opt.max_iterations = 5;
    opt.plateau_window = 0;
    placer p(nl, opt);
    std::size_t calls = 0;
    p.set_weight_hook([&](const placement&) { ++calls; });
    p.run();
    // One call for the initial wire-length solve + one per transformation.
    EXPECT_EQ(calls, 6u);
}

TEST(Placer, RunFromWithoutResetSkipsGlobalSolve) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    opt.max_iterations = 3;
    opt.plateau_window = 0;
    opt.min_iterations = 3;
    opt.wire_relax_interval = 0; // ECO-style locality: no global relaxation
    placer p(nl, opt);

    // Start from a hand-made placement far from the wire-length optimum;
    // without reset the first transformation must start from *this*
    // placement (ECO contract), so cells stay in its vicinity.
    placement start = nl.centered_placement();
    prng rng(8);
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        start[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    const placement out = p.run_from(start, /*reset_forces=*/false);
    double mean_disp = 0.0;
    std::size_t m = 0;
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        mean_disp += distance(out[i], start[i]);
        ++m;
    }
    mean_disp /= static_cast<double>(m);
    // A full re-place would move cells by a large fraction of the chip.
    EXPECT_LT(mean_disp, 0.25 * (r.width() + r.height()) / 2.0);
}

TEST(Placer, PaperLiteralModeStillSpreads) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    opt.mode = placer_options::force_mode::accumulate;
    opt.scaling = placer_options::force_scaling::paper_normalized;
    opt.force_scale_k = 0.02;
    opt.max_iterations = 120;
    placer p(nl, opt);
    const placement pl = p.run();
    const placement_quality q = evaluate_placement(nl, pl, 1024);
    const placement_quality pile =
        evaluate_placement(nl, nl.centered_placement(), 1024);
    EXPECT_LT(q.max_density, pile.max_density / 2.0);
}

TEST(Placer, StoppingCriterionUsesPaperRule) {
    const netlist nl = medium_circuit();
    placer_options opt;
    opt.density_bins = 1024;
    opt.plateau_window = 0; // only the paper criterion can stop the run
    opt.max_iterations = 400;
    placer p(nl, opt);
    const placement pl = p.run();
    if (p.converged()) {
        const density_map d = compute_density(nl, pl, opt.density_bins);
        EXPECT_TRUE(placement_is_spread(d, p.average_cell_area(), opt.spread_factor));
    }
}

TEST(Placer, AverageCellArea) {
    const netlist nl = medium_circuit();
    placer p(nl, {});
    EXPECT_NEAR(p.average_cell_area(),
                nl.movable_area() / static_cast<double>(nl.num_movable()), 1e-12);
}

} // namespace
} // namespace gpf
