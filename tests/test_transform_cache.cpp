// The cache contract of the transformation-loop hot path (DESIGN.md §7):
// every iteration-persistent cache — the spectral_convolver's kernel
// spectra, the quadratic system's symbolic CSR pattern, the placer's
// density / calculator / workspace reuse — must be invisible in the
// results. A reused object produces BITWISE identical output to a freshly
// constructed one, and the full placer produces bitwise identical
// placements with iteration_cache on or off, at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "gpf.hpp"

namespace gpf {
namespace {

class scoped_threads {
public:
    explicit scoped_threads(std::size_t n)
        : previous_(thread_pool::instance().num_threads()) {
        thread_pool::instance().set_num_threads(n);
    }
    ~scoped_threads() { thread_pool::instance().set_num_threads(previous_); }

private:
    std::size_t previous_;
};

netlist test_circuit(std::size_t cells, std::uint64_t seed) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 6;
    opt.num_rows = 8;
    opt.num_pads = 24;
    opt.seed = seed;
    return generate_circuit(opt);
}

placement random_placement(const netlist& nl, std::uint64_t seed) {
    prng rng(seed);
    placement pl = nl.initial_placement();
    const rect r = nl.region();
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        pl[i] = point(rng.next_range(r.xlo, r.xhi), rng.next_range(r.ylo, r.yhi));
    }
    return pl;
}

class TransformCacheProperties : public ::testing::TestWithParam<std::uint64_t> {};

// ---------------------------------------------------------------------------
// spectral_convolver: reused == fresh (bitwise), and both match convolve_2d
// ---------------------------------------------------------------------------

TEST_P(TransformCacheProperties, SpectralConvolverReuseIsBitwiseIdentical) {
    const std::uint64_t seed = GetParam();
    prng rng(seed);
    const std::size_t n0 = 4 + rng.next_below(21);
    const std::size_t n1 = 4 + rng.next_below(21);
    const std::size_t ksize = (2 * n0 - 1) * (2 * n1 - 1);
    std::vector<double> kx(ksize), ky(ksize);
    for (double& v : kx) v = rng.next_range(-1.0, 1.0);
    for (double& v : ky) v = rng.next_range(-1.0, 1.0);

    spectral_convolver reused(n0, n1, kx, ky);
    std::vector<double> rx, ry, fx, fy;
    for (std::size_t call = 0; call < 3; ++call) {
        std::vector<double> data(n0 * n1);
        for (double& v : data) v = rng.next_range(-2.0, 2.0);

        reused.convolve_pair(data, rx, ry);
        spectral_convolver fresh(n0, n1, kx, ky);
        fresh.convolve_pair(data, fx, fy);

        ASSERT_EQ(rx.size(), n0 * n1);
        for (std::size_t i = 0; i < n0 * n1; ++i) {
            ASSERT_EQ(rx[i], fx[i]) << "call " << call << " x index " << i;
            ASSERT_EQ(ry[i], fy[i]) << "call " << call << " y index " << i;
        }

        // Against the plain per-kernel path (different FFT packing, so
        // tolerance, not bitwise).
        const std::vector<double> ref_x = convolve_2d(data, n0, n1, kx);
        const std::vector<double> ref_y = convolve_2d(data, n0, n1, ky);
        double scale = 1.0;
        for (const double v : ref_x) scale = std::max(scale, std::abs(v));
        for (const double v : ref_y) scale = std::max(scale, std::abs(v));
        for (std::size_t i = 0; i < n0 * n1; ++i) {
            ASSERT_NEAR(rx[i], ref_x[i], 1e-11 * scale) << "x index " << i;
            ASSERT_NEAR(ry[i], ref_y[i], 1e-11 * scale) << "y index " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// quadratic_system: symbolic pattern + numeric refill == fresh assembly
// ---------------------------------------------------------------------------

TEST_P(TransformCacheProperties, SystemRefillMatchesFreshAssembly) {
    const std::uint64_t seed = GetParam();
    netlist nl = test_circuit(220, seed);
    quadratic_system reused(nl);

    for (std::size_t call = 0; call < 3; ++call) {
        const placement pl = random_placement(nl, seed * 1000 + call);
        // Live net-weight change (the timing-driven weight hook does this
        // between transformations); the refill must pick it up.
        if (call == 2) nl.net_at(0).weight *= 3.5;

        reused.assemble(pl);
        quadratic_system fresh(nl);
        fresh.assemble(pl);

        const auto expect_same = [&](const std::vector<double>& a,
                                     const std::vector<double>& b, const char* what) {
            ASSERT_EQ(a.size(), b.size()) << what;
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i], b[i]) << what << " index " << i << " call " << call;
            }
        };
        expect_same(reused.matrix_x().values(), fresh.matrix_x().values(), "Cx");
        expect_same(reused.matrix_y().values(), fresh.matrix_y().values(), "Cy");
        expect_same(reused.rhs_x(), fresh.rhs_x(), "dx");
        expect_same(reused.rhs_y(), fresh.rhs_y(), "dy");
        expect_same(reused.diagonal_x(), fresh.diagonal_x(), "diag_x");
        expect_same(reused.diagonal_y(), fresh.diagonal_y(), "diag_y");
    }
}

TEST_P(TransformCacheProperties, CachedDiagonalMatchesMatrixDiagonal) {
    const std::uint64_t seed = GetParam();
    const netlist nl = test_circuit(180, seed);
    quadratic_system sys(nl);
    sys.assemble(random_placement(nl, seed + 7));
    const std::vector<double> dx = sys.matrix_x().diagonal();
    const std::vector<double> dy = sys.matrix_y().diagonal();
    ASSERT_EQ(dx.size(), sys.diagonal_x().size());
    for (std::size_t v = 0; v < dx.size(); ++v) {
        ASSERT_EQ(sys.diagonal_x()[v], dx[v]) << "x var " << v;
        ASSERT_EQ(sys.diagonal_y()[v], dy[v]) << "y var " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformCacheProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Full placer: cache on == cache off, bitwise, at every thread count
// ---------------------------------------------------------------------------

placement run_placer(const netlist& nl, bool cache, std::size_t threads) {
    scoped_threads guard(threads);
    placer_options opt;
    opt.max_iterations = 12;
    opt.iteration_cache = cache;
    placer p(nl, opt);
    return p.run();
}

TEST(TransformCache, PlacerBitwiseIdenticalCachedVsUncachedAcrossThreads) {
    const netlist nl = test_circuit(400, 2024);
    const placement reference = run_placer(nl, /*cache=*/true, 1);
    ASSERT_EQ(reference.size(), nl.num_cells());
    for (const std::size_t t : {1, 2, 4, 8}) {
        for (const bool cache : {true, false}) {
            const placement pl = run_placer(nl, cache, t);
            ASSERT_EQ(pl.size(), reference.size());
            for (std::size_t i = 0; i < pl.size(); ++i) {
                ASSERT_EQ(pl[i].x, reference[i].x)
                    << "cell " << i << " cache=" << cache << " threads=" << t;
                ASSERT_EQ(pl[i].y, reference[i].y)
                    << "cell " << i << " cache=" << cache << " threads=" << t;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Profiler smoke
// ---------------------------------------------------------------------------

TEST(TransformCache, ProfilerCollectsPhaseSamples) {
    profiler& prof = profiler::instance();
    const bool was_enabled = prof.enabled();
    prof.set_enabled(true);
    prof.reset();

    const netlist nl = test_circuit(200, 99);
    placer_options opt;
    opt.max_iterations = 3;
    opt.min_iterations = 3;
    placer p(nl, opt);
    p.run();

    EXPECT_GE(prof.transforms(), 3u);
    EXPECT_GT(prof.calls(profile_phase::assemble), 0u);
    EXPECT_GT(prof.calls(profile_phase::density), 0u);
    EXPECT_GT(prof.calls(profile_phase::force_field), 0u);
    EXPECT_GT(prof.calls(profile_phase::solve), 0u);
    EXPECT_GT(prof.calls(profile_phase::spread_check), 0u);
    EXPECT_GT(prof.total_cg_x() + prof.total_cg_y(), 0u);
    // CG iterations are counted per solve kind, and the kinds add up to
    // the per-axis totals.
    std::size_t by_kind = 0;
    for (std::size_t k = 0; k < num_cg_solve_kinds; ++k) {
        const cg_solve_kind kind = static_cast<cg_solve_kind>(k);
        EXPECT_GT(prof.total_cg(kind), 0u) << cg_solve_kind_name(kind);
        by_kind += prof.total_cg(kind);
    }
    EXPECT_EQ(by_kind, prof.total_cg_x() + prof.total_cg_y());
    // Wire relaxation's own assembly is timed as assemble: one assemble
    // per transformation plus one per relaxation.
    EXPECT_GT(prof.calls(profile_phase::wire_relax), 0u);
    EXPECT_EQ(prof.calls(profile_phase::assemble),
              prof.transforms() + prof.calls(profile_phase::wire_relax));
    const std::string summary = prof.summary();
    EXPECT_FALSE(summary.empty());
    EXPECT_NE(summary.find("hold_and_move="), std::string::npos) << summary;
    // Kernels without a flop count (stamp) print no GFLOP/s column.
    ASSERT_GT(prof.kernel_calls(profile_kernel::stamp), 0u);
    const std::size_t stamp_line = summary.find("kernel stamp");
    ASSERT_NE(stamp_line, std::string::npos) << summary;
    const std::string line = summary.substr(stamp_line, summary.find('\n', stamp_line) - stamp_line);
    EXPECT_EQ(line.find("GFLOP/s"), std::string::npos) << line;

    prof.reset();
    prof.set_enabled(was_enabled);
}

} // namespace
} // namespace gpf
