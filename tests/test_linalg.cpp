#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "linalg/cg_solver.hpp"
#include "linalg/sliced_matrix.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gpf {
namespace {

sliced_matrix make_tridiagonal(std::size_t n, double diag, double off) {
    coo_builder b(n);
    for (std::size_t i = 0; i < n; ++i) {
        b.add_diagonal(i, diag);
        if (i + 1 < n) b.add_symmetric_pair(i, i + 1, off);
    }
    return b.build();
}

TEST(CsrMatrix, BuildsAndMerges) {
    coo_builder b(3);
    b.add(0, 0, 1.0);
    b.add(0, 0, 2.0); // duplicate → merged
    b.add(0, 2, -1.0);
    b.add(2, 0, -1.0);
    b.add(1, 1, 5.0);
    b.add(2, 2, 4.0);
    const sliced_matrix m = b.build();
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.nonzeros(), 5u);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.at(0, 2), -1.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
    EXPECT_TRUE(m.is_symmetric());
}

TEST(CsrMatrix, Multiply) {
    const sliced_matrix m = make_tridiagonal(4, 2.0, -1.0);
    std::vector<double> y;
    m.multiply({1.0, 1.0, 1.0, 1.0}, y);
    ASSERT_EQ(y.size(), 4u);
    EXPECT_DOUBLE_EQ(y[0], 1.0);
    EXPECT_DOUBLE_EQ(y[1], 0.0);
    EXPECT_DOUBLE_EQ(y[2], 0.0);
    EXPECT_DOUBLE_EQ(y[3], 1.0);
}

TEST(CsrMatrix, Diagonal) {
    const sliced_matrix m = make_tridiagonal(3, 5.0, -1.0);
    const std::vector<double> d = m.diagonal();
    EXPECT_EQ(d, (std::vector<double>{5.0, 5.0, 5.0}));
}

TEST(CsrMatrix, AsymmetryDetected) {
    coo_builder b(2);
    b.add_diagonal(0, 1.0);
    b.add_diagonal(1, 1.0);
    b.add(0, 1, -0.5); // missing transpose entry
    const sliced_matrix m = b.build();
    EXPECT_FALSE(m.is_symmetric());
}

TEST(CsrMatrix, OutOfRangeAddThrows) {
    coo_builder b(2);
    EXPECT_THROW(b.add(2, 0, 1.0), check_error);
}

TEST(CgSolver, SolvesIdentity) {
    coo_builder b(3);
    for (std::size_t i = 0; i < 3; ++i) b.add_diagonal(i, 1.0);
    const sliced_matrix m = b.build();
    std::vector<double> x;
    const cg_result res = cg_solve(m, {1.0, 2.0, 3.0}, x);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(x[0], 1.0, 1e-8);
    EXPECT_NEAR(x[1], 2.0, 1e-8);
    EXPECT_NEAR(x[2], 3.0, 1e-8);
}

TEST(CgSolver, ZeroRhsGivesZero) {
    const sliced_matrix m = make_tridiagonal(5, 2.0, -1.0);
    std::vector<double> x(5, 3.0); // non-zero warm start
    const cg_result res = cg_solve(m, std::vector<double>(5, 0.0), x);
    EXPECT_TRUE(res.converged);
    for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(CgSolver, JacobiSolvesRandomSpdSystem) {
    // Laplacian + diagonal dominance → SPD.
    constexpr std::size_t n = 60;
    prng rng(17);
    coo_builder b(n);
    for (std::size_t i = 0; i < n; ++i) b.add_diagonal(i, 4.0 + rng.next_double());
    for (std::size_t i = 0; i + 1 < n; ++i) b.add_symmetric_pair(i, i + 1, -1.0);
    for (std::size_t i = 0; i + 7 < n; ++i) b.add_symmetric_pair(i, i + 7, -0.5);
    const sliced_matrix m = b.build();

    std::vector<double> x_true(n);
    for (double& v : x_true) v = rng.next_range(-2.0, 2.0);
    std::vector<double> rhs;
    m.multiply(x_true, rhs);

    cg_options opt;
    opt.tolerance = 1e-10;
    std::vector<double> x;
    const cg_result res = cg_solve(m, rhs, x, opt);
    EXPECT_TRUE(res.converged);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(CgSolver, WarmStartConvergesFaster) {
    const sliced_matrix m = make_tridiagonal(200, 2.1, -1.0);
    std::vector<double> rhs(200, 1.0);

    std::vector<double> cold;
    const cg_result cold_res = cg_solve(m, rhs, cold);
    ASSERT_TRUE(cold_res.converged);

    std::vector<double> warm = cold; // exact solution as start
    const cg_result warm_res = cg_solve(m, rhs, warm);
    EXPECT_TRUE(warm_res.converged);
    EXPECT_LT(warm_res.iterations, cold_res.iterations);
    EXPECT_EQ(warm_res.iterations, 0u);
}

TEST(CgSolver, OperatorVariantMatchesMatrixVariant) {
    // The shifted entry point with an all-zero shift solves the plain
    // system: same solution as the unshifted solve.
    const sliced_matrix m = make_tridiagonal(50, 3.0, -1.0);
    std::vector<double> rhs(50);
    prng rng(23);
    for (double& v : rhs) v = rng.next_range(-1.0, 1.0);

    std::vector<double> x_matrix;
    cg_solve(m, rhs, x_matrix);

    const std::vector<double> zero_shift(50, 0.0);
    std::vector<double> x_op;
    const cg_result res = cg_solve(m, rhs, x_op, {}, nullptr, &zero_shift);
    ASSERT_TRUE(res.converged);
    for (std::size_t i = 0; i < 50; ++i) EXPECT_NEAR(x_op[i], x_matrix[i], 1e-6);
}

TEST(CgSolver, OperatorWithDiagonalShift) {
    // (A + wI) x = b solved through the diagonal shift — the anchored
    // system used by the GORDIAN baseline.
    const sliced_matrix m = make_tridiagonal(30, 2.0, -1.0);
    const double w = 0.7;
    const std::vector<double> shift(30, w);
    std::vector<double> diag = m.diagonal();
    for (double& d : diag) d += w;
    std::vector<double> rhs(30, 1.0);
    std::vector<double> x;
    const cg_result res = cg_solve(m, rhs, x, {}, &diag, &shift);
    ASSERT_TRUE(res.converged);
    // Verify residual directly.
    std::vector<double> ax;
    m.multiply(x, ax, &shift);
    for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-6);
}

TEST(CgSolver, ShiftThroughMultiplyMatchesAssembledMatrix) {
    // A + diag(shift) applied through the solver's shift must solve the
    // same system as the explicitly assembled matrix: the shift enters the
    // multiply and the Jacobi diagonal alike. The shift is zero on some
    // rows, and no cached diagonal is passed, so the solver derives the
    // shifted diagonal itself.
    constexpr std::size_t n = 60;
    const sliced_matrix m = make_tridiagonal(n, 3.0, -1.0);
    std::vector<double> rhs(n), shift(n);
    prng rng(77);
    for (double& v : rhs) v = rng.next_range(-1.0, 1.0);
    for (std::size_t i = 0; i < n; ++i) shift[i] = i % 3 == 0 ? 0.0 : 0.5 + 0.01 * i;

    coo_builder explicit_builder(n);
    for (std::size_t i = 0; i < n; ++i) {
        explicit_builder.add_diagonal(i, 3.0 + shift[i]);
        if (i + 1 < n) explicit_builder.add_symmetric_pair(i, i + 1, -1.0);
    }
    const sliced_matrix shifted = explicit_builder.build();

    cg_options opt;
    opt.tolerance = 1e-10;
    std::vector<double> x_shift, x_explicit;
    ASSERT_TRUE(cg_solve(m, rhs, x_shift, opt, nullptr, &shift).converged);
    ASSERT_TRUE(cg_solve(shifted, rhs, x_explicit, opt).converged);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x_shift[i], x_explicit[i], 1e-8) << i;
    }
    // The assembled matrix is the shifted operator (up to the rounding of
    // adding the shift to the diagonal before or after the product).
    std::vector<double> via_shift, via_matrix;
    m.multiply(rhs, via_shift, &shift);
    shifted.multiply(rhs, via_matrix);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(via_shift[i], via_matrix[i], 1e-12) << i;
}

// ---------------------------------------------------------------------------
// Displacement stop (cg_options::displacement_tolerance) on seeded systems
// shaped like the placer's wire relaxation: a random netlist Laplacian with
// pad anchors on a few rows, the shift s = β·diag(A), the right-hand side
// b = pad pulls + s⊙x_cur, and the warm start x_cur.
// ---------------------------------------------------------------------------

struct relax_system {
    sliced_matrix a;
    std::vector<double> shift, diag, b, start;
};

relax_system make_relax_system(std::uint64_t seed) {
    constexpr double kWidth = 1000.0; // layout units
    constexpr double kBeta = 0.05;    // the placer's wire-relax anchor weight
    prng rng(seed);
    const std::size_t n = 100 + rng.next_below(500);
    coo_builder builder(n);
    std::vector<double> diag_a(n, 0.0), pull(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t degree = 1 + rng.next_below(3);
        for (std::size_t k = 0; k < degree; ++k) {
            const std::size_t j = rng.next_below(n);
            if (j == i) continue;
            const double w = rng.next_range(0.5, 2.0);
            builder.add_symmetric_pair(i, j, -w);
            diag_a[i] += w;
            diag_a[j] += w;
        }
        if (rng.next_bool(0.05) || i == 0) { // pad anchor
            const double w = rng.next_range(0.5, 2.0);
            diag_a[i] += w;
            pull[i] = w * rng.next_range(0.0, kWidth);
        }
    }
    relax_system sys;
    sys.shift.resize(n);
    sys.diag.resize(n);
    sys.b.resize(n);
    sys.start.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        builder.add_diagonal(i, diag_a[i]);
        sys.shift[i] = kBeta * diag_a[i];
        sys.diag[i] = diag_a[i] + sys.shift[i];
        sys.start[i] = rng.next_range(0.0, kWidth);
        sys.b[i] = pull[i] + sys.shift[i] * sys.start[i];
    }
    sys.a = builder.build();
    return sys;
}

/// ½ xᵀ(A + diag(s))x − bᵀx, the quadratic the solve minimizes.
double objective(const relax_system& sys, const std::vector<double>& x) {
    std::vector<double> ax;
    sys.a.multiply(x, ax, &sys.shift);
    return 0.5 * dot(x, ax) - dot(sys.b, x);
}

constexpr std::uint64_t kStopSeeds = 24;
// 0 is the relative stop alone; the largest is met by the warm start.
const double kDisplacementTolerances[] = {0.0, 1e-4, 1e-2, 1.0, 1e3};

TEST(CgDisplacementStop, ConvergedResultMeetsItsDeclaredRule) {
    std::size_t displacement_stops = 0;
    for (std::uint64_t seed = 1; seed <= kStopSeeds; ++seed) {
        const relax_system sys = make_relax_system(seed);
        const std::size_t n = sys.b.size();
        double diag_sum = 0.0;
        for (const double d : sys.diag) diag_sum += d;
        for (const double tol : kDisplacementTolerances) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " tolerance " +
                         std::to_string(tol));
            cg_options opt;
            opt.displacement_tolerance = tol;
            std::vector<double> x = sys.start;
            const cg_result res = cg_solve(sys.a, sys.b, x, opt, &sys.diag, &sys.shift);
            ASSERT_TRUE(res.converged);

            // Recompute both stops from the returned x and the true
            // residual b − (A + diag(s))x. The solver tests its recursive
            // residual, which differs from the true one only by rounding,
            // so 1% covers the difference.
            std::vector<double> ax;
            sys.a.multiply(x, ax, &sys.shift);
            double rr = 0.0, rdr = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const double r = sys.b[i] - ax[i];
                rr += r * r;
                rdr += r * r / sys.diag[i];
            }
            const double relative = std::sqrt(rr) / norm2(sys.b);
            const double displacement = std::sqrt(rdr / diag_sum);
            const bool relative_met = relative <= opt.tolerance * 1.01;
            const bool displacement_met = tol > 0.0 && displacement <= tol * 1.01;
            EXPECT_TRUE(relative_met || displacement_met)
                << "relative " << relative << ", displacement " << displacement;
            if (!relative_met && res.iterations > 0) ++displacement_stops;
        }
    }
    // Beyond the warm-start case, the displacement rule must end solves
    // that iterated: more than one per seed.
    EXPECT_GT(displacement_stops, kStopSeeds);
}

TEST(CgDisplacementStop, WarmStartedSolveNeverRaisesTheObjective) {
    for (std::uint64_t seed = 1; seed <= kStopSeeds; ++seed) {
        const relax_system sys = make_relax_system(seed);
        const double f0 = objective(sys, sys.start);
        std::vector<double> ax;
        sys.a.multiply(sys.start, ax, &sys.shift);
        // Rounding of evaluating the objective itself.
        const double slack = 1e-12 * (0.5 * std::abs(dot(sys.start, ax)) +
                                      std::abs(dot(sys.b, sys.start)));
        std::size_t prev_iterations = SIZE_MAX;
        for (const double tol : kDisplacementTolerances) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " tolerance " +
                         std::to_string(tol));
            cg_options opt;
            opt.displacement_tolerance = tol;
            std::vector<double> x = sys.start;
            const cg_result res = cg_solve(sys.a, sys.b, x, opt, &sys.diag, &sys.shift);
            EXPECT_LE(objective(sys, x), f0 + slack);
            if (res.iterations == 0) EXPECT_EQ(x, sys.start);
            // A looser stop never iterates longer (the iterates are the
            // same; only the exit test differs).
            if (tol > 0.0) EXPECT_LE(res.iterations, prev_iterations);
            prev_iterations = res.iterations;
        }
    }
}

TEST(CgDisplacementStop, ZeroToleranceKeepsTheRelativeStop) {
    // A zero displacement tolerance switches the stop off: the solve runs
    // to the relative-residual target, which a live tolerance cuts short.
    const relax_system sys = make_relax_system(5);
    cg_options zero;
    zero.displacement_tolerance = 0.0;
    zero.tolerance = 1e-10;
    cg_options loose = zero;
    loose.displacement_tolerance = 1.0;
    std::vector<double> x_zero = sys.start, x_loose = sys.start;
    const cg_result a = cg_solve(sys.a, sys.b, x_zero, zero, &sys.diag, &sys.shift);
    const cg_result b = cg_solve(sys.a, sys.b, x_loose, loose, &sys.diag, &sys.shift);
    EXPECT_TRUE(a.converged);
    EXPECT_LE(a.residual, zero.tolerance);
    EXPECT_TRUE(b.converged);
    EXPECT_GT(b.residual, zero.tolerance);
    EXPECT_LT(b.iterations, a.iterations);
}

TEST(VectorHelpers, DotNormAxpy) {
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{4.0, 5.0, 6.0};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(norm2(a), std::sqrt(14.0));
    std::vector<double> y = b;
    axpy(2.0, a, y);
    EXPECT_EQ(y, (std::vector<double>{6.0, 9.0, 12.0}));
}

} // namespace
} // namespace gpf
