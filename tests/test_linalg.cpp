#include <gtest/gtest.h>

#include <cmath>

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

class CgPreconditioners : public ::testing::TestWithParam<preconditioner_kind> {};

TEST_P(CgPreconditioners, SolvesRandomSpdSystem) {
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
    opt.preconditioner = GetParam();
    opt.tolerance = 1e-10;
    std::vector<double> x;
    const cg_result res = cg_solve(m, rhs, x, opt);
    EXPECT_TRUE(res.converged);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CgPreconditioners,
                         ::testing::Values(preconditioner_kind::none,
                                           preconditioner_kind::jacobi,
                                           preconditioner_kind::ssor));

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

TEST(CgSolver, ShiftedSsorSolvesShiftedSystem) {
    // SSOR on A + diag(shift): the sweeps take A's strict triangles and
    // the shifted diagonal. The shift is zero on some rows. The solution
    // must match an explicitly assembled A + diag(shift) solved with SSOR,
    // and a Jacobi solve of the shifted system.
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

    cg_options ssor;
    ssor.preconditioner = preconditioner_kind::ssor;
    ssor.tolerance = 1e-10;
    std::vector<double> x_shift, x_explicit;
    ASSERT_TRUE(cg_solve(m, rhs, x_shift, ssor, nullptr, &shift).converged);
    ASSERT_TRUE(cg_solve(shifted, rhs, x_explicit, ssor).converged);

    cg_options jacobi;
    jacobi.preconditioner = preconditioner_kind::jacobi;
    jacobi.tolerance = 1e-10;
    std::vector<double> x_jacobi;
    ASSERT_TRUE(cg_solve(m, rhs, x_jacobi, jacobi, nullptr, &shift).converged);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x_shift[i], x_explicit[i], 1e-8) << i;
        EXPECT_NEAR(x_shift[i], x_jacobi[i], 1e-8) << i;
    }
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
