// Preconditioned conjugate-gradient solver for the symmetric positive
// definite systems arising from the quadratic placement objective
// (section 4.1 of the paper: "solve equation (3) by using a conjugate
// gradient approach with preconditioning").
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sliced_matrix.hpp"

namespace gpf {

enum class preconditioner_kind {
    none,   ///< plain CG
    jacobi, ///< diagonal scaling (default; robust for diagonally dominant C)
    ssor,   ///< symmetric successive over-relaxation sweep
};

struct cg_options {
    double tolerance = 1e-8;          ///< relative residual ||r||/||b|| target
    /// Absolute stop in the units of x; 0 (default) disables it. With the
    /// Jacobi preconditioner, D = diag(A + diag(shift)), the solve also
    /// ends once sqrt(rᵀD⁻¹r / Σᵢ Dᵢᵢ) <= displacement_tolerance: the
    /// D-weighted RMS of the Jacobi correction D⁻¹r. The D-weighted error
    /// is at most that over the smallest eigenvalue of D⁻¹(A + diag(shift)),
    /// which the shift keeps away from zero. The placer sets it from its
    /// density bin width (DESIGN.md §6). With ssor or no preconditioner
    /// only the relative stop applies.
    double displacement_tolerance = 0.0;
    std::size_t max_iterations = 0;   ///< 0 → 10 * n
    preconditioner_kind preconditioner = preconditioner_kind::jacobi;
    double ssor_omega = 1.2;          ///< relaxation factor for ssor
};

struct cg_result {
    /// The relative or the displacement stop held (cg_options).
    bool converged = false;
    std::size_t iterations = 0;
    double residual = 0.0; ///< final relative residual
};

/// Solve (A + diag(shift)) x = b; a null `shift` solves A x = b. x is the
/// explicit starting guess x0 — warm-started solves pass the previous
/// solution (or displacement) here — and holds the solution on return.
/// The shifted matrix must be symmetric positive (semi-)definite, with a
/// positive diagonal for the jacobi/ssor preconditioners.
///
/// The shift is how the placer's anchored systems (hold-and-move, wire
/// relaxation, the GORDIAN baseline's region anchors) reach the solver:
/// every CG iteration applies A + diag(shift) in one sliced multiply.
///
/// `diagonal`, when given, must be the main diagonal of A + diag(shift);
/// it spares the preconditioner an allocating a.diagonal() per solve (the
/// placer passes diagonals derived from the ones cached by
/// quadratic_system::assemble).
cg_result cg_solve(const sliced_matrix& a, const std::vector<double>& b,
                   std::vector<double>& x, const cg_options& options = {},
                   const std::vector<double>* diagonal = nullptr,
                   const std::vector<double>* shift = nullptr);

// --- small dense-free vector helpers shared by solver clients -------------

double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm2(const std::vector<double>& a);
/// y += alpha * x
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

} // namespace gpf
