#include "linalg/cg_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

namespace {

// Minimum elements per chunk for the elementwise vector kernels; bounds
// scheduling overhead only, never the arithmetic.
constexpr std::size_t kVectorGrain = 4096;

/// Armed-fault entry gate of the solver. Returns true when this solve
/// must abort, with `result` describing the simulated failure: a stalled solve (no progress, full relative residual) or a
/// NaN residual with one poisoned solution entry — the two CG failure
/// shapes the placer's recovery ladder must handle.
bool inject_cg_fault(std::vector<double>& x, cg_result& result) {
    if (fault_fires(fault_site::cg_stall)) {
        result.converged = false;
        result.iterations = 0;
        result.residual = 1.0;
        return true;
    }
    if (fault_fires(fault_site::cg_nan)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        if (!x.empty()) x[fault_injector::instance().seed() % x.size()] = nan;
        result.converged = false;
        result.iterations = 0;
        result.residual = nan;
        return true;
    }
    return false;
}

std::size_t slab_count(std::size_t n) {
    return (n + deterministic_sum_slab - 1) / deterministic_sum_slab;
}

/// Serial merge of per-slab partial sums in slab order — the top of
/// dot()'s fixed reduction tree (a single slab is its own sum).
double merge_slabs(const double* partial, std::size_t slabs) {
    if (slabs == 1) return partial[0];
    double acc = 0.0;
    for (std::size_t s = 0; s < slabs; ++s) acc += partial[s];
    return acc;
}

/// a·b in deterministic_sum's fixed-slab shape with the SIMD 4-lane
/// reduction inside each slab: slab boundaries and the serial slab merge
/// depend only on n, and every ISA's dot kernel reduces in the same fixed
/// lane order (util/simd.hpp) — bitwise reproducible across GPF_THREADS
/// and GPF_SIMD alike. `partial` holds slab_count(n) caller-owned slots
/// (unused, and may be null, for a single slab).
double slab_dot(const double* a, const double* b, std::size_t n, double* partial) {
    if (n == 0) return 0.0;
    const simd_kernels& kern = simd();
    const std::size_t slabs = slab_count(n);
    if (slabs == 1) return kern.dot(a, b, n);
    parallel_for(slabs, [&](std::size_t s) {
        const std::size_t begin = s * deterministic_sum_slab;
        const std::size_t end = std::min(n, begin + deterministic_sum_slab);
        partial[s] = kern.dot(a + begin, b + begin, end - begin);
    });
    return merge_slabs(partial, slabs);
}

} // namespace

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    GPF_DCHECK(a.size() == b.size());
    const std::size_t slabs = slab_count(a.size());
    if (slabs <= 1) return slab_dot(a.data(), b.data(), a.size(), nullptr);
    std::vector<double> partial(slabs);
    return slab_dot(a.data(), b.data(), a.size(), partial.data());
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
    GPF_DCHECK(x.size() == y.size());
    const simd_kernels& kern = simd();
    const double* xp = x.data();
    double* yp = y.data();
    parallel_for_chunks(
        x.size(),
        [&](std::size_t begin, std::size_t end) {
            kern.axpy(alpha, xp + begin, yp + begin, end - begin);
        },
        kVectorGrain);
}

namespace {

/// Applies M^{-1} r for the selected preconditioner of A + diag(shift).
class preconditioner {
public:
    preconditioner(const sliced_matrix& a, const cg_options& options,
                   const std::vector<double>* cached_diagonal,
                   const std::vector<double>* shift)
        : a_(a), kind_(options.preconditioner), omega_(options.ssor_omega) {
        if (kind_ != preconditioner_kind::none) {
            if (cached_diagonal != nullptr) {
                GPF_CHECK(cached_diagonal->size() == a.rows());
                diag_ = cached_diagonal->data();
            } else {
                diag_own_ = a.diagonal();
                if (shift != nullptr) {
                    for (std::size_t i = 0; i < a.rows(); ++i) diag_own_[i] += (*shift)[i];
                }
                diag_ = diag_own_.data();
            }
            for (std::size_t i = 0; i < a.rows(); ++i) {
                GPF_CHECK_MSG(diag_[i] > 0.0,
                              "preconditioner requires positive diagonal");
            }
        }
    }

    /// The Jacobi divisor, or nullptr for the other kinds.
    const double* jacobi_diagonal() const {
        return kind_ == preconditioner_kind::jacobi ? diag_ : nullptr;
    }

    void apply(const std::vector<double>& r, std::vector<double>& z) const {
        switch (kind_) {
            case preconditioner_kind::none:
                z = r;
                return;
            case preconditioner_kind::jacobi:
                z.resize(r.size());
                for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] / diag_[i];
                return;
            case preconditioner_kind::ssor:
                apply_ssor(r, z);
                return;
        }
    }

private:
    // z = (D/w + L)^{-T} D (D/w + L)^{-1} r, scaled; one forward and one
    // backward Gauss-Seidel-like sweep. D is the shifted diagonal; L and
    // U are A's strict triangles (the shift has none).
    void apply_ssor(const std::vector<double>& r, std::vector<double>& z) const {
        const std::size_t n = r.size();

        std::vector<double> y(n, 0.0);
        // forward sweep: (D/w + L) y = r
        for (std::size_t i = 0; i < n; ++i) {
            double acc = r[i];
            const sliced_matrix::row_view row = a_.row(i);
            for (std::size_t k = 0; k < row.size; ++k) {
                const std::size_t j = row.column(k);
                if (j < i) acc -= row.value(k) * y[j];
            }
            y[i] = acc * omega_ / diag_[i];
        }
        // scale by D/w
        for (std::size_t i = 0; i < n; ++i) y[i] *= diag_[i] / omega_;
        // backward sweep: (D/w + U) z = y
        z.assign(n, 0.0);
        for (std::size_t ii = n; ii-- > 0;) {
            double acc = y[ii];
            const sliced_matrix::row_view row = a_.row(ii);
            for (std::size_t k = 0; k < row.size; ++k) {
                const std::size_t j = row.column(k);
                if (j > ii) acc -= row.value(k) * z[j];
            }
            z[ii] = acc * omega_ / diag_[ii];
        }
    }

    const sliced_matrix& a_;
    preconditioner_kind kind_;
    double omega_;
    const double* diag_ = nullptr;  ///< caller-cached or diag_own_
    std::vector<double> diag_own_;
};

/// The vector work of one CG step after the multiply, as one pass over
/// dot()'s fixed slabs: per slab, the cg_update kernel does x += αp,
/// r −= α·Ap, then — with a Jacobi divisor — z = r / diag and the slab's
/// r·z, and always the slab's r·r. cg_update is bitwise the separate
/// axpy / divide / dot kernels, so merging the partials with merge_slabs
/// gives bit for bit dot(r, z) and dot(r, r) of the separate passes.
void fused_update(double alpha, const std::vector<double>& p,
                  const std::vector<double>& ap, const double* jacobi,
                  std::vector<double>& x, std::vector<double>& r,
                  std::vector<double>& z, double* part_rz, double* part_rr) {
    const std::size_t n = x.size();
    const simd_kernels& kern = simd();
    parallel_for(slab_count(n), [&](std::size_t s) {
        const std::size_t begin = s * deterministic_sum_slab;
        const std::size_t len = std::min(n, begin + deterministic_sum_slab) - begin;
        kern.cg_update(alpha, p.data() + begin, ap.data() + begin,
                       jacobi == nullptr ? nullptr : jacobi + begin, x.data() + begin,
                       r.data() + begin, z.data() + begin, len, part_rz + s,
                       part_rr + s);
    });
}

} // namespace

cg_result cg_solve(const sliced_matrix& a, const std::vector<double>& b,
                   std::vector<double>& x, const cg_options& options,
                   const std::vector<double>* diagonal,
                   const std::vector<double>* shift) {
    const std::size_t n = a.rows();
    GPF_CHECK(b.size() == n);
    GPF_CHECK(shift == nullptr || shift->size() == n);
    if (x.size() != n) x.assign(n, 0.0);

    cg_result result;
    if (inject_cg_fault(x, result)) return result;
    const std::size_t slabs = slab_count(n);
    std::vector<double> partial(2 * slabs);
    double* part_rz = partial.data();
    double* part_rr = part_rz + slabs;
    const double bnorm = std::sqrt(slab_dot(b.data(), b.data(), n, part_rr));
    if (bnorm == 0.0) {
        x.assign(n, 0.0);
        result.converged = true;
        return result;
    }

    const std::size_t max_iter =
        options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;
    preconditioner precond(a, options, diagonal, shift);
    const double* jacobi = precond.jacobi_diagonal();
    // Displacement stop (cg_options::displacement_tolerance): with the
    // Jacobi divisor D the rz of every step is rᵀD⁻¹r, so the rule costs
    // one fixed-slab sum of D per solve and no extra pass per iteration.
    const bool displacement_stop =
        jacobi != nullptr && options.displacement_tolerance > 0.0;
    const double diag_sum =
        displacement_stop
            ? deterministic_sum(n, [&](std::size_t i) { return jacobi[i]; })
            : 0.0;
    const auto stop_holds = [&](double rz_now) {
        return result.residual <= options.tolerance ||
               (displacement_stop &&
                std::sqrt(rz_now / diag_sum) <= options.displacement_tolerance);
    };

    std::vector<double> r(n), z(n), p(n), ap(n);
    a.multiply(x, ap, shift);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

    precond.apply(r, z);
    p = z;
    double rz = slab_dot(r.data(), z.data(), n, part_rz);
    double rr = slab_dot(r.data(), r.data(), n, part_rr);

    for (std::size_t it = 0; it < max_iter; ++it) {
        result.residual = std::sqrt(rr) / bnorm;
        if (!std::isfinite(result.residual)) break; // contaminated: iterating cannot recover
        if (stop_holds(rz)) {
            result.converged = true;
            result.iterations = it;
            return result;
        }
        a.multiply(p, ap, shift);
        const double pap = slab_dot(p.data(), ap.data(), n, part_rz);
        if (!(pap > 0.0)) break; // matrix not SPD along p (or NaN); bail out
        const double alpha = rz / pap;
        fused_update(alpha, p, ap, jacobi, x, r, z, part_rz, part_rr);
        rr = merge_slabs(part_rr, slabs);
        double rz_new;
        if (jacobi != nullptr) {
            rz_new = merge_slabs(part_rz, slabs);
        } else {
            precond.apply(r, z);
            rz_new = slab_dot(r.data(), z.data(), n, part_rz);
        }
        const double beta = rz_new / rz;
        rz = rz_new;
        parallel_for_chunks(
            n,
            [&](std::size_t begin, std::size_t end) {
                simd().xpby(z.data() + begin, beta, p.data() + begin, end - begin);
            },
            kVectorGrain);
        result.iterations = it + 1;
    }
    result.residual = std::sqrt(rr) / bnorm;
    result.converged = stop_holds(rz);
    return result;
}

} // namespace gpf
