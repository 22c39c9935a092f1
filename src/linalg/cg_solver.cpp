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

/// The vector work of one CG step after the multiply, as one pass over
/// dot()'s fixed slabs: per slab, the cg_update kernel does x += αp,
/// r −= α·Ap, z = r / diag and the slab's r·z and r·r. cg_update is
/// bitwise the separate axpy / divide / dot kernels, so merging the
/// partials with merge_slabs gives bit for bit dot(r, z) and dot(r, r) of
/// the separate passes.
void fused_update(double alpha, const std::vector<double>& p,
                  const std::vector<double>& ap, const double* jacobi,
                  std::vector<double>& x, std::vector<double>& r,
                  std::vector<double>& z, double* part_rz, double* part_rr) {
    const std::size_t n = x.size();
    const simd_kernels& kern = simd();
    parallel_for(slab_count(n), [&](std::size_t s) {
        const std::size_t begin = s * deterministic_sum_slab;
        const std::size_t len = std::min(n, begin + deterministic_sum_slab) - begin;
        kern.cg_update(alpha, p.data() + begin, ap.data() + begin, jacobi + begin,
                       x.data() + begin, r.data() + begin, z.data() + begin, len,
                       part_rz + s, part_rr + s);
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
    // Jacobi preconditioner: the diagonal of A + diag(shift), the caller's
    // cached copy when given.
    std::vector<double> diag_own;
    if (diagonal != nullptr) {
        GPF_CHECK(diagonal->size() == n);
    } else {
        diag_own = a.diagonal();
        if (shift != nullptr) {
            for (std::size_t i = 0; i < n; ++i) diag_own[i] += (*shift)[i];
        }
    }
    const double* jacobi = diagonal != nullptr ? diagonal->data() : diag_own.data();
    for (std::size_t i = 0; i < n; ++i) {
        GPF_CHECK_MSG(jacobi[i] > 0.0, "preconditioner requires positive diagonal");
    }
    // Displacement stop (cg_options::displacement_tolerance): with the
    // Jacobi divisor D the rz of every step is rᵀD⁻¹r, so the rule costs
    // one fixed-slab sum of D per solve and no extra pass per iteration.
    const bool displacement_stop = options.displacement_tolerance > 0.0;
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
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = b[i] - ap[i];
        z[i] = r[i] / jacobi[i];
    }
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
        const double rz_new = merge_slabs(part_rz, slabs);
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
