// 256-bit x86 kernel bodies shared by the AVX2 and AVX-512 tables: every
// entry of both tables except the sliced SpMV points here. Everything is
// `static` (internal linkage): each including TU compiles its own copy
// under its own -m flags, so the AVX2 table can never end up calling code
// the compiler emitted with AVX-512 encodings (the linker never merges
// copies across the TUs).
//
// Three kinds of kernels live here:
//   * the elementwise kernels (axpy, xpby, add_scalar, scale, cmul,
//     cmul_pair): memory-bound, so a 512-bit copy shows no end-to-end
//     gain (DESIGN.md §13);
//   * the fixed-shape reductions (dot, cg_update): these must stay
//     4-lane / 256-bit on EVERY x86 tier — widening the accumulator to 8
//     lanes would change the reduction tree and hence the rounding;
//   * the radix-2 and radix-4 butterfly passes, with 128-bit
//     cross-permute forms for the narrow first stages.
//
// The bitwise contract of util/simd.hpp applies: plain vmul/vadd/vsub
// (and vaddsub, which is the scalar expression with the addition
// commuted — IEEE-identical), never FMA; every including TU is compiled
// with -ffp-contract=off and without -mfma. Loop tails run the scalar
// reference code.
#pragma once

#include <immintrin.h>

#include "util/simd_internal.hpp"

namespace gpf::detail {

// --- complex helpers (2 complex doubles per __m256d, interleaved) ---------

/// Per-lane complex product: lane0 = ar*br − ai*bi, lane1 = ai*br + ar*bi
/// (vmul + vmul + vaddsub — the scalar expression, addition commuted,
/// which IEEE-754 guarantees is the same bits).
static inline __m256d cmul2(__m256d a, __m256d b) {
    const __m256d br = _mm256_movedup_pd(b);          // [br0 br0 br1 br1]
    const __m256d bi = _mm256_permute_pd(b, 0xF);     // [bi0 bi0 bi1 bi1]
    const __m256d as = _mm256_permute_pd(a, 0x5);     // [ai0 ar0 ai1 ar1]
    return _mm256_addsub_pd(_mm256_mul_pd(a, br), _mm256_mul_pd(as, bi));
}

/// Exact multiply by −i (forward) or +i (inverse): swap re/im and flip
/// one sign — no rounding, so it matches the scalar rotation bitwise.
template <bool Inverse>
static inline __m256d rot_i2(__m256d g) {
    const __m256d swapped = _mm256_permute_pd(g, 0x5); // [im re im re]
    if constexpr (Inverse) {
        // (−im, re): negate lanes 0 and 2
        const __m256d mask = _mm256_castsi256_pd(_mm256_set_epi64x(
            0, static_cast<long long>(0x8000000000000000ULL), 0,
            static_cast<long long>(0x8000000000000000ULL)));
        return _mm256_xor_pd(swapped, mask);
    } else {
        // (im, −re): negate lanes 1 and 3
        const __m256d mask = _mm256_castsi256_pd(_mm256_set_epi64x(
            static_cast<long long>(0x8000000000000000ULL), 0,
            static_cast<long long>(0x8000000000000000ULL), 0));
        return _mm256_xor_pd(swapped, mask);
    }
}

// --- elementwise kernels ----------------------------------------------------

static inline void axpy_x86(double alpha, const double* x, double* y, std::size_t n) {
    const __m256d va = _mm256_set1_pd(alpha);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        const __m256d vx = _mm256_loadu_pd(x + i);
        _mm256_storeu_pd(y + i, _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
    }
    axpy_scalar(alpha, x + m, y + m, n - m);
}

static inline void xpby_x86(const double* z, double beta, double* p, std::size_t n) {
    const __m256d vb = _mm256_set1_pd(beta);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        const __m256d vz = _mm256_loadu_pd(z + i);
        const __m256d vp = _mm256_loadu_pd(p + i);
        _mm256_storeu_pd(p + i, _mm256_add_pd(vz, _mm256_mul_pd(vb, vp)));
    }
    xpby_scalar(z + m, beta, p + m, n - m);
}

static inline void add_scalar_x86(double* dst, double c, std::size_t n) {
    const __m256d vc = _mm256_set1_pd(c);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), vc));
    }
    add_scalar_scalar(dst + m, c, n - m);
}

static inline void scale_x86(double* p, double s, std::size_t n) {
    const __m256d vs = _mm256_set1_pd(s);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        _mm256_storeu_pd(p + i, _mm256_mul_pd(_mm256_loadu_pd(p + i), vs));
    }
    scale_scalar(p + m, s, n - m);
}

static inline void cmul_x86(std::complex<double>* w, const std::complex<double>* s,
                            std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    const double* sp = reinterpret_cast<const double*>(s);
    const std::size_t m = n & ~std::size_t{1};
    for (std::size_t i = 0; i < m; i += 2) {
        const __m256d vw = _mm256_loadu_pd(wp + 2 * i);
        const __m256d vs = _mm256_loadu_pd(sp + 2 * i);
        _mm256_storeu_pd(wp + 2 * i, cmul2(vw, vs));
    }
    cmul_scalar(w + m, s + m, n - m);
}

static inline void cmul_pair_x86(std::complex<double>* w, std::complex<double>* q,
                                 const std::complex<double>* s,
                                 const std::complex<double>* t, std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    double* qp = reinterpret_cast<double*>(q);
    const double* sp = reinterpret_cast<const double*>(s);
    const double* tp = reinterpret_cast<const double*>(t);
    const std::size_t m = n & ~std::size_t{1};
    for (std::size_t i = 0; i < m; i += 2) {
        const __m256d vw = _mm256_loadu_pd(wp + 2 * i);
        _mm256_storeu_pd(qp + 2 * i, cmul2(vw, _mm256_loadu_pd(tp + 2 * i)));
        _mm256_storeu_pd(wp + 2 * i, cmul2(vw, _mm256_loadu_pd(sp + 2 * i)));
    }
    cmul_pair_scalar(w + m, q + m, s + m, t + m, n - m);
}

// --- fixed-shape reductions (4 logical lanes on every x86 tier) -----------

/// Folds [l0 l1 l2 l3] to (l0+l2)+(l1+l3) — the reduction order every
/// ISA's dot kernels share.
static inline double reduce_lanes(__m256d acc) {
    const __m128d lo = _mm256_castpd256_pd128(acc);      // [l0 l1]
    const __m128d hi = _mm256_extractf128_pd(acc, 1);    // [l2 l3]
    const __m128d fold = _mm_add_pd(lo, hi);             // [l0+l2, l1+l3]
    return _mm_cvtsd_f64(fold) + _mm_cvtsd_f64(_mm_unpackhi_pd(fold, fold));
}

static inline double dot_x86(const double* a, const double* b, std::size_t n) {
    __m256d acc = _mm256_setzero_pd();
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    }
    double sum = reduce_lanes(acc);
    for (std::size_t i = m; i < n; ++i) sum += a[i] * b[i];
    return sum;
}

/// cg_update on 256-bit registers: the axpy pair, the division and both
/// dot products in one loop, with dot_x86's accumulator shape for each
/// sum (two independent chains, so their add latencies overlap).
static inline void cg_update_x86(double alpha, const double* p, const double* ap,
                                 const double* d, double* x, double* r, double* z,
                                 std::size_t n, double* rz, double* rr) {
    const __m256d va = _mm256_set1_pd(alpha);
    const __m256d vna = _mm256_set1_pd(-alpha);
    __m256d acc_rz = _mm256_setzero_pd();
    __m256d acc_rr = _mm256_setzero_pd();
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        _mm256_storeu_pd(x + i, _mm256_add_pd(_mm256_loadu_pd(x + i),
                                              _mm256_mul_pd(va, _mm256_loadu_pd(p + i))));
        const __m256d rv = _mm256_add_pd(_mm256_loadu_pd(r + i),
                                         _mm256_mul_pd(vna, _mm256_loadu_pd(ap + i)));
        _mm256_storeu_pd(r + i, rv);
        const __m256d zv = _mm256_div_pd(rv, _mm256_loadu_pd(d + i));
        _mm256_storeu_pd(z + i, zv);
        acc_rz = _mm256_add_pd(acc_rz, _mm256_mul_pd(rv, zv));
        acc_rr = _mm256_add_pd(acc_rr, _mm256_mul_pd(rv, rv));
    }
    double sum_rz = reduce_lanes(acc_rz);
    double sum_rr = reduce_lanes(acc_rr);
    for (std::size_t i = m; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] += -alpha * ap[i];
        z[i] = r[i] / d[i];
        sum_rz += r[i] * z[i];
        sum_rr += r[i] * r[i];
    }
    *rz = sum_rz;
    *rr = sum_rr;
}

// --- 256-bit FFT butterfly passes -----------------------------------------

static inline void fft_radix2_x86(std::complex<double>* a, std::size_t n,
                                  std::size_t len, const std::complex<double>* w) {
    const std::size_t half = len / 2;
    double* base = reinterpret_cast<double*>(a);
    const double* wp = reinterpret_cast<const double*>(w);
    if (half >= 2) {
        // Vectorize across k: 2 butterflies per iteration. half is a
        // power of two, so the k loop has no tail.
        for (std::size_t i = 0; i < n; i += len) {
            double* u = base + 2 * i;
            double* b = base + 2 * (i + half);
            for (std::size_t k = 0; k < half; k += 2) {
                const __m256d vu = _mm256_loadu_pd(u + 2 * k);
                const __m256d vb = _mm256_loadu_pd(b + 2 * k);
                const __m256d vw = _mm256_loadu_pd(wp + 2 * k);
                const __m256d t = cmul2(vb, vw);
                _mm256_storeu_pd(u + 2 * k, _mm256_add_pd(vu, t));
                _mm256_storeu_pd(b + 2 * k, _mm256_sub_pd(vu, t));
            }
        }
    } else {
        // len == 2: vectorize across block pairs (2 blocks of 2 complex).
        const __m256d vw = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(wp));
        const std::size_t mb = n & ~std::size_t{3};
        std::size_t i = 0;
        for (; i < mb; i += 4) {
            const __m256d lo = _mm256_loadu_pd(base + 2 * i);     // [x0  x1 ]
            const __m256d hi = _mm256_loadu_pd(base + 2 * i + 4); // [x0' x1']
            const __m256d v0 = _mm256_permute2f128_pd(lo, hi, 0x20); // [x0 x0']
            const __m256d v1 = _mm256_permute2f128_pd(lo, hi, 0x31); // [x1 x1']
            const __m256d t = cmul2(v1, vw);
            const __m256d sum = _mm256_add_pd(v0, t);
            const __m256d dif = _mm256_sub_pd(v0, t);
            _mm256_storeu_pd(base + 2 * i, _mm256_permute2f128_pd(sum, dif, 0x20));
            _mm256_storeu_pd(base + 2 * i + 4,
                             _mm256_permute2f128_pd(sum, dif, 0x31));
        }
        if (i < n) fft_radix2_scalar(a + i, n - i, len, w);
    }
}

/// Radix-4 butterfly on vectors of 2 complex: the same expression chain
/// as fft_radix4_scalar, two k-lanes at a time.
template <bool Inverse>
static inline void radix4_core(__m256d x0, __m256d x1, __m256d x2, __m256d x3,
                               __m256d vwa, __m256d vwb, __m256d& o0, __m256d& o1,
                               __m256d& o2, __m256d& o3) {
    const __m256d t1 = cmul2(x1, vwa);
    const __m256d e0 = _mm256_add_pd(x0, t1);
    const __m256d e1 = _mm256_sub_pd(x0, t1);
    const __m256d t3 = cmul2(x3, vwa);
    const __m256d e2 = _mm256_add_pd(x2, t3);
    const __m256d e3 = _mm256_sub_pd(x2, t3);
    const __m256d f2 = cmul2(e2, vwb);
    const __m256d f3 = rot_i2<Inverse>(cmul2(e3, vwb));
    o0 = _mm256_add_pd(e0, f2);
    o1 = _mm256_add_pd(e1, f3);
    o2 = _mm256_sub_pd(e0, f2);
    o3 = _mm256_sub_pd(e1, f3);
}

template <bool Inverse>
static inline void fft_radix4_x86_impl(std::complex<double>* a, std::size_t n,
                                       std::size_t block,
                                       const std::complex<double>* wa,
                                       const std::complex<double>* wb) {
    const std::size_t quarter = block / 4;
    const std::size_t half = block / 2;
    double* base = reinterpret_cast<double*>(a);
    const double* wap = reinterpret_cast<const double*>(wa);
    const double* wbp = reinterpret_cast<const double*>(wb);

    if (quarter >= 2) {
        const std::size_t mk = quarter & ~std::size_t{1};
        for (std::size_t i = 0; i < n; i += block) {
            double* p0 = base + 2 * i;
            double* p1 = p0 + 2 * quarter;
            double* p2 = p0 + 2 * half;
            double* p3 = p2 + 2 * quarter;
            for (std::size_t k = 0; k < mk; k += 2) {
                __m256d o0, o1, o2, o3;
                radix4_core<Inverse>(
                    _mm256_loadu_pd(p0 + 2 * k), _mm256_loadu_pd(p1 + 2 * k),
                    _mm256_loadu_pd(p2 + 2 * k), _mm256_loadu_pd(p3 + 2 * k),
                    _mm256_loadu_pd(wap + 2 * k), _mm256_loadu_pd(wbp + 2 * k), o0,
                    o1, o2, o3);
                _mm256_storeu_pd(p0 + 2 * k, o0);
                _mm256_storeu_pd(p1 + 2 * k, o1);
                _mm256_storeu_pd(p2 + 2 * k, o2);
                _mm256_storeu_pd(p3 + 2 * k, o3);
            }
            // quarter is a power of two, so there is no odd-k tail once
            // quarter >= 2.
        }
    } else {
        // block == 4 (first fused pass): one k per block; vectorize across
        // block pairs with 128-bit cross-permutes.
        const __m256d vwa = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(wap));
        const __m256d vwb = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(wbp));
        const std::size_t mb = n & ~std::size_t{7}; // pairs of 4-complex blocks
        std::size_t i = 0;
        for (; i < mb; i += 8) {
            double* p = base + 2 * i;
            const __m256d a01 = _mm256_loadu_pd(p);      // [x0  x1 ]
            const __m256d a23 = _mm256_loadu_pd(p + 4);  // [x2  x3 ]
            const __m256d b01 = _mm256_loadu_pd(p + 8);  // [x0' x1']
            const __m256d b23 = _mm256_loadu_pd(p + 12); // [x2' x3']
            const __m256d x0 = _mm256_permute2f128_pd(a01, b01, 0x20);
            const __m256d x1 = _mm256_permute2f128_pd(a01, b01, 0x31);
            const __m256d x2 = _mm256_permute2f128_pd(a23, b23, 0x20);
            const __m256d x3 = _mm256_permute2f128_pd(a23, b23, 0x31);
            __m256d o0, o1, o2, o3;
            radix4_core<Inverse>(x0, x1, x2, x3, vwa, vwb, o0, o1, o2, o3);
            _mm256_storeu_pd(p, _mm256_permute2f128_pd(o0, o1, 0x20));
            _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(o2, o3, 0x20));
            _mm256_storeu_pd(p + 8, _mm256_permute2f128_pd(o0, o1, 0x31));
            _mm256_storeu_pd(p + 12, _mm256_permute2f128_pd(o2, o3, 0x31));
        }
        if (i < n) {
            fft_radix4_scalar(a + i, n - i, block, wa, wb, Inverse);
        }
    }
}

static inline void fft_radix4_x86(std::complex<double>* a, std::size_t n,
                                  std::size_t block,
                                  const std::complex<double>* wa,
                                  const std::complex<double>* wb, bool inverse) {
    if (inverse) {
        fft_radix4_x86_impl<true>(a, n, block, wa, wb);
    } else {
        fft_radix4_x86_impl<false>(a, n, block, wa, wb);
    }
}

} // namespace gpf::detail
