// AVX-512 kernel table. Compiled with -mavx512f -ffp-contract=off on
// x86-64 (src/CMakeLists.txt); elsewhere — or with GPF_ENABLE_SIMD=OFF —
// this TU compiles to a stub accessor returning nullptr.
//
// Bitwise contract: identical results to the scalar and AVX2 tiers, bit
// for bit. The elementwise kernels and butterfly passes move to 8-lane
// (4-complex) registers, which is safe because per-lane IEEE arithmetic
// does not depend on register width. Two deliberate exceptions keep the
// contract honest:
//   * dot / cg_update stay on the shared 256-bit bodies
//     (util/simd_x86_common.hpp): widening the accumulator to 8 lanes
//     would change the fixed (l0+l2)+(l1+l3) reduction tree and hence
//     the rounding. simd_reduce_lanes stays 4 on every tier. The sliced
//     SpMV does run 8 lanes wide, because each lane is a whole matrix
//     row: the width sets how many rows run at once, not a row's tree.
//   * AVX-512F has no vaddsubpd, so cmul4 emulates it as
//     x + (y with even lanes sign-flipped); IEEE guarantees
//     a − b == a + (−b) for every input, so the emulation is exact.
// Butterfly passes too narrow for 512-bit vectors (radix-2 len ≤ 4,
// radix-4 block ≤ 8) delegate to the shared 256-bit paths, and loop
// tails run the scalar reference code.
#include "util/simd_internal.hpp"

#if defined(__AVX512F__) && (defined(__x86_64__) || defined(_M_X64)) && \
    !defined(GPF_DISABLE_SIMD)

#include <immintrin.h>

#include <algorithm>

#include "util/simd_x86_common.hpp"

namespace gpf::detail {
namespace {

// --- complex helpers (4 complex doubles per __m512d, interleaved) ---------

/// Sign-bit mask on even lanes (the real slots): flipping y's even lanes
/// and adding reproduces vaddsubpd (even x−y, odd x+y) exactly.
/// _mm512_set_epi64 takes lanes e7..e0, so the rightmost argument is
/// lane 0. XOR via the integer domain — _mm512_xor_pd needs AVX512DQ,
/// _mm512_xor_si512 is plain AVX512F.
inline __m512d addsub8(__m512d x, __m512d y) {
    const long long S = static_cast<long long>(0x8000000000000000ULL);
    const __m512i mask = _mm512_set_epi64(0, S, 0, S, 0, S, 0, S);
    const __m512d yneg =
        _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(y), mask));
    return _mm512_add_pd(x, yneg);
}

/// Per-lane complex product, 4 complex at a time — the same
/// mul/mul/addsub expression as the scalar and 2-wide forms.
inline __m512d cmul4(__m512d a, __m512d b) {
    const __m512d br = _mm512_movedup_pd(b);       // [br br ...] per complex
    const __m512d bi = _mm512_permute_pd(b, 0xFF); // [bi bi ...] per complex
    const __m512d as = _mm512_permute_pd(a, 0x55); // [ai ar ...] per complex
    return addsub8(_mm512_mul_pd(a, br), _mm512_mul_pd(as, bi));
}

/// Exact multiply by −i (forward) or +i (inverse): swap re/im and flip
/// one sign per complex — no rounding.
template <bool Inverse>
inline __m512d rot_i8(__m512d g) {
    const __m512d swapped = _mm512_permute_pd(g, 0x55); // [im re ...]
    const long long S = static_cast<long long>(0x8000000000000000ULL);
    if constexpr (Inverse) {
        // (−im, re): negate even lanes
        const __m512i mask = _mm512_set_epi64(0, S, 0, S, 0, S, 0, S);
        return _mm512_castsi512_pd(
            _mm512_xor_si512(_mm512_castpd_si512(swapped), mask));
    } else {
        // (im, −re): negate odd lanes
        const __m512i mask = _mm512_set_epi64(S, 0, S, 0, S, 0, S, 0);
        return _mm512_castsi512_pd(
            _mm512_xor_si512(_mm512_castpd_si512(swapped), mask));
    }
}

// --- flat real kernels ----------------------------------------------------

void axpy_avx512(double alpha, const double* x, double* y, std::size_t n) {
    const __m512d va = _mm512_set1_pd(alpha);
    const std::size_t m = n & ~std::size_t{7};
    for (std::size_t i = 0; i < m; i += 8) {
        const __m512d vy = _mm512_loadu_pd(y + i);
        const __m512d vx = _mm512_loadu_pd(x + i);
        _mm512_storeu_pd(y + i, _mm512_add_pd(vy, _mm512_mul_pd(va, vx)));
    }
    axpy_scalar(alpha, x + m, y + m, n - m);
}

void xpby_avx512(const double* z, double beta, double* p, std::size_t n) {
    const __m512d vb = _mm512_set1_pd(beta);
    const std::size_t m = n & ~std::size_t{7};
    for (std::size_t i = 0; i < m; i += 8) {
        const __m512d vz = _mm512_loadu_pd(z + i);
        const __m512d vp = _mm512_loadu_pd(p + i);
        _mm512_storeu_pd(p + i, _mm512_add_pd(vz, _mm512_mul_pd(vb, vp)));
    }
    xpby_scalar(z + m, beta, p + m, n - m);
}

void accumulate_avx512(const double* src, double* dst, std::size_t n) {
    const std::size_t m = n & ~std::size_t{7};
    for (std::size_t i = 0; i < m; i += 8) {
        _mm512_storeu_pd(
            dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i), _mm512_loadu_pd(src + i)));
    }
    accumulate_scalar(src + m, dst + m, n - m);
}

void add_scalar_avx512(double* dst, double c, std::size_t n) {
    const __m512d vc = _mm512_set1_pd(c);
    const std::size_t m = n & ~std::size_t{7};
    for (std::size_t i = 0; i < m; i += 8) {
        _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i), vc));
    }
    add_scalar_scalar(dst + m, c, n - m);
}

void scale_avx512(double* p, double s, std::size_t n) {
    const __m512d vs = _mm512_set1_pd(s);
    const std::size_t m = n & ~std::size_t{7};
    for (std::size_t i = 0; i < m; i += 8) {
        _mm512_storeu_pd(p + i, _mm512_mul_pd(_mm512_loadu_pd(p + i), vs));
    }
    scale_scalar(p + m, s, n - m);
}

void cmul_avx512(std::complex<double>* w, const std::complex<double>* s,
                 std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    const double* sp = reinterpret_cast<const double*>(s);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        const __m512d vw = _mm512_loadu_pd(wp + 2 * i);
        const __m512d vs = _mm512_loadu_pd(sp + 2 * i);
        _mm512_storeu_pd(wp + 2 * i, cmul4(vw, vs));
    }
    cmul_scalar(w + m, s + m, n - m);
}

void cmul_pair_avx512(std::complex<double>* w, std::complex<double>* q,
                      const std::complex<double>* s,
                      const std::complex<double>* t, std::size_t n) {
    double* wp = reinterpret_cast<double*>(w);
    double* qp = reinterpret_cast<double*>(q);
    const double* sp = reinterpret_cast<const double*>(s);
    const double* tp = reinterpret_cast<const double*>(t);
    const std::size_t m = n & ~std::size_t{3};
    for (std::size_t i = 0; i < m; i += 4) {
        const __m512d vw = _mm512_loadu_pd(wp + 2 * i);
        _mm512_storeu_pd(qp + 2 * i, cmul4(vw, _mm512_loadu_pd(tp + 2 * i)));
        _mm512_storeu_pd(wp + 2 * i, cmul4(vw, _mm512_loadu_pd(sp + 2 * i)));
    }
    cmul_pair_scalar(w + m, q + m, s + m, t + m, n - m);
}

// --- FFT butterfly passes -------------------------------------------------

void fft_radix2_avx512(std::complex<double>* a, std::size_t n, std::size_t len,
                       const std::complex<double>* w) {
    const std::size_t half = len / 2;
    if (half < 4) {
        // Too narrow for 512-bit vectors — shared 256-bit path.
        fft_radix2_x86(a, n, len, w);
        return;
    }
    double* base = reinterpret_cast<double*>(a);
    const double* wp = reinterpret_cast<const double*>(w);
    // 4 butterflies per iteration; half is a power of two >= 4, so the
    // k loop has no tail.
    for (std::size_t i = 0; i < n; i += len) {
        double* u = base + 2 * i;
        double* b = base + 2 * (i + half);
        for (std::size_t k = 0; k < half; k += 4) {
            const __m512d vu = _mm512_loadu_pd(u + 2 * k);
            const __m512d vb = _mm512_loadu_pd(b + 2 * k);
            const __m512d vw = _mm512_loadu_pd(wp + 2 * k);
            const __m512d t = cmul4(vb, vw);
            _mm512_storeu_pd(u + 2 * k, _mm512_add_pd(vu, t));
            _mm512_storeu_pd(b + 2 * k, _mm512_sub_pd(vu, t));
        }
    }
}

/// Radix-4 butterfly on vectors of 4 complex: the same expression chain
/// as fft_radix4_scalar, four k-lanes at a time.
template <bool Inverse>
inline void radix4_core8(__m512d x0, __m512d x1, __m512d x2, __m512d x3,
                         __m512d vwa, __m512d vwb, __m512d& o0, __m512d& o1,
                         __m512d& o2, __m512d& o3) {
    const __m512d t1 = cmul4(x1, vwa);
    const __m512d e0 = _mm512_add_pd(x0, t1);
    const __m512d e1 = _mm512_sub_pd(x0, t1);
    const __m512d t3 = cmul4(x3, vwa);
    const __m512d e2 = _mm512_add_pd(x2, t3);
    const __m512d e3 = _mm512_sub_pd(x2, t3);
    const __m512d f2 = cmul4(e2, vwb);
    const __m512d f3 = rot_i8<Inverse>(cmul4(e3, vwb));
    o0 = _mm512_add_pd(e0, f2);
    o1 = _mm512_add_pd(e1, f3);
    o2 = _mm512_sub_pd(e0, f2);
    o3 = _mm512_sub_pd(e1, f3);
}

template <bool Inverse>
void fft_radix4_avx512_impl(std::complex<double>* a, std::size_t n,
                            std::size_t block, const std::complex<double>* wa,
                            const std::complex<double>* wb) {
    const std::size_t quarter = block / 4;
    const std::size_t half = block / 2;
    double* base = reinterpret_cast<double*>(a);
    const double* wap = reinterpret_cast<const double*>(wa);
    const double* wbp = reinterpret_cast<const double*>(wb);
    // quarter is a power of two >= 4, so the k loop has no tail.
    for (std::size_t i = 0; i < n; i += block) {
        double* p0 = base + 2 * i;
        double* p1 = p0 + 2 * quarter;
        double* p2 = p0 + 2 * half;
        double* p3 = p2 + 2 * quarter;
        for (std::size_t k = 0; k < quarter; k += 4) {
            __m512d o0, o1, o2, o3;
            radix4_core8<Inverse>(
                _mm512_loadu_pd(p0 + 2 * k), _mm512_loadu_pd(p1 + 2 * k),
                _mm512_loadu_pd(p2 + 2 * k), _mm512_loadu_pd(p3 + 2 * k),
                _mm512_loadu_pd(wap + 2 * k), _mm512_loadu_pd(wbp + 2 * k), o0,
                o1, o2, o3);
            _mm512_storeu_pd(p0 + 2 * k, o0);
            _mm512_storeu_pd(p1 + 2 * k, o1);
            _mm512_storeu_pd(p2 + 2 * k, o2);
            _mm512_storeu_pd(p3 + 2 * k, o3);
        }
    }
}

void fft_radix4_avx512(std::complex<double>* a, std::size_t n, std::size_t block,
                       const std::complex<double>* wa,
                       const std::complex<double>* wb, bool inverse) {
    if (block / 4 < 4) {
        // block <= 8 — shared 256-bit path (which itself falls back to
        // scalar for block == 4 odd tails).
        fft_radix4_x86(a, n, block, wa, wb, inverse);
        return;
    }
    if (inverse) {
        fft_radix4_avx512_impl<true>(a, n, block, wa, wb);
    } else {
        fft_radix4_avx512_impl<false>(a, n, block, wa, wb);
    }
}

// --- sliced SpMV -----------------------------------------------------------

/// Lanes whose 32-bit element of m is set, as an AVX-512 lane mask.
inline __mmask8 lane_mask(__m256i m) {
    return static_cast<__mmask8>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
}

/// spmv_sliced with one slice (eight rows) per 512-bit register: the same
/// per-row step masks as the 256-bit body, as AVX-512 lane masks on
/// masked gathers and masked adds, and a masked scatter of the results.
void spmv_sliced_avx512(const sliced_view& m, const double* x, const double* shift,
                        double* y, std::size_t begin, std::size_t end) {
    constexpr std::size_t w = simd_slice_rows;
    const __m512d zero = _mm512_setzero_pd();
    for (std::size_t s = begin; s < end; ++s) {
        const double* v = m.values + m.slice_ptr[s];
        const std::uint32_t* c = m.cols + m.slice_ptr[s];
        const std::uint32_t* len = m.row_len + s * w;
        const std::size_t longest = len[0];
        const std::size_t aligned_max = longest & ~std::size_t{3};
        const std::size_t aligned_min = len[w - 1] & ~std::size_t{3};
        const __m256i vlen = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(len));
        const __m256i valigned = _mm256_and_si256(vlen, _mm256_set1_epi32(~3));
        const auto idx = [&](std::size_t j) {
            return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + j * w));
        };
        const auto step = [&](__m512d acc, std::size_t j, __mmask8 k) {
            const __m512d xg = _mm512_mask_i32gather_pd(zero, k, idx(j), x, 8);
            return _mm512_mask_add_pd(acc, k, acc,
                                      _mm512_mul_pd(_mm512_loadu_pd(v + j * w), xg));
        };
        __m512d l0 = zero, l1 = zero, l2 = zero, l3 = zero;
        std::size_t j = 0;
        for (; j < aligned_min; j += 4) { // every row is inside its prefix
            l0 = _mm512_add_pd(l0, _mm512_mul_pd(_mm512_loadu_pd(v + j * w),
                                                 _mm512_i32gather_pd(idx(j), x, 8)));
            l1 = _mm512_add_pd(l1, _mm512_mul_pd(_mm512_loadu_pd(v + (j + 1) * w),
                                                 _mm512_i32gather_pd(idx(j + 1), x, 8)));
            l2 = _mm512_add_pd(l2, _mm512_mul_pd(_mm512_loadu_pd(v + (j + 2) * w),
                                                 _mm512_i32gather_pd(idx(j + 2), x, 8)));
            l3 = _mm512_add_pd(l3, _mm512_mul_pd(_mm512_loadu_pd(v + (j + 3) * w),
                                                 _mm512_i32gather_pd(idx(j + 3), x, 8)));
        }
        for (; j < aligned_max; j += 4) {
            const __mmask8 k = lane_mask(
                _mm256_cmpgt_epi32(valigned, _mm256_set1_epi32(static_cast<int>(j))));
            l0 = step(l0, j, k);
            l1 = step(l1, j + 1, k);
            l2 = step(l2, j + 2, k);
            l3 = step(l3, j + 3, k);
        }
        __m512d acc = _mm512_add_pd(_mm512_add_pd(l0, l2), _mm512_add_pd(l1, l3));
        for (j = aligned_min; j < longest; ++j) {
            const __m256i jj = _mm256_set1_epi32(static_cast<int>(j));
            // aligned <= j < len: the step is in this row's tail
            acc = step(acc, j,
                       lane_mask(_mm256_andnot_si256(_mm256_cmpgt_epi32(valigned, jj),
                                                     _mm256_cmpgt_epi32(vlen, jj))));
        }
        const __m256i rows =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m.row_of + s * w));
        if (shift != nullptr) {
            acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_i32gather_pd(rows, shift, 8),
                                                   _mm512_i32gather_pd(rows, x, 8)));
        }
        const std::size_t real = std::min(w, m.rows - s * w);
        _mm512_mask_i32scatter_pd(y, static_cast<__mmask8>((1u << real) - 1), rows, acc, 8);
    }
}

constexpr simd_kernels avx512_table = {
    simd_isa::avx512,
    "avx512",
    axpy_avx512,
    xpby_avx512,
    accumulate_avx512,
    add_scalar_avx512,
    scale_avx512,
    dot_x86,
    cg_update_x86,
    spmv_sliced_avx512,
    cmul_avx512,
    cmul_pair_avx512,
    fft_radix2_avx512,
    fft_radix4_avx512,
};

} // namespace

const simd_kernels* simd_avx512_table() {
#if defined(__GNUC__) || defined(__clang__)
    // The TU is compiled for AVX-512F, but the host CPU may still lack it.
    if (!__builtin_cpu_supports("avx512f")) return nullptr;
#endif
    return &avx512_table;
}

} // namespace gpf::detail

#else // !__AVX512F__

namespace gpf::detail {
const simd_kernels* simd_avx512_table() { return nullptr; }
} // namespace gpf::detail

#endif
