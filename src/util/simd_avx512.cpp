// AVX-512 kernel table. Compiled with -mavx512f -ffp-contract=off on
// x86-64 (src/CMakeLists.txt); elsewhere — or with GPF_ENABLE_SIMD=OFF —
// this TU compiles to a stub accessor returning nullptr.
//
// The table differs from AVX2 in one entry: the sliced SpMV runs one
// slice (eight rows) per 512-bit register, the one 512-bit kernel that
// pays end to end (DESIGN.md §13). Each lane is a whole matrix row, so
// the width sets how many rows run at once, not a row's reduction tree,
// and the results are bitwise identical to the scalar and AVX2 tiers.
// Every other entry points at the shared 256-bit bodies of
// util/simd_x86_common.hpp.
#include "util/simd_internal.hpp"

#if defined(__AVX512F__) && (defined(__x86_64__) || defined(_M_X64)) && \
    !defined(GPF_DISABLE_SIMD)

#include <immintrin.h>

#include <algorithm>

#include "util/simd_x86_common.hpp"

namespace gpf::detail {
namespace {

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
    axpy_x86,
    xpby_x86,
    add_scalar_x86,
    scale_x86,
    dot_x86,
    cg_update_x86,
    spmv_sliced_avx512,
    cmul_x86,
    cmul_pair_x86,
    fft_radix2_x86,
    fft_radix4_x86,
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
