// AVX2 kernel table. Compiled with -mavx2 -ffp-contract=off on x86-64
// (src/CMakeLists.txt); on other architectures — or with
// GPF_ENABLE_SIMD=OFF, which drops the -mavx2 flag — this TU compiles to
// a stub accessor returning nullptr and the dispatcher stays scalar.
//
// This TU holds the 256-bit sliced SpMV (each 8-row slice as two 4-row
// halves) and the table. Every other entry is a 256-bit body shared with
// the AVX-512 table, in util/simd_x86_common.hpp.
//
// Bitwise contract with the scalar kernels (util/simd.cpp): every lane
// evaluates the same expression with the same IEEE operations — plain
// vmulpd/vaddpd/vsubpd, never vfmadd (no -mfma, contraction off). Each
// SpMV lane is one matrix row with its own fixed 4-lane reduction shape,
// and loop tails run the scalar reference code.
#include "util/simd_internal.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64)) && \
    !defined(GPF_DISABLE_SIMD)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "util/simd_x86_common.hpp"

namespace gpf::detail {
namespace {

// --- sliced SpMV -----------------------------------------------------------

/// x[idx[0..3]]. The all-lanes masked form with a zero source is what
/// the plain gather intrinsic expands to, minus its undefined source.
__m256d gather4(const double* x, __m128i idx) {
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx, all, 8);
}

/// Four slice rows of spmv_sliced, one per 64-bit lane: v/c point at the
/// first row's entry 0 (entries simd_slice_rows slots apart), len at its
/// length (descending over the four). Returns each row's dot_gather
/// reduction. A row takes part in a step only while the step lies in its
/// own 4-aligned prefix (block phase) or its own tail (tail phase);
/// masked-off lanes neither gather nor accumulate.
__m256d sliced_rows4(const double* v, const std::uint32_t* c, const std::uint32_t* len,
                     const double* x) {
    constexpr std::size_t w = simd_slice_rows;
    const std::size_t longest = len[0];
    const std::size_t aligned_max = longest & ~std::size_t{3};
    const std::size_t aligned_min = len[3] & ~std::size_t{3};
    const __m128i vlen = _mm_loadu_si128(reinterpret_cast<const __m128i*>(len));
    const __m128i valigned = _mm_and_si128(vlen, _mm_set1_epi32(~3));
    const __m256d zero = _mm256_setzero_pd();
    const auto idx = [&](std::size_t j) {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + j * w));
    };
    const auto step = [&](__m256d acc, std::size_t j, __m256d mask) {
        const __m256d xg = _mm256_mask_i32gather_pd(zero, x, idx(j), mask, 8);
        const __m256d sum = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(v + j * w), xg));
        return _mm256_blendv_pd(acc, sum, mask);
    };
    __m256d l0 = zero, l1 = zero, l2 = zero, l3 = zero;
    std::size_t j = 0;
    for (; j < aligned_min; j += 4) { // every row is inside its prefix
        l0 = _mm256_add_pd(l0, _mm256_mul_pd(_mm256_loadu_pd(v + j * w),
                                             gather4(x, idx(j))));
        l1 = _mm256_add_pd(l1, _mm256_mul_pd(_mm256_loadu_pd(v + (j + 1) * w),
                                             gather4(x, idx(j + 1))));
        l2 = _mm256_add_pd(l2, _mm256_mul_pd(_mm256_loadu_pd(v + (j + 2) * w),
                                             gather4(x, idx(j + 2))));
        l3 = _mm256_add_pd(l3, _mm256_mul_pd(_mm256_loadu_pd(v + (j + 3) * w),
                                             gather4(x, idx(j + 3))));
    }
    for (; j < aligned_max; j += 4) {
        const __m128i in_prefix =
            _mm_cmpgt_epi32(valigned, _mm_set1_epi32(static_cast<int>(j)));
        const __m256d mask = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(in_prefix));
        l0 = step(l0, j, mask);
        l1 = step(l1, j + 1, mask);
        l2 = step(l2, j + 2, mask);
        l3 = step(l3, j + 3, mask);
    }
    __m256d acc = _mm256_add_pd(_mm256_add_pd(l0, l2), _mm256_add_pd(l1, l3));
    for (j = aligned_min; j < longest; ++j) {
        const __m128i jj = _mm_set1_epi32(static_cast<int>(j));
        // aligned <= j < len: the step is in this row's tail
        const __m128i in_tail =
            _mm_andnot_si128(_mm_cmpgt_epi32(valigned, jj), _mm_cmpgt_epi32(vlen, jj));
        acc = step(acc, j, _mm256_castsi256_pd(_mm256_cvtepi32_epi64(in_tail)));
    }
    return acc;
}

/// spmv_sliced on 256-bit registers: each slice as two 4-row halves. The
/// register width never touches a row's reduction shape: one lane is one
/// row.
void spmv_sliced_avx2(const sliced_view& m, const double* x, const double* shift,
                      double* y, std::size_t begin, std::size_t end) {
    constexpr std::size_t w = simd_slice_rows;
    for (std::size_t s = begin; s < end; ++s) {
        for (std::size_t h = 0; h < w; h += 4) {
            const std::size_t first = s * w + h;
            if (first >= m.rows) break; // padding half of the last slice
            const std::uint32_t* rows = m.row_of + first;
            __m256d acc = sliced_rows4(m.values + m.slice_ptr[s] + h,
                                       m.cols + m.slice_ptr[s] + h, m.row_len + first, x);
            if (shift != nullptr) {
                const __m128i ri = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(gather4(shift, ri), gather4(x, ri)));
            }
            alignas(32) double out[4];
            _mm256_store_pd(out, acc);
            const std::size_t count = std::min<std::size_t>(4, m.rows - first);
            for (std::size_t k = 0; k < count; ++k) y[rows[k]] = out[k];
        }
    }
}

constexpr simd_kernels avx2_table = {
    simd_isa::avx2,
    "avx2",
    axpy_x86,
    xpby_x86,
    add_scalar_x86,
    scale_x86,
    dot_x86,
    cg_update_x86,
    spmv_sliced_avx2,
    cmul_x86,
    cmul_pair_x86,
    fft_radix2_x86,
    fft_radix4_x86,
};

} // namespace

const simd_kernels* simd_avx2_table() {
#if defined(__GNUC__) || defined(__clang__)
    // The TU is compiled for AVX2, but the host CPU may still lack it.
    if (!__builtin_cpu_supports("avx2")) return nullptr;
#endif
    return &avx2_table;
}

} // namespace gpf::detail

#else // !__AVX2__

namespace gpf::detail {
const simd_kernels* simd_avx2_table() { return nullptr; }
} // namespace gpf::detail

#endif
