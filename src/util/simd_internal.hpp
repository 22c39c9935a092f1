// Internal seam between the SIMD dispatcher (simd.cpp) and the per-ISA
// kernel translation units. Each ISA TU always defines its accessor; it
// returns nullptr when the TU was compiled without that instruction set
// (wrong architecture, or GPF_ENABLE_SIMD=OFF), so the dispatcher can
// probe availability with plain link-time calls — no weak symbols, no
// preprocessor coupling between translation units.
//
// The scalar reference kernels live here too: the AVX2/NEON TUs reuse
// them verbatim for loop tails and for kernels they do not vectorize,
// which keeps "bitwise identical to scalar" true by construction for
// those slots. Everything in this header is compiled with
// -ffp-contract=off in every kernel TU (see src/CMakeLists.txt).
#pragma once

#include "util/simd.hpp"

namespace gpf::detail {

/// nullptr unless compiled with AVX2 enabled (x86-64 only).
const simd_kernels* simd_avx2_table();

/// nullptr unless compiled with AVX-512F enabled (x86-64 only).
const simd_kernels* simd_avx512_table();

/// nullptr unless compiled for aarch64 NEON.
const simd_kernels* simd_neon_table();

// --- scalar reference kernels (definitions in simd.cpp) -------------------

void axpy_scalar(double alpha, const double* x, double* y, std::size_t n);
void xpby_scalar(const double* z, double beta, double* p, std::size_t n);
void accumulate_scalar(const double* src, double* dst, std::size_t n);
void add_scalar_scalar(double* dst, double c, std::size_t n);
void scale_scalar(double* p, double s, std::size_t n);
double dot_scalar(const double* a, const double* b, std::size_t n);
void cg_update_scalar(double alpha, const double* p, const double* ap,
                      const double* d, double* x, double* r, double* z,
                      std::size_t n, double* rz, double* rr);
/// sum_k v[k] * x[idx[k]] in the fixed 4-lane shape: the per-row
/// reduction every spmv_sliced tier reproduces (the tests' reference).
double dot_gather_scalar(const double* v, const std::size_t* idx,
                         const double* x, std::size_t n);
void spmv_sliced_scalar(const sliced_view& m, const double* x,
                        const double* shift, double* y, std::size_t begin,
                        std::size_t end);
void cmul_scalar(std::complex<double>* w, const std::complex<double>* s,
                 std::size_t n);
void cmul_pair_scalar(std::complex<double>* w, std::complex<double>* q,
                      const std::complex<double>* s,
                      const std::complex<double>* t, std::size_t n);
void fft_radix2_scalar(std::complex<double>* a, std::size_t n, std::size_t len,
                       const std::complex<double>* w);
void fft_radix4_scalar(std::complex<double>* a, std::size_t n,
                       std::size_t block, const std::complex<double>* wa,
                       const std::complex<double>* wb, bool inverse);

} // namespace gpf::detail
