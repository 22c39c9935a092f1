// Scalar↔SIMD bitwise-equivalence sweep (DESIGN.md §13): every dispatched
// kernel must produce bitwise identical results under every available
// GPF_SIMD tier (scalar, avx2, avx512, neon — whichever the host
// supports) and at any thread count — the same reproducibility contract
// GPF_THREADS carries (DESIGN.md §12, tests/test_parallel.cpp). Tiers the
// host cannot run (e.g. avx512 on a non-AVX-512 CPU) are skipped, not
// failed.
//
// Runs in the property binary: each check is a pure function of its seed,
// replayable with
//
//   GPF_PROPERTY_SEEDS=<n> ./gpf_property_tests --gtest_filter='*Simd*'
//
// Seed count defaults to 20 (GPF_PROPERTY_SEEDS scales the nightly
// sweep); GPF_PROPERTY_SEED_LOG accumulates reproducer lines. On hosts
// whose best ISA *is* scalar the suite is skipped — there is no second
// kernel table to compare against.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "density/density_map.hpp"
#include "linalg/cg_solver.hpp"
#include "linalg/sliced_matrix.hpp"
#include "linalg/fft.hpp"
#include "util/prng.hpp"
#include "util/simd.hpp"
#include "util/simd_internal.hpp"
#include "util/thread_pool.hpp"

namespace gpf {
namespace {

std::uint64_t seed_count() {
    if (const char* env = std::getenv("GPF_PROPERTY_SEEDS")) {
        const long n = std::atol(env);
        if (n > 0) return static_cast<std::uint64_t>(n);
    }
    return 20;
}

void log_failing_seed(const char* check, std::uint64_t seed) {
    const char* path = std::getenv("GPF_PROPERTY_SEED_LOG");
    if (path == nullptr || *path == '\0') return;
    std::ofstream out(path, std::ios::app);
    out << check << " seed=" << seed << "\n";
}

constexpr std::size_t kThreadSweep[] = {1, 2, 4, 8};

/// Every kernel tier this host can actually run: scalar always, plus each
/// vector ISA whose table is compiled in and supported by the CPU
/// (simd_set_isa refuses unavailable tiers). On an AVX-512 host this is
/// {scalar, avx2, avx512}; elsewhere the unavailable tiers drop out
/// gracefully instead of failing.
std::vector<simd_isa> available_isas() {
    const simd_isa prev = simd_active_isa();
    std::vector<simd_isa> isas{simd_isa::scalar};
    for (const simd_isa isa :
         {simd_isa::avx2, simd_isa::avx512, simd_isa::neon}) {
        if (simd_set_isa(isa)) isas.push_back(isa);
    }
    simd_set_isa(prev);
    return isas;
}

/// RAII: pins the active kernel table and the pool size, restoring both.
class scoped_config {
public:
    scoped_config(simd_isa isa, std::size_t threads)
        : prev_isa_(simd_active_isa()),
          prev_threads_(thread_pool::instance().num_threads()) {
        EXPECT_TRUE(simd_set_isa(isa));
        thread_pool::instance().set_num_threads(threads);
    }
    ~scoped_config() {
        simd_set_isa(prev_isa_);
        thread_pool::instance().set_num_threads(prev_threads_);
    }

private:
    simd_isa prev_isa_;
    std::size_t prev_threads_;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bitwise_equal(const std::vector<std::complex<double>>& a,
                   const std::vector<std::complex<double>>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(std::complex<double>)) == 0);
}

class SimdEquivalence : public ::testing::Test {
protected:
    void SetUp() override {
        if (simd_detected_isa() == simd_isa::scalar) {
            GTEST_SKIP() << "no vector ISA compiled in / supported";
        }
    }
};

TEST_F(SimdEquivalence, Fft2dBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed);
        // 32 (even log2) x 128 (odd log2): both radix-4 schedules, with
        // and without the opening radix-2 stage.
        const std::size_t n0 = 32, n1 = 128;
        std::vector<std::complex<double>> input(n0 * n1);
        for (auto& v : input) {
            v = {rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)};
        }

        std::vector<std::complex<double>> reference;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            reference = input;
            fft_2d(reference, n0, n1, false);
            fft_2d(reference, n0, n1, true);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                std::vector<std::complex<double>> a = input;
                fft_2d(a, n0, n1, false);
                fft_2d(a, n0, n1, true);
                if (!bitwise_equal(a, reference)) {
                    log_failing_seed("simd_fft2d_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(a, reference))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

TEST_F(SimdEquivalence, R2cTransformsBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 733 + 5);
        // 16 (even log2) x 128 (odd log2): both radix schedules, odd row
        // count in the packed pairing is covered by n0/2 pair + remainder
        // logic at any size.
        const std::size_t n0 = 16, n1 = 128;
        std::vector<double> input(n0 * n1);
        for (double& v : input) v = rng.next_range(-3.0, 3.0);

        std::vector<std::complex<double>> ref_half;
        std::vector<double> ref_back;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            ref_half = fft_2d_r2c(input, n0, n1);
            std::vector<std::complex<double>> scratch = ref_half;
            ref_back = fft_2d_c2r(scratch, n0, n1);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                const auto half = fft_2d_r2c(input, n0, n1);
                std::vector<std::complex<double>> scratch = half;
                const auto back = fft_2d_c2r(scratch, n0, n1);
                if (!bitwise_equal(half, ref_half) ||
                    !bitwise_equal(back, ref_back)) {
                    log_failing_seed("simd_r2c_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(half, ref_half))
                    << simd_isa_name(isa) << " threads=" << threads;
                ASSERT_TRUE(bitwise_equal(back, ref_back))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

TEST_F(SimdEquivalence, ConvolvePairBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 977 + 11);
        const std::size_t n0 = 24, n1 = 40; // non-pow2 data, cyclic padding
        const std::size_t k0 = 2 * n0 - 1, k1 = 2 * n1 - 1;
        std::vector<double> kx(k0 * k1), ky(k0 * k1), data(n0 * n1);
        for (double& v : kx) v = rng.next_range(-1.0, 1.0);
        for (double& v : ky) v = rng.next_range(-1.0, 1.0);
        for (double& v : data) v = rng.next_range(0.0, 2.0);

        std::vector<double> ref_x, ref_y;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            spectral_convolver conv(n0, n1, kx, ky);
            conv.convolve_pair(data, ref_x, ref_y);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                spectral_convolver conv(n0, n1, kx, ky);
                std::vector<double> out_x, out_y;
                conv.convolve_pair(data, out_x, out_y);
                if (!bitwise_equal(out_x, ref_x) || !bitwise_equal(out_y, ref_y)) {
                    log_failing_seed("simd_convolve_pair_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(out_x, ref_x))
                    << simd_isa_name(isa) << " threads=" << threads;
                ASSERT_TRUE(bitwise_equal(out_y, ref_y))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

/// SPD test system: 1-D Laplacian plus a random positive diagonal.
sliced_matrix laplacian_system(std::size_t n, prng& rng, std::vector<double>& b) {
    coo_builder builder(n);
    for (std::size_t i = 0; i < n; ++i) {
        builder.add_diagonal(i, 4.0 + rng.next_range(0.0, 1.0));
        if (i + 1 < n) builder.add_symmetric_pair(i, i + 1, -1.0);
    }
    b.resize(n);
    for (double& v : b) v = rng.next_range(-1.0, 1.0);
    return builder.build();
}

TEST_F(SimdEquivalence, CgSolveBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 131 + 7);
        // Above deterministic_sum_slab so dot() takes the slabbed path.
        const std::size_t n = 3000;
        std::vector<double> b;
        const sliced_matrix a = laplacian_system(n, rng, b);
        cg_options opt;
        opt.tolerance = 1e-10;

        std::vector<double> ref;
        cg_result ref_result;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            ref_result = cg_solve(a, b, ref, opt);
            ASSERT_TRUE(ref_result.converged);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                std::vector<double> x;
                const cg_result result = cg_solve(a, b, x, opt);
                if (!bitwise_equal(x, ref)) {
                    log_failing_seed("simd_cg_solve_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(x, ref))
                    << simd_isa_name(isa) << " threads=" << threads;
                EXPECT_EQ(result.iterations, ref_result.iterations);
            }
        }
    }
}

/// Sparse test matrix in CSR form for the sliced SpMV: rows of every
/// length 0..64 (so every residue mod 4 and empty rows), one row far
/// longer than the rows it shares a slice with, random lengths elsewhere,
/// and signed zeros among the values so that some products are −0.0.
struct csr_arrays {
    std::vector<std::size_t> row_ptr{0};
    std::vector<std::size_t> col_idx;
    std::vector<double> values;
};

csr_arrays sliced_test_matrix(std::size_t n, prng& rng) {
    csr_arrays m;
    std::vector<char> used(n, 0);
    const std::size_t long_row = 65 + rng.next_below(n - 65);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t len = i <= 64 ? i : rng.next_below(24);
        if (i == long_row) len = 200;
        std::vector<std::size_t> cols;
        while (cols.size() < len) {
            const std::size_t j = rng.next_below(n);
            if (!used[j]) {
                used[j] = 1;
                cols.push_back(j);
            }
        }
        for (const std::size_t j : cols) used[j] = 0;
        std::sort(cols.begin(), cols.end());
        for (const std::size_t j : cols) {
            m.col_idx.push_back(j);
            const double u = rng.next_double();
            m.values.push_back(u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.next_range(-1.0, 1.0));
        }
        m.row_ptr.push_back(m.col_idx.size());
    }
    return m;
}

TEST_F(SimdEquivalence, SlicedSpmvBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 977 + 5);
        // Not a multiple of the slice height: the last slice is padded.
        const std::size_t n = 300 + 8 * rng.next_below(40) + 1 + rng.next_below(7);
        const csr_arrays csr = sliced_test_matrix(n, rng);
        const sliced_matrix a(csr.row_ptr, csr.col_idx, csr.values);
        std::vector<double> x(n), shift(n);
        for (double& v : x) {
            const double u = rng.next_double();
            v = u < 0.1 ? 0.0 : u < 0.2 ? -0.0 : rng.next_range(-2.0, 2.0);
        }
        for (double& v : shift) {
            const double u = rng.next_double();
            v = u < 0.3 ? 0.0 : u < 0.4 ? -0.0 : rng.next_range(0.0, 3.0);
        }

        // Reference: one dot_gather_scalar per CSR row, then the shift.
        const auto reference = [&](const std::vector<double>* s) {
            std::vector<double> y(n);
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t k0 = csr.row_ptr[i];
                y[i] = detail::dot_gather_scalar(csr.values.data() + k0,
                                                 csr.col_idx.data() + k0, x.data(),
                                                 csr.row_ptr[i + 1] - k0);
                if (s != nullptr) y[i] += (*s)[i] * x[i];
            }
            return y;
        };
        const std::vector<double>* shifts[] = {nullptr, &shift};
        for (const std::vector<double>* s : shifts) {
            const std::vector<double> want = reference(s);
            for (const simd_isa isa : available_isas()) {
                for (const std::size_t threads : kThreadSweep) {
                    scoped_config cfg(isa, threads);
                    std::vector<double> y;
                    a.multiply(x, y, s);
                    if (!bitwise_equal(y, want)) {
                        log_failing_seed("simd_sliced_spmv_bitwise", seed);
                    }
                    ASSERT_TRUE(bitwise_equal(y, want))
                        << simd_isa_name(isa) << " threads=" << threads
                        << (s != nullptr ? " shifted" : "");
                }
            }
        }
    }
}

TEST_F(SimdEquivalence, DensityStampingBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 31 + 3);
        const rect region(0.0, 0.0, 100.0, 80.0);
        // Enough rects that add_rects row-ownership chunking engages on
        // every pool size in the sweep.
        std::vector<rect> rects;
        rects.reserve(1500);
        for (std::size_t i = 0; i < 1500; ++i) {
            const double w = rng.next_range(0.5, 4.0);
            const double h = rng.next_range(0.5, 4.0);
            const point c(rng.next_range(0.0, 100.0), rng.next_range(0.0, 80.0));
            rects.push_back(rect::from_center(c, w, h));
        }
        std::vector<double> field(64 * 48);
        for (double& v : field) v = rng.next_range(-0.5, 0.5);

        const auto run = [&] {
            density_map map(region, 64, 48);
            map.add_rects(rects);
            map.add_field(field, 0.25);
            map.finalize();
            std::vector<double> demand(64 * 48);
            for (std::size_t ix = 0; ix < 64; ++ix) {
                for (std::size_t iy = 0; iy < 48; ++iy) {
                    demand[ix * 48 + iy] = map.demand_at(ix, iy);
                }
            }
            return demand;
        };

        std::vector<double> reference;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            reference = run();
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                const std::vector<double> demand = run();
                if (!bitwise_equal(demand, reference)) {
                    log_failing_seed("simd_density_stamping_bitwise", seed);
                }
                ASSERT_TRUE(bitwise_equal(demand, reference))
                    << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

// Deliberately not on the SimdEquivalence fixture: the affine gather
// identity is worth checking even on scalar-only hosts (available_isas()
// then sweeps {scalar} and the property still runs the thread sweep).
TEST(SpectralConvolver, AffinePackBitwiseAcrossIsaAndThreads) {
    const std::uint64_t seeds = seed_count();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        prng rng(seed * 389 + 17);
        // Non-power-of-two shape: the cyclic padding band is non-empty, so
        // the column sweep's +0.0 padding rows are part of every transform.
        const std::size_t n0 = 24, n1 = 40;
        const std::size_t k0 = 2 * n0 - 1, k1 = 2 * n1 - 1;
        std::vector<double> kx(k0 * k1), ky(k0 * k1), data(n0 * n1);
        for (double& v : kx) v = rng.next_range(-1.0, 1.0);
        for (double& v : ky) v = rng.next_range(-1.0, 1.0);
        for (double& v : data) v = rng.next_range(0.0, 2.0);
        const double shift = -rng.next_range(0.0, 1.0);
        const double scale = rng.next_range(0.5, 2.0);

        // Reference: convolve_pair of the explicitly assembled
        // (d + shift) * scale grid, scalar kernels, 1 thread.
        std::vector<double> ref_x, ref_y;
        {
            scoped_config cfg(simd_isa::scalar, 1);
            std::vector<double> assembled(data.size());
            for (std::size_t i = 0; i < data.size(); ++i) {
                assembled[i] = (data[i] + shift) * scale;
            }
            spectral_convolver conv(n0, n1, kx, ky);
            conv.convolve_pair(assembled, ref_x, ref_y);
        }
        for (const simd_isa isa : available_isas()) {
            for (const std::size_t threads : kThreadSweep) {
                scoped_config cfg(isa, threads);
                spectral_convolver conv(n0, n1, kx, ky);
                std::vector<double> ax, ay;
                conv.convolve_pair_affine(data, shift, scale, ax, ay);
                const bool same = bitwise_equal(ax, ref_x) && bitwise_equal(ay, ref_y);
                if (!same) log_failing_seed("spectral_affine_pack_bitwise", seed);
                ASSERT_TRUE(same) << simd_isa_name(isa) << " threads=" << threads;
            }
        }
    }
}

} // namespace
} // namespace gpf
