// Component micro-benchmarks (google-benchmark): the per-transformation
// building blocks of the placer and both legalizers, so performance
// regressions in the substrates are visible independently of table runs.
//
// The *_threads benchmarks sweep the worker-pool size (1, 2, N=hardware)
// over the threaded kernels so BENCH_*.json captures the speedup
// trajectory; results are bitwise identical across the sweep by the
// determinism contract (tests/test_parallel.cpp).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>

#include "gpf.hpp"

namespace {

using namespace gpf;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
// Sanitized benchmark builds pin the kernel dispatch to the scalar
// reference (results are bitwise identical; the intrinsic paths are not
// what the sanitizer is here to check). setenv with overwrite=0 keeps an
// explicit GPF_SIMD from the caller authoritative.
const int force_scalar_simd = [] { return setenv("GPF_SIMD", "scalar", 0); }();
#endif

/// Pool size for a benchmark arg: 1, 2, ... with 0 meaning "hardware".
void use_threads(std::int64_t arg) {
    thread_pool::instance().set_num_threads(
        arg == 0 ? thread_pool::default_thread_count()
                 : static_cast<std::size_t>(arg));
}

void thread_sweep(benchmark::internal::Benchmark* b) {
    b->Arg(1)->Arg(2)->Arg(0); // 0 = hardware concurrency
    b->ArgName("threads");
}

netlist make_circuit(std::size_t cells) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 8;
    opt.num_rows = std::max<std::size_t>(8, cells / 60);
    opt.num_pads = 64;
    opt.seed = 12345;
    return generate_circuit(opt);
}

void bm_density_stamping(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    const placement pl = nl.initial_placement();
    for (auto _ : state) {
        benchmark::DoNotOptimize(compute_density(nl, pl, 4096));
    }
}
BENCHMARK(bm_density_stamping)->Arg(1000)->Arg(4000);

void bm_force_field_fft(benchmark::State& state) {
    const netlist nl = make_circuit(2000);
    placer p(nl, {});
    const placement pl = p.run();
    const density_map d = compute_density(nl, pl, static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(compute_force_field(d));
    }
}
BENCHMARK(bm_force_field_fft)->Arg(1024)->Arg(4096)->Arg(16384);

void bm_system_assemble(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    const placement pl = nl.centered_placement();
    quadratic_system sys(nl);
    for (auto _ : state) {
        sys.assemble(pl);
        benchmark::DoNotOptimize(sys.matrix_x().nonzeros());
    }
}
BENCHMARK(bm_system_assemble)->Arg(1000)->Arg(4000);

void bm_cg_solve(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    const placement pl = nl.centered_placement();
    quadratic_system sys(nl);
    sys.assemble(pl);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sys.solve(pl, {}, {}));
    }
}
BENCHMARK(bm_cg_solve)->Arg(1000)->Arg(4000);

/// One CG operator apply of the hold-and-move solve, y = C x + diag(C) ⊙ x,
/// on the assembled x-axis matrix (the sliced SpMV; GPF_SIMD picks the
/// kernel tier).
void bm_spmv_shifted(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    quadratic_system sys(nl);
    sys.assemble(nl.centered_placement());
    const sliced_matrix& a = sys.matrix_x();
    std::vector<double> x(a.rows()), y;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 97) - 48.0;
    for (auto _ : state) {
        a.multiply(x, y, &sys.diagonal_x());
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.counters["nnz"] = static_cast<double>(a.nonzeros());
    state.counters["stored"] = static_cast<double>(a.stored());
}
BENCHMARK(bm_spmv_shifted)->Arg(8000)->Arg(20000)->Unit(benchmark::kMicrosecond);

void bm_placement_transformation(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    placer p(nl, {});
    placement pl = p.run();
    for (auto _ : state) {
        pl = p.transform(pl);
        benchmark::DoNotOptimize(pl.size());
    }
}
BENCHMARK(bm_placement_transformation)->Arg(1000)->Arg(4000);

void bm_tetris_legalize(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    placer p(nl, {});
    const placement global = p.run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(tetris_legalize(nl, global));
    }
}
BENCHMARK(bm_tetris_legalize)->Arg(1000)->Arg(4000);

void bm_abacus_legalize(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    placer p(nl, {});
    const placement global = p.run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(abacus_legalize(nl, global));
    }
}
BENCHMARK(bm_abacus_legalize)->Arg(1000)->Arg(4000);

void bm_sta(benchmark::State& state) {
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    const placement pl = nl.initial_placement();
    const timing_graph graph(nl);
    const timing_config config;
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_sta(graph, pl, config));
    }
}
BENCHMARK(bm_sta)->Arg(1000)->Arg(4000);

// --------------------------------------------------------------------------
// Thread sweeps over the parallel kernels (arg = pool size, 0 = hardware).
// The acceptance pipeline: density stamping + FFT force field on a 256×256
// grid, the per-transformation hot path of section 3.3 / eq. (9).
// --------------------------------------------------------------------------

void bm_density_forcefield_pipeline_threads(benchmark::State& state) {
    use_threads(state.range(0));
    const netlist nl = make_circuit(8000);
    const placement pl = nl.initial_placement();
    for (auto _ : state) {
        const density_map d = compute_density_grid(nl, pl, 256, 256);
        benchmark::DoNotOptimize(compute_force_field(d));
    }
    state.SetLabel("256x256 grid");
    use_threads(1);
}
BENCHMARK(bm_density_forcefield_pipeline_threads)->Apply(thread_sweep)
    ->Unit(benchmark::kMillisecond);

/// The same pipeline with the iteration-persistent spectral calculator the
/// placer loop uses (DESIGN.md §7): kernel spectra are built once, each
/// iteration pays only the stamping plus the two packed transforms.
void bm_density_forcefield_pipeline_cached_threads(benchmark::State& state) {
    use_threads(state.range(0));
    const netlist nl = make_circuit(8000);
    const placement pl = nl.initial_placement();
    force_field_calculator calc(nl.region(), 256, 256);
    for (auto _ : state) {
        const density_map d = compute_density_grid(nl, pl, 256, 256);
        benchmark::DoNotOptimize(calc.compute(d));
    }
    state.SetLabel("256x256 grid, cached kernels");
    use_threads(1);
}
BENCHMARK(bm_density_forcefield_pipeline_cached_threads)->Apply(thread_sweep)
    ->Unit(benchmark::kMillisecond);

void bm_density_stamping_threads(benchmark::State& state) {
    use_threads(state.range(0));
    const netlist nl = make_circuit(8000);
    const placement pl = nl.initial_placement();
    for (auto _ : state) {
        benchmark::DoNotOptimize(compute_density_grid(nl, pl, 256, 256));
    }
    use_threads(1);
}
BENCHMARK(bm_density_stamping_threads)->Apply(thread_sweep);

void bm_force_field_fft_threads(benchmark::State& state) {
    use_threads(state.range(0));
    const netlist nl = make_circuit(2000);
    const placement pl = nl.initial_placement();
    const density_map d = compute_density_grid(nl, pl, 256, 256);
    for (auto _ : state) {
        benchmark::DoNotOptimize(compute_force_field(d));
    }
    use_threads(1);
}
BENCHMARK(bm_force_field_fft_threads)->Apply(thread_sweep)
    ->Unit(benchmark::kMillisecond);

void bm_cg_solve_threads(benchmark::State& state) {
    use_threads(state.range(0));
    const netlist nl = make_circuit(4000);
    const placement pl = nl.centered_placement();
    quadratic_system sys(nl);
    sys.assemble(pl);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sys.solve(pl, {}, {}));
    }
    use_threads(1);
}
BENCHMARK(bm_cg_solve_threads)->Apply(thread_sweep);

void bm_placement_transformation_threads(benchmark::State& state) {
    use_threads(state.range(0));
    const netlist nl = make_circuit(4000);
    placer p(nl, {});
    placement pl = p.run();
    for (auto _ : state) {
        pl = p.transform(pl);
        benchmark::DoNotOptimize(pl.size());
    }
    use_threads(1);
}
BENCHMARK(bm_placement_transformation_threads)->Apply(thread_sweep);

/// The transformation with every iteration-persistent cache disabled — the
/// pre-caching hot path, kept as the baseline the cached loop is measured
/// against (placements are bitwise identical either way).
void bm_placement_transformation_nocache(benchmark::State& state) {
    placer_options opt;
    opt.iteration_cache = false;
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    placer p(nl, opt);
    placement pl = p.run();
    for (auto _ : state) {
        pl = p.transform(pl);
        benchmark::DoNotOptimize(pl.size());
    }
}
BENCHMARK(bm_placement_transformation_nocache)->Arg(1000)->Arg(4000);

/// Warm-started hold-and-move solves (placer_options::warm_start_cg):
/// deterministic but not bitwise comparable to the cold-start default, so
/// it is benchmarked separately rather than folded into the cached loop.
void bm_placement_transformation_warmstart(benchmark::State& state) {
    placer_options opt;
    opt.warm_start_cg = true;
    const netlist nl = make_circuit(static_cast<std::size_t>(state.range(0)));
    placer p(nl, opt);
    placement pl = p.run();
    for (auto _ : state) {
        pl = p.transform(pl);
        benchmark::DoNotOptimize(pl.size());
    }
}
BENCHMARK(bm_placement_transformation_warmstart)->Arg(1000)->Arg(4000);

void bm_rudy(benchmark::State& state) {
    const netlist nl = make_circuit(2000);
    const placement pl = nl.initial_placement();
    for (auto _ : state) {
        benchmark::DoNotOptimize(rudy_map(nl, pl, nl.region(), 128, 32));
    }
}
BENCHMARK(bm_rudy);

} // namespace

BENCHMARK_MAIN();
