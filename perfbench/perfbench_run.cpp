// perfbench_run — one process of the placement benchmark (see README.md).
//
//   perfbench_run gen   --cells N --seed S --out BASE
//       Generate a synthetic circuit with the `gpf_place --cells` recipe and
//       write BASE.{nodes,nets,pl,scl}. Untimed; run.py calls it once per
//       circuit before any timed run.
//
//   perfbench_run place --in BASE --bins B --levels L
//                       [--trace] [--force-fail] [--setup-only]
//       One timed run of the full flow on the Bookshelf files at BASE:
//       read_bookshelf → placer construction → placer::run() → legalize()
//       → verify_legal_placement. Prints one line of JSON with the times,
//       counts and correctness facts; run.py aggregates those lines.
//
// Every layer is timed from outside, around its public entry point. With
// --trace the library's profiler is enabled, no-op weight/step hooks
// timestamp the transformation boundaries, and write_bookshelf of the legal
// placement to BASE_out.{nodes,nets,pl,scl} is timed;
// without it the run is exactly what a `gpf_place --bookshelf` user pays.
// --force-fail moves one cell off its row after legalization so that the
// correctness check must report it (used by smoke_test.py). --setup-only
// stops after placer construction: an extra fresh-process sample of the
// set-up time.
//
// Thread count comes from GPF_THREADS, which run.py sets per workload.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "core/placer.hpp"
#include "legal/legalize.hpp"
#include "linalg/fft.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/generator.hpp"
#include "util/logging.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "verify/verify.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

struct args {
    std::string mode;
    std::string in, out;
    std::size_t cells = 0;
    std::size_t bins = 4096;
    std::size_t levels = 0;
    std::uint64_t seed = 1;
    bool trace = false;
    bool force_fail = false;
    bool setup_only = false;
};

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: perfbench_run gen --cells N --seed S --out BASE\n"
                 "       perfbench_run place --in BASE --bins B --levels L\n"
                 "                           [--trace] [--force-fail]\n"
                 "                           [--setup-only]\n");
    std::exit(64);
}

std::uint64_t parse_u64(const char* text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') usage();
    return v;
}

args parse(int argc, char** argv) {
    if (argc < 2) usage();
    args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--in") a.in = value();
        else if (arg == "--out") a.out = value();
        else if (arg == "--cells") a.cells = parse_u64(value());
        else if (arg == "--bins") a.bins = parse_u64(value());
        else if (arg == "--levels") a.levels = parse_u64(value());
        else if (arg == "--seed") a.seed = parse_u64(value());
        else if (arg == "--trace") a.trace = true;
        else if (arg == "--force-fail") a.force_fail = true;
        else if (arg == "--setup-only") a.setup_only = true;
        else usage();
    }
    if (a.mode == "gen" && (a.cells == 0 || a.out.empty())) usage();
    if (a.mode == "place" && a.in.empty()) usage();
    if (a.mode != "gen" && a.mode != "place") usage();
    return a;
}

int generate(const args& a) {
    gpf::generator_options gen;
    gen.num_cells = a.cells;
    gen.num_nets = a.cells + a.cells / 8;
    gen.num_rows = std::max<std::size_t>(8, a.cells / 60);
    gen.num_pads = 64;
    gen.seed = a.seed;
    const gpf::netlist nl = gpf::generate_circuit(gen);
    gpf::write_bookshelf(nl, nl.initial_placement(), a.out);
    return 0;
}

std::uintmax_t input_bytes(const std::string& base) {
    std::uintmax_t total = 0;
    for (const char* ext : {".nodes", ".nets", ".pl", ".scl"}) {
        std::error_code ec;
        const std::uintmax_t n = std::filesystem::file_size(base + ext, ec);
        if (!ec) total += n;
    }
    return total;
}

/// Median of a copy; 0 for an empty sample.
double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Accumulates the `"key": value` pairs of the one-line JSON result.
class json_line {
public:
    void num(const char* key, double v) {
        char buf[64];
        if (std::isfinite(v)) {
            std::snprintf(buf, sizeof buf, "%.17g", v);
        } else {
            std::snprintf(buf, sizeof buf, "null");
        }
        add(key, buf);
    }
    void count(const char* key, std::uintmax_t v) { add(key, std::to_string(v)); }
    void flag(const char* key, bool v) { add(key, v ? "true" : "false"); }
    void str(const char* key, const std::string& v) {
        std::string quoted = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\') quoted += '\\';
            quoted += (c == '\n' || c == '\r') ? ' ' : c;
        }
        add(key, quoted + "\"");
    }
    void print() const { std::printf("{%s}\n", body_.c_str()); }

private:
    void add(const char* key, const std::string& value) {
        if (!body_.empty()) body_ += ", ";
        body_ += "\"";
        body_ += key;
        body_ += "\": ";
        body_ += value;
    }
    std::string body_;
};

int place(const args& a) {
    gpf::profiler& prof = gpf::profiler::instance();
    prof.set_enabled(a.trace);
    json_line out;

    // --- setup: netlist layer, then the model layer inside the placer ----
    const auto t_read = clock_type::now();
    gpf::bookshelf_design design = gpf::read_bookshelf(a.in);
    const double read_s = seconds_since(t_read);
    const gpf::netlist& nl = design.nl;

    gpf::placer_options popt;
    popt.density_bins = a.bins;
    popt.coarsen_levels = a.levels;
    const auto t_build = clock_type::now();
    gpf::placer p(nl, popt);
    const double build_s = seconds_since(t_build);
    if (a.setup_only) {
        out.num("read_s", read_s);
        out.num("build_s", build_s);
        out.print();
        return 0;
    }

    // --- hooks: timestamps of transformation boundaries (traced only) ----
    std::vector<double> hook_starts, transform_ms;
    const auto t_global = clock_type::now();
    if (a.trace) {
        p.set_weight_hook([&](const gpf::placement&) {
            hook_starts.push_back(seconds_since(t_global));
        });
        p.set_step_callback([&](const gpf::iteration_stats&, const gpf::placement&) {
            if (!hook_starts.empty()) {
                transform_ms.push_back(1e3 *
                                       (seconds_since(t_global) - hook_starts.back()));
            }
            return true;
        });
    }

    // --- place: core (with cluster, density, linalg inside), then legal --
    const gpf::placement global = p.run();
    const double global_s = seconds_since(t_global);

    const auto t_legal = clock_type::now();
    gpf::placement legal;
    const gpf::legalize_result lr = gpf::legalize(nl, global, legal);
    const double legalize_s = seconds_since(t_legal);

    if (a.force_fail) {
        for (gpf::cell_id i = 0; i < nl.num_cells(); ++i) {
            if (!nl.cell_at(i).fixed) {
                legal[i].y += 0.5 * nl.row_height();
                break;
            }
        }
    }

    // --- verify: outside place_s ----------------------------------------
    const auto t_verify = clock_type::now();
    const gpf::verify_report report = gpf::verify_legal_placement(nl, legal);
    const double verify_s = seconds_since(t_verify);

    out.num("read_s", read_s);
    out.num("build_s", build_s);
    out.num("global_s", global_s);
    out.num("legalize_s", legalize_s);
    out.num("verify_s", verify_s);
    out.num("hpwl_refined", lr.hpwl_refined);
    out.num("hpwl_legal", lr.hpwl_legal);
    out.count("transforms", p.history().size());
    out.flag("degraded", p.degraded());
    out.count("violations", report.total());
    if (!report.ok()) out.str("violation", report.violations().front().where + ": " +
                                           report.violations().front().message);

    if (a.trace) {
        const auto t_write = clock_type::now();
        gpf::write_bookshelf(nl, legal, a.in + "_out");
        out.num("write_s", seconds_since(t_write));

        using ph = gpf::profile_phase;
        using kn = gpf::profile_kernel;
        double phase_sum = 0.0;
        for (std::size_t i = 0; i < gpf::num_profile_phases; ++i) {
            const auto phase = static_cast<ph>(i);
            const double s = prof.total_seconds(phase);
            phase_sum += s;
            out.num((std::string("phase.") + gpf::profile_phase_name(phase)).c_str(), s);
        }
        out.num("phase_sum_s", phase_sum);
        double fft_flops = 0.0;
        for (const kn k : {kn::fft_forward, kn::fft_pointwise, kn::fft_inverse}) {
            fft_flops += prof.kernel_flops(k);
        }
        out.num("kernel.stamp_s", prof.kernel_seconds(kn::stamp));
        out.num("kernel.fft_fwd_s", prof.kernel_seconds(kn::fft_forward));
        out.num("kernel.fft_mul_s", prof.kernel_seconds(kn::fft_pointwise));
        out.num("kernel.fft_inv_s", prof.kernel_seconds(kn::fft_inverse));
        out.num("kernel.fft_flops", fft_flops);
        out.count("cg_iters", prof.total_cg_x() + prof.total_cg_y());
        out.count("attempted_transforms", prof.transforms());

        std::size_t coarse_transforms = 0;
        double coarse_s = 0.0;
        for (const gpf::level_summary& lvl : p.level_log()) {
            if (lvl.level == 0) continue;
            coarse_transforms += lvl.iterations;
            coarse_s += lvl.seconds;
        }
        out.count("accepted_transforms", p.history().size() + coarse_transforms);
        out.count("coarse_transforms", coarse_transforms);
        out.num("coarse_s", coarse_s);

        std::size_t unconverged = 0;
        for (const gpf::iteration_stats& s : p.history()) unconverged += !s.cg_converged;
        out.count("cg_unconverged", unconverged);
        out.count("recovery_events", p.recovery_log().size());
        out.count("nnz", p.system().matrix_x().nonzeros());
        out.count("matrix_rows", p.system().matrix_x().rows());
        out.num("transform_ms_p50", median(transform_ms));

        const gpf::fft_cache_stats fft = gpf::fft_plan_cache_stats();
        out.count("fft_plan_hits", fft.hits);
        out.count("fft_plan_misses", fft.misses);
        out.count("refine_swaps", lr.refine.swaps);
        out.count("refine_relocations", lr.refine.relocations);
        out.count("refine_passes", lr.refine.passes);
        out.count("input_bytes", input_bytes(a.in));
        out.str("simd", gpf::simd_isa_name(gpf::simd_active_isa()));
        out.count("threads", gpf::thread_pool::instance().num_threads());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0); // KiB on Linux
    out.print();
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const args a = parse(argc, argv);
    gpf::set_log_level(gpf::log_level::warning);
    try {
        return a.mode == "gen" ? generate(a) : place(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_run: %s\n", e.what());
        return 1;
    }
}
