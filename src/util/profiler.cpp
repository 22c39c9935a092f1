#include "util/profiler.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace gpf {

const char* profile_phase_name(profile_phase phase) {
    switch (phase) {
        case profile_phase::assemble: return "assemble";
        case profile_phase::density: return "density";
        case profile_phase::force_field: return "force_field";
        case profile_phase::move_force: return "move_force";
        case profile_phase::solve: return "solve";
        case profile_phase::wire_relax: return "wire_relax";
        case profile_phase::spread_check: return "spread_check";
        case profile_phase::coarsen: return "coarsen";
        case profile_phase::interpolate: return "interpolate";
        case profile_phase::other: return "other";
        case profile_phase::count_: break;
    }
    return "?";
}

const char* profile_kernel_name(profile_kernel kernel) {
    switch (kernel) {
        case profile_kernel::fft_forward: return "fft_fwd";
        case profile_kernel::fft_pointwise: return "fft_mul";
        case profile_kernel::fft_inverse: return "fft_inv";
        case profile_kernel::stamp: return "stamp";
        case profile_kernel::count_: break;
    }
    return "?";
}

const char* cg_solve_kind_name(cg_solve_kind kind) {
    switch (kind) {
        case cg_solve_kind::initial: return "initial";
        case cg_solve_kind::hold_and_move: return "hold_and_move";
        case cg_solve_kind::wire_relax: return "wire_relax";
        case cg_solve_kind::count_: break;
    }
    return "?";
}

namespace {

/// Sum of one axis over every solve kind.
template <class Counts>
std::size_t axis_total(const Counts& counts, std::size_t axis) {
    std::size_t total = 0;
    for (const auto& kind : counts) total += kind[axis];
    return total;
}

} // namespace

profiler& profiler::instance() {
    static profiler p;
    return p;
}

profiler::profiler() {
    const char* env = std::getenv("GPF_PROFILE");
    if (env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
        enabled_ = true;
        trace_ = true;
    }
}

void profiler::add_sample(profile_phase phase, double seconds) {
    const std::size_t i = static_cast<std::size_t>(phase);
    totals_[i].seconds += seconds;
    totals_[i].calls += 1;
    current_[i] += seconds;
}

void profiler::add_kernel_sample(profile_kernel kernel, double seconds,
                                 double flops) {
    const std::size_t i = static_cast<std::size_t>(kernel);
    kernels_[i].seconds += seconds;
    kernels_[i].flops += flops;
    kernels_[i].calls += 1;
    kernels_current_[i].seconds += seconds;
    kernels_current_[i].flops += flops;
    kernels_current_[i].calls += 1;
}

void profiler::add_cg_iterations(cg_solve_kind kind, std::size_t x_iters,
                                 std::size_t y_iters) {
    const std::size_t k = static_cast<std::size_t>(kind);
    cg_total_[k][0] += x_iters;
    cg_total_[k][1] += y_iters;
    cg_current_[k][0] += x_iters;
    cg_current_[k][1] += y_iters;
}

std::size_t profiler::total_cg_x() const { return axis_total(cg_total_, 0); }

std::size_t profiler::total_cg_y() const { return axis_total(cg_total_, 1); }

std::size_t profiler::total_cg(cg_solve_kind kind) const {
    const auto& counts = cg_total_[static_cast<std::size_t>(kind)];
    return counts[0] + counts[1];
}

void profiler::end_transform() {
    ++transforms_;
    if (trace_) {
        double total = 0.0;
        for (const double s : current_) total += s;
        std::fprintf(stderr, "GPF_PROFILE transform=%zu", transforms_);
        for (std::size_t i = 0; i < num_profile_phases; ++i) {
            std::fprintf(stderr, " %s=%.3fms",
                         profile_phase_name(static_cast<profile_phase>(i)),
                         current_[i] * 1e3);
        }
        for (std::size_t i = 0; i < num_profile_kernels; ++i) {
            const kernel_totals& k = kernels_current_[i];
            if (k.calls == 0) continue;
            const double gfs = k.seconds > 0.0 ? k.flops / k.seconds * 1e-9 : 0.0;
            std::fprintf(stderr, " %s=%.3fms/%.2fGF",
                         profile_kernel_name(static_cast<profile_kernel>(i)),
                         k.seconds * 1e3, gfs);
        }
        std::fprintf(stderr, " cg_x=%zu cg_y=%zu", axis_total(cg_current_, 0),
                     axis_total(cg_current_, 1));
        for (std::size_t k = 0; k < num_cg_solve_kinds; ++k) {
            std::fprintf(stderr, " cg_%s=%zu",
                         cg_solve_kind_name(static_cast<cg_solve_kind>(k)),
                         cg_current_[k][0] + cg_current_[k][1]);
        }
        std::fprintf(stderr, " total=%.3fms\n", total * 1e3);
    }
    current_.fill(0.0);
    kernels_current_.fill(kernel_totals{});
    cg_current_ = cg_counts{};
}

double profiler::total_seconds(profile_phase phase) const {
    return totals_[static_cast<std::size_t>(phase)].seconds;
}

std::size_t profiler::calls(profile_phase phase) const {
    return totals_[static_cast<std::size_t>(phase)].calls;
}

double profiler::kernel_seconds(profile_kernel kernel) const {
    return kernels_[static_cast<std::size_t>(kernel)].seconds;
}

double profiler::kernel_flops(profile_kernel kernel) const {
    return kernels_[static_cast<std::size_t>(kernel)].flops;
}

std::size_t profiler::kernel_calls(profile_kernel kernel) const {
    return kernels_[static_cast<std::size_t>(kernel)].calls;
}

std::string profiler::summary() const {
    std::ostringstream os;
    double total = 0.0;
    for (const phase_totals& t : totals_) total += t.seconds;
    os << "phase profile over " << transforms_ << " transformation(s), "
       << "total " << total * 1e3 << " ms\n";
    char line[128];
    for (std::size_t i = 0; i < num_profile_phases; ++i) {
        const phase_totals& t = totals_[i];
        if (t.calls == 0) continue;
        const double pct = total > 0.0 ? 100.0 * t.seconds / total : 0.0;
        std::snprintf(line, sizeof line, "  %-12s %10.3f ms  %5.1f%%  (%zu calls)\n",
                      profile_phase_name(static_cast<profile_phase>(i)),
                      t.seconds * 1e3, pct, t.calls);
        os << line;
    }
    for (std::size_t i = 0; i < num_profile_kernels; ++i) {
        const kernel_totals& k = kernels_[i];
        if (k.calls == 0) continue;
        const char* name = profile_kernel_name(static_cast<profile_kernel>(i));
        if (k.flops > 0.0) {
            const double gfs = k.seconds > 0.0 ? k.flops / k.seconds * 1e-9 : 0.0;
            std::snprintf(line, sizeof line,
                          "  kernel %-8s %10.3f ms  %6.2f GFLOP/s  (%zu calls)\n", name,
                          k.seconds * 1e3, gfs, k.calls);
        } else { // no flop count (e.g. stamp): no throughput column
            std::snprintf(line, sizeof line, "  kernel %-8s %10.3f ms  (%zu calls)\n",
                          name, k.seconds * 1e3, k.calls);
        }
        os << line;
    }
    os << "  cg iterations: x=" << total_cg_x() << " y=" << total_cg_y();
    for (std::size_t k = 0; k < num_cg_solve_kinds; ++k) {
        os << ' ' << cg_solve_kind_name(static_cast<cg_solve_kind>(k)) << '='
           << total_cg(static_cast<cg_solve_kind>(k));
    }
    os << "\n";
    return os.str();
}

void profiler::reset() {
    totals_.fill(phase_totals{});
    current_.fill(0.0);
    kernels_.fill(kernel_totals{});
    kernels_current_.fill(kernel_totals{});
    transforms_ = 0;
    cg_total_ = cg_counts{};
    cg_current_ = cg_counts{};
}

} // namespace gpf
