// Section 5 "Congestion Driven Placement": the congestion map (RUDY
// estimator) feeds the force sources; placement and congestion converge
// simultaneously. This ablation places one medium circuit with and
// without the congestion hook and reports peak/overflow congestion, then
// routes the legalized placement with the global router (L-shapes only,
// and L-shapes refined with Z-shapes) and reports its overflow and time.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common.hpp"

using namespace gpf;
using namespace gpf::bench;

namespace {

struct outcome {
    double hpwl;
    double peak;
    double overflow;
    double seconds;
    method_result mr;
    placement legal;
};

struct router_outcome {
    double overflow;
    double wirelength;
    double ms; ///< fastest of kRouterRepeats calls
};

constexpr int kRouterRepeats = 5;

router_outcome route(const netlist& nl, const placement& legal, bool z_shapes) {
    const density_map grid = compute_density(nl, legal, 1024);
    router_options opt;
    opt.use_z_shapes = z_shapes;
    routing_result r;
    double best_s = 0.0;
    for (int i = 0; i < kRouterRepeats; ++i) {
        stopwatch sw;
        r = route_global(nl, legal, grid.region(), grid.nx(), grid.ny(), opt);
        const double s = sw.elapsed_seconds();
        best_s = i == 0 ? s : std::min(best_s, s);
    }
    return {r.overflow, r.wirelength, best_s * 1e3};
}

outcome run(const netlist& nl, bool with_hook) {
    phase_capture phases;
    stopwatch sw;
    placer p(nl, {});
    congestion_options copt;
    copt.density_weight = 3.0;
    if (with_hook) p.set_density_hook(make_congestion_hook(nl, copt));
    const placement global = p.run();
    placement legal;
    legalize(nl, global, legal);

    const density_map grid = compute_density(nl, legal, 4096);
    const std::vector<double> rudy =
        rudy_map(nl, legal, grid.region(), grid.nx(), grid.ny());
    const congestion_stats stats = summarize_congestion(rudy, /*capacity=*/0.6);
    outcome out{total_hpwl(nl, legal), stats.peak, stats.overflow,
                sw.elapsed_seconds(), {}, legal};
    out.mr.hpwl = out.hpwl;
    out.mr.seconds = out.seconds;
    out.mr.iterations = p.history().size();
    phases.finish(out.mr);
    out.mr.ok = true;
    return out;
}

} // namespace

int main() {
    print_preamble("§5 — congestion-driven placement (ablation)",
                   "congestion map converges with the placement and reduces "
                   "congested hot spots");

    const suite_circuit& desc = suite_circuit_by_name("biomed");
    const netlist nl = instantiate(desc);

    const outcome off = run(nl, false);
    const outcome on = run(nl, true);

    ascii_table table({"configuration", "HPWL", "peak congestion", "overflow", "CPU [s]"});
    table.add_row({"density only", fmt_double(off.hpwl, 0), fmt_double(off.peak, 2),
                   fmt_double(off.overflow, 1), fmt_double(off.seconds, 1)});
    table.add_row({"density + congestion", fmt_double(on.hpwl, 0), fmt_double(on.peak, 2),
                   fmt_double(on.overflow, 1), fmt_double(on.seconds, 1)});
    table.print(std::cout);

    csv_writer csv("ablation_congestion.csv",
                   {"config", "hpwl", "peak", "overflow", "cpu_s"});
    csv.add_row({"off", fmt_double(off.hpwl, 1), fmt_double(off.peak, 3),
                 fmt_double(off.overflow, 2), fmt_double(off.seconds, 2)});
    csv.add_row({"on", fmt_double(on.hpwl, 1), fmt_double(on.peak, 3),
                 fmt_double(on.overflow, 2), fmt_double(on.seconds, 2)});

    json_report report("ablation_congestion");
    report.add(desc.name, "density_only", off.mr);
    report.add(desc.name, "density_plus_congestion", on.mr);
    report.set_metric("overflow_change_pct", (on.overflow / off.overflow - 1.0) * 100.0);

    std::printf("\ncongestion overflow change: %+.1f%% (HPWL change %+.1f%%)\n",
                (on.overflow / off.overflow - 1.0) * 100.0,
                (on.hpwl / off.hpwl - 1.0) * 100.0);

    // Global router on the density-only legal placement, 1024-bin grid,
    // default capacities.
    const router_outcome l_only = route(nl, off.legal, false);
    const router_outcome with_z = route(nl, off.legal, true);
    std::printf("\nglobal router on the density-only legal placement:\n");
    ascii_table router({"shapes", "overflow", "routed length", "time [ms]"});
    router.add_row({"L only", fmt_double(l_only.overflow, 1),
                    fmt_double(l_only.wirelength, 0), fmt_double(l_only.ms, 2)});
    router.add_row({"L + Z", fmt_double(with_z.overflow, 1),
                    fmt_double(with_z.wirelength, 0), fmt_double(with_z.ms, 2)});
    router.print(std::cout);
    report.set_metric("router_l_overflow", l_only.overflow);
    report.set_metric("router_z_overflow", with_z.overflow);
    report.set_metric("router_l_ms", l_only.ms);
    report.set_metric("router_z_ms", with_z.ms);
    return 0;
}
