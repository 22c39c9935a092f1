#include <gtest/gtest.h>

#include <cstdint>

#include "core/placer.hpp"
#include "netlist/generator.hpp"
#include "route/global_router.hpp"
#include "util/check.hpp"

namespace gpf {
namespace {

/// Netlist with explicit pin positions (fixed single-cell "terminals").
struct routing_fixture {
    netlist nl;
    placement pl;

    cell_id terminal(const std::string& name, point p) {
        cell c;
        c.name = name;
        c.fixed = true;
        c.position = p;
        const cell_id id = nl.add_cell(std::move(c));
        pl.push_back(p);
        return id;
    }
    void wire(std::initializer_list<cell_id> cells) {
        net n;
        n.name = "n" + std::to_string(nl.num_nets());
        for (const cell_id id : cells) n.pins.push_back({id, {}});
        n.driver = 0;
        nl.add_net(std::move(n));
    }
};

TEST(GlobalRouter, StraightNetUsesOneLayerOnly) {
    routing_fixture f;
    f.nl.set_region(rect(0, 0, 8, 8));
    const cell_id a = f.terminal("a", point(0.5, 4.5));
    const cell_id b = f.terminal("b", point(7.5, 4.5));
    f.wire({a, b});
    const routing_result r = route_global(f.nl, f.pl, f.nl.region(), 8, 8);
    EXPECT_EQ(r.edges_routed, 1u);
    double v_total = 0.0;
    double h_total = 0.0;
    for (std::size_t i = 0; i < 64; ++i) {
        v_total += r.v_usage[i];
        h_total += r.h_usage[i];
    }
    EXPECT_DOUBLE_EQ(v_total, 0.0);
    EXPECT_DOUBLE_EQ(h_total, 8.0); // spans all 8 bins of row 4
}

TEST(GlobalRouter, LShapeConnectsDiagonalPins) {
    routing_fixture f;
    f.nl.set_region(rect(0, 0, 8, 8));
    const cell_id a = f.terminal("a", point(0.5, 0.5));
    const cell_id b = f.terminal("b", point(7.5, 7.5));
    f.wire({a, b});
    router_options opt;
    opt.use_z_shapes = false;
    const routing_result r = route_global(f.nl, f.pl, f.nl.region(), 8, 8, opt);
    // Manhattan route: 8 horizontal bins + 9 vertical bins of usage (the
    // bend bin carries both a horizontal and a vertical track, and the
    // source bin a one-bin vertical stub).
    EXPECT_NEAR(r.wirelength, 17.0, 1e-9);
    EXPECT_DOUBLE_EQ(r.overflow, 0.0);
}

TEST(GlobalRouter, AvoidsCongestedBend) {
    routing_fixture f;
    f.nl.set_region(rect(0, 0, 8, 8));
    // Pre-congest the upper-left bend of the diagonal edge with many
    // straight nets along row 7, then route the diagonal — it must choose
    // the lower bend (row 0) which is free.
    const cell_id a = f.terminal("a", point(0.5, 0.5));
    const cell_id b = f.terminal("b", point(7.5, 7.5));
    for (int k = 0; k < 12; ++k) {
        const cell_id l = f.terminal("l" + std::to_string(k), point(0.5, 7.5));
        const cell_id rr = f.terminal("r" + std::to_string(k), point(7.5, 7.5));
        f.wire({l, rr});
    }
    f.wire({a, b});
    router_options opt;
    opt.use_z_shapes = false;
    opt.h_capacity = 4.0;
    opt.v_capacity = 4.0;
    const routing_result r = route_global(f.nl, f.pl, f.nl.region(), 8, 8, opt);
    // The diagonal's horizontal run must be on row 0 (lower L), so row 0
    // carries horizontal usage.
    double row0 = 0.0;
    for (std::size_t ix = 0; ix < 8; ++ix) row0 += r.h_at(ix, 0);
    EXPECT_GT(row0, 0.0);
}

TEST(GlobalRouter, ZShapesReduceOrMatchOverflow) {
    generator_options gen;
    gen.num_cells = 200;
    gen.num_nets = 240;
    gen.num_rows = 8;
    gen.num_pads = 16;
    gen.seed = 77;
    const netlist nl = generate_circuit(gen);
    placer p(nl, {});
    const placement pl = p.run();

    router_options no_z;
    no_z.use_z_shapes = false;
    no_z.h_capacity = 3.0;
    no_z.v_capacity = 3.0;
    router_options with_z = no_z;
    with_z.use_z_shapes = true;
    const routing_result a = route_global(nl, pl, nl.region(), 32, 8, no_z);
    const routing_result b = route_global(nl, pl, nl.region(), 32, 8, with_z);
    EXPECT_LE(b.overflow, a.overflow + 1e-9);
}

TEST(GlobalRouter, ZShapesNeverRaiseOverflowAcrossSeeds) {
    // Greedy Z choices alone can raise the total overflow; the router
    // starts Z refinement from the L-only routing and keeps the better
    // state, so the property holds for every placement, not just seed 77.
    router_options no_z;
    no_z.use_z_shapes = false;
    no_z.h_capacity = 3.0;
    no_z.v_capacity = 3.0;
    router_options with_z = no_z;
    with_z.use_z_shapes = true;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        generator_options gen;
        gen.num_cells = 200;
        gen.num_nets = 240;
        gen.num_rows = 8;
        gen.num_pads = 16;
        gen.seed = seed;
        const netlist nl = generate_circuit(gen);
        placer p(nl, {});
        const placement pl = p.run();
        const routing_result a = route_global(nl, pl, nl.region(), 32, 8, no_z);
        const routing_result b = route_global(nl, pl, nl.region(), 32, 8, with_z);
        EXPECT_LE(b.overflow, a.overflow + 1e-9);
        EXPECT_EQ(a.edges_routed, b.edges_routed);
    }
}

TEST(GlobalRouter, MstDecomposesMultiPinNets) {
    routing_fixture f;
    f.nl.set_region(rect(0, 0, 8, 8));
    const cell_id a = f.terminal("a", point(0.5, 0.5));
    const cell_id b = f.terminal("b", point(7.5, 0.5));
    const cell_id c = f.terminal("c", point(0.5, 7.5));
    const cell_id d = f.terminal("d", point(7.5, 7.5));
    f.wire({a, b, c, d});
    const routing_result r = route_global(f.nl, f.pl, f.nl.region(), 8, 8);
    EXPECT_EQ(r.edges_routed, 3u); // k-1 edges for a k-pin net
    // MST avoids the diagonal: total usage ~ 3 straight edges of 8 bins.
    EXPECT_NEAR(r.wirelength, 24.0, 1e-9);
}

TEST(GlobalRouter, Deterministic) {
    generator_options gen;
    gen.num_cells = 150;
    gen.num_nets = 170;
    gen.num_rows = 6;
    gen.num_pads = 12;
    gen.seed = 5;
    const netlist nl = generate_circuit(gen);
    const placement pl = nl.centered_placement();
    const routing_result a = route_global(nl, pl, nl.region(), 32, 8);
    const routing_result b = route_global(nl, pl, nl.region(), 32, 8);
    EXPECT_EQ(a.h_usage, b.h_usage);
    EXPECT_EQ(a.v_usage, b.v_usage);
}

TEST(GlobalRouter, UtilizationMapMatchesUsage) {
    routing_fixture f;
    f.nl.set_region(rect(0, 0, 4, 4));
    const cell_id a = f.terminal("a", point(0.5, 0.5));
    const cell_id b = f.terminal("b", point(3.5, 0.5));
    f.wire({a, b});
    router_options opt;
    opt.h_capacity = 2.0;
    const routing_result r = route_global(f.nl, f.pl, f.nl.region(), 4, 4, opt);
    const std::vector<double> util = r.utilization_map(opt);
    EXPECT_DOUBLE_EQ(util[0 * 4 + 0], 0.5); // 1 track of 2
    EXPECT_DOUBLE_EQ(r.max_utilization, 0.5);
}

TEST(GlobalRouter, RejectsNonPositiveCapacity) {
    const routing_fixture f; // empty
    netlist nl;
    cell c;
    c.name = "x";
    nl.add_cell(c);
    nl.set_region(rect(0, 0, 4, 4));
    router_options opt;
    opt.h_capacity = 0.0;
    EXPECT_THROW(route_global(nl, nl.centered_placement(), nl.region(), 4, 4, opt),
                 check_error);
}

TEST(GlobalRouter, HookComposesWithPlacer) {
    generator_options gen;
    gen.num_cells = 150;
    gen.num_nets = 170;
    gen.num_rows = 6;
    gen.num_pads = 16;
    gen.seed = 31;
    const netlist nl = generate_circuit(gen);
    placer p(nl, {});
    p.set_density_hook(make_router_hook(nl));
    const placement pl = p.run();
    EXPECT_FALSE(p.history().empty());
    // Routed placement has finite overflow metrics.
    const routing_result r = route_global(nl, pl, nl.region(), 32, 8);
    EXPECT_GT(r.wirelength, 0.0);
}

} // namespace
} // namespace gpf
