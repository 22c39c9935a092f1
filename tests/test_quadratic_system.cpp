#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "model/net_models.hpp"
#include "model/quadratic_system.hpp"
#include "netlist/generator.hpp"
#include "util/check.hpp"

namespace gpf {
namespace {

/// Two movable cells between two fixed pads on a line:
/// pad(0,5) — a — b — pad(10,5).
netlist chain_netlist() {
    netlist nl;
    nl.set_region(rect(0, 0, 10, 10));
    cell a;
    a.name = "a";
    nl.add_cell(a);
    cell b;
    b.name = "b";
    nl.add_cell(b);
    cell p0;
    p0.name = "p0";
    p0.kind = cell_kind::pad;
    p0.position = point(0, 5);
    nl.add_cell(p0);
    cell p1;
    p1.name = "p1";
    p1.kind = cell_kind::pad;
    p1.position = point(10, 5);
    nl.add_cell(p1);

    const auto two_pin = [&](const std::string& name, cell_id x, cell_id y) {
        net n;
        n.name = name;
        n.pins = {{x, {}}, {y, {}}};
        n.driver = 0;
        nl.add_net(std::move(n));
    };
    two_pin("n0", 2, 0);
    two_pin("n1", 0, 1);
    two_pin("n2", 1, 3);
    return nl;
}

TEST(QuadraticSystem, VariableMapping) {
    const netlist nl = chain_netlist();
    const quadratic_system sys(nl);
    EXPECT_EQ(sys.num_movable(), 2u);
    EXPECT_EQ(sys.num_vars(), 2u);
    EXPECT_EQ(sys.var_of(0), 0u);
    EXPECT_EQ(sys.var_of(1), 1u);
    EXPECT_EQ(sys.var_of(2), invalid_var); // pad
    EXPECT_EQ(sys.cell_of_var(0), 0u);
}

TEST(QuadraticSystem, SolveBeforeAssembleThrows) {
    const netlist nl = chain_netlist();
    const quadratic_system sys(nl);
    EXPECT_THROW(sys.solve(nl.centered_placement(), {}, {}), check_error);
}

TEST(QuadraticSystem, ChainEquilibriumIsEquispaced) {
    const netlist nl = chain_netlist();
    net_model_options opt;
    opt.linearize = false; // pure quadratic: exact thirds
    quadratic_system sys(nl, opt);
    sys.assemble(nl.centered_placement());
    const placement pl = sys.solve(nl.centered_placement(), {}, {});
    EXPECT_NEAR(pl[0].x, 10.0 / 3.0, 1e-6);
    EXPECT_NEAR(pl[1].x, 20.0 / 3.0, 1e-6);
    EXPECT_NEAR(pl[0].y, 5.0, 1e-6);
    EXPECT_NEAR(pl[1].y, 5.0, 1e-6);
}

TEST(QuadraticSystem, MatricesAreSymmetric) {
    const netlist nl = chain_netlist();
    quadratic_system sys(nl);
    sys.assemble(nl.centered_placement());
    EXPECT_TRUE(sys.matrix_x().is_symmetric());
    EXPECT_TRUE(sys.matrix_y().is_symmetric());
}

TEST(QuadraticSystem, AdditionalForceDisplacesSolution) {
    // A single movable cell tied to one fixed pad; force e displaces the
    // equilibrium by -e/w per the sign convention (e enters C p + d + e = 0).
    netlist nl;
    nl.set_region(rect(0, 0, 10, 10));
    cell a;
    a.name = "a";
    nl.add_cell(a);
    cell p;
    p.name = "p";
    p.kind = cell_kind::pad;
    p.position = point(5, 5);
    nl.add_cell(p);
    net n;
    n.pins = {{0, {}}, {1, {}}};
    n.driver = 0;
    nl.add_net(n);

    net_model_options opt;
    opt.linearize = false;
    quadratic_system sys(nl, opt);
    sys.assemble(nl.centered_placement());

    // Edge weight for a 2-pin clique net: 1/2.
    const std::vector<double> ex{-1.0};
    const std::vector<double> ey{0.5};
    const placement pl = sys.solve(nl.centered_placement(), ex, ey);
    EXPECT_NEAR(pl[0].x, 5.0 + 1.0 / 0.5, 1e-6);
    EXPECT_NEAR(pl[0].y, 5.0 - 0.5 / 0.5, 1e-6);
}

TEST(QuadraticSystem, AnyPlacementIsReachableWithSuitableForces) {
    // Section 2.2: "any given placement can fulfill equation (3) if the
    // additional forces are chosen appropriately": e = -(C p + d).
    const netlist nl = chain_netlist();
    net_model_options opt;
    opt.linearize = false;
    quadratic_system sys(nl, opt);
    placement target = nl.centered_placement();
    target[0] = point(2.0, 7.0);
    target[1] = point(9.0, 1.0);
    sys.assemble(target);

    const std::vector<point> vp = sys.variable_positions(target);
    std::vector<double> px(sys.num_vars()), py(sys.num_vars());
    for (std::size_t v = 0; v < sys.num_vars(); ++v) {
        px[v] = vp[v].x;
        py[v] = vp[v].y;
    }
    std::vector<double> ax, ay;
    sys.matrix_x().multiply(px, ax);
    sys.matrix_y().multiply(py, ay);
    std::vector<double> ex(sys.num_vars()), ey(sys.num_vars());
    for (std::size_t v = 0; v < sys.num_vars(); ++v) {
        ex[v] = -(ax[v] + sys.rhs_x()[v]);
        ey[v] = -(ay[v] + sys.rhs_y()[v]);
    }
    const placement recovered = sys.solve(nl.centered_placement(), ex, ey);
    EXPECT_NEAR(recovered[0].x, 2.0, 1e-6);
    EXPECT_NEAR(recovered[0].y, 7.0, 1e-6);
    EXPECT_NEAR(recovered[1].x, 9.0, 1e-6);
    EXPECT_NEAR(recovered[1].y, 1.0, 1e-6);
}

TEST(QuadraticSystem, PinOffsetsShiftEquilibrium) {
    netlist nl;
    nl.set_region(rect(0, 0, 10, 10));
    cell a;
    a.name = "a";
    a.width = 2.0;
    nl.add_cell(a);
    cell p;
    p.name = "p";
    p.kind = cell_kind::pad;
    p.position = point(5, 5);
    nl.add_cell(p);
    net n;
    // Pin at the cell's right edge: center settles so pin meets the pad.
    n.pins = {{0, point(1.0, 0.0)}, {1, {}}};
    n.driver = 0;
    nl.add_net(n);

    net_model_options opt;
    opt.linearize = false;
    quadratic_system sys(nl, opt);
    sys.assemble(nl.centered_placement());
    const placement pl = sys.solve(nl.centered_placement(), {}, {});
    EXPECT_NEAR(pl[0].x, 4.0, 1e-6);
}

TEST(QuadraticSystem, StarModelMatchesCliqueSolution) {
    // Star with edge weight w eliminates to a clique with w/k — identical
    // equilibria for the cells.
    generator_options gen;
    gen.num_cells = 120;
    gen.num_nets = 140;
    gen.num_rows = 6;
    gen.num_pads = 16;
    gen.max_degree = 12;
    const netlist nl = generate_circuit(gen);

    net_model_options clique_opt;
    clique_opt.kind = net_model_kind::clique;
    clique_opt.linearize = false;
    quadratic_system clique_sys(nl, clique_opt);
    clique_sys.assemble(nl.centered_placement());
    cg_options cg;
    cg.tolerance = 1e-12;
    const placement clique_pl = clique_sys.solve(nl.centered_placement(), {}, {}, cg);

    net_model_options star_opt;
    star_opt.kind = net_model_kind::star;
    star_opt.linearize = false;
    quadratic_system star_sys(nl, star_opt);
    star_sys.assemble(nl.centered_placement());
    const placement star_pl = star_sys.solve(nl.centered_placement(), {}, {}, cg);

    EXPECT_GT(star_sys.num_vars(), star_sys.num_movable()); // has star centers

    // The two formulations share the same objective (the star eliminates to
    // the clique), so the star solution must be clique-optimal. Positions
    // can differ measurably along near-flat directions (dangling cells), so
    // the position check is loose and the objective check is the tight one.
    const double obj_clique = clique_sys.objective(clique_pl);
    const double obj_star = clique_sys.objective(star_pl);
    EXPECT_NEAR(obj_star / obj_clique, 1.0, 1e-6);
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (nl.cell_at(i).fixed) continue;
        EXPECT_NEAR(clique_pl[i].x, star_pl[i].x, 0.5);
        EXPECT_NEAR(clique_pl[i].y, star_pl[i].y, 0.5);
    }
}

TEST(QuadraticSystem, HybridUsesStarsOnlyAboveThreshold) {
    generator_options gen;
    gen.num_cells = 100;
    gen.num_nets = 120;
    gen.num_rows = 6;
    gen.num_pads = 8;
    const netlist nl = generate_circuit(gen);

    net_model_options opt;
    opt.kind = net_model_kind::hybrid;
    opt.star_threshold = 5;
    const quadratic_system sys(nl, opt);
    std::size_t big_nets = 0;
    for (const net& n : nl.nets()) {
        if (n.degree() > 5) ++big_nets;
    }
    EXPECT_EQ(sys.num_vars() - sys.num_movable(), big_nets);
}

TEST(QuadraticSystem, LiveNetWeightUpdates) {
    netlist nl = chain_netlist();
    net_model_options opt;
    opt.linearize = false;
    quadratic_system sys(nl, opt);
    sys.assemble(nl.centered_placement());
    const double d0 = sys.matrix_x().at(0, 0);

    nl.net_at(0).weight = 4.0; // heavier pull toward the left pad
    sys.assemble(nl.centered_placement());
    const double d1 = sys.matrix_x().at(0, 0);
    EXPECT_GT(d1, d0);

    const placement pl = sys.solve(nl.centered_placement(), {}, {});
    EXPECT_LT(pl[0].x, 10.0 / 3.0); // cell a pulled toward pad p0
}

TEST(QuadraticSystem, LinearizationReducesLongEdgeInfluence) {
    const netlist nl = chain_netlist();
    net_model_options lin;
    lin.linearize = true;
    quadratic_system sys(nl, lin);
    // Current placement: cell a near the left pad, so edge n0 is short and
    // n1 long → n0's weight per unit length is larger.
    placement current = nl.centered_placement();
    current[0] = point(1.0, 5.0);
    current[1] = point(9.0, 5.0);
    sys.assemble(current);
    const placement pl = sys.solve(current, {}, {});
    // With 1/length weights the equilibrium is dragged toward the current
    // positions relative to the pure quadratic thirds.
    EXPECT_LT(pl[0].x, 10.0 / 3.0);
    EXPECT_GT(pl[1].x, 20.0 / 3.0);
}

TEST(QuadraticSystem, ObjectiveDecreasesAtSolution) {
    const netlist nl = chain_netlist();
    net_model_options opt;
    opt.linearize = false;
    quadratic_system sys(nl, opt);
    const placement start = nl.centered_placement();
    sys.assemble(start);
    const placement solved = sys.solve(start, {}, {});
    EXPECT_LE(sys.objective(solved), sys.objective(start) + 1e-9);
}

/// Netlist for the assembly oracle: grounded movable cells 0..19, floating
/// movable cells 20..24 (no net reaches a fixed cell from them), fixed
/// blocks 25 and 26 and pads 27..30. Every pin but one pair sits off its
/// cell center, nets carry weights other than 1, and one net joins two
/// fixed cells only (a constant, so no edge).
netlist oracle_netlist() {
    netlist nl;
    nl.set_region(rect(0, 0, 40, 30));
    for (int i = 0; i < 25; ++i) {
        cell c;
        c.name = "m" + std::to_string(i);
        c.width = 2.0;
        nl.add_cell(c);
    }
    const auto add_fixed = [&](cell_kind kind, point at) {
        cell c;
        c.name = "f" + std::to_string(nl.num_cells());
        c.kind = kind;
        c.fixed = true;
        c.position = at;
        c.width = kind == cell_kind::block ? 4.0 : 1.0;
        nl.add_cell(c);
    };
    add_fixed(cell_kind::block, point(10, 20));
    add_fixed(cell_kind::block, point(30, 8));
    add_fixed(cell_kind::pad, point(0, 12));
    add_fixed(cell_kind::pad, point(40, 17));
    add_fixed(cell_kind::pad, point(22, 0));
    add_fixed(cell_kind::pad, point(15, 30));

    std::mt19937 rng(19);
    std::uniform_real_distribution<double> offset(-1.0, 1.0);
    const auto add_net = [&](const std::vector<cell_id>& cells, double weight) {
        net n;
        n.name = "n" + std::to_string(nl.num_nets());
        n.weight = weight;
        for (const cell_id c : cells) n.pins.push_back({c, point(offset(rng), offset(rng))});
        nl.add_net(std::move(n));
    };
    std::uniform_int_distribution<cell_id> grounded(0, 19);
    std::uniform_int_distribution<cell_id> fixed_cell(25, 30);
    for (std::size_t k = 0; k < 30; ++k) {
        std::vector<cell_id> cells;
        while (cells.size() < 2 + k % 6) {
            const cell_id c = cells.size() % 3 == 2 ? fixed_cell(rng) : grounded(rng);
            if (std::find(cells.begin(), cells.end(), c) == cells.end()) cells.push_back(c);
        }
        add_net(cells, 0.5 + 0.25 * static_cast<double>(k % 5));
    }
    add_net({25, 27}, 1.0);
    add_net({20, 21}, 1.0);
    add_net({21, 22, 23}, 2.0);
    add_net({20, 21, 22, 23, 24}, 1.5);
    // Coincident pins (the placement stacks cells 0 and 1): the
    // linearization clamp decides this weight.
    net stacked;
    stacked.name = "stacked";
    stacked.pins = {{0, {}}, {1, {}}};
    nl.add_net(std::move(stacked));
    return nl;
}

/// Dense C and d of A p + b = 0 for one axis, with the sum of the
/// magnitudes of every term each entry received (the scale of its
/// rounding error).
struct reference_axis {
    std::vector<double> c, c_scale, d, d_scale;
};

/// Assembly straight from the netlist pins: every pin pair (clique) or
/// pin-center pair (star) is a spring w·(pa − pb)², pa the pin's position
/// with p the variable's position for a movable cell, the constant
/// pin position for a fixed one.
std::pair<reference_axis, reference_axis> reference_assembly(
    const netlist& nl, const quadratic_system& sys, const net_model_options& opt,
    const placement& pl) {
    const std::size_t n = sys.num_vars();
    reference_axis rx{std::vector<double>(n * n, 0.0), std::vector<double>(n * n, 0.0),
                      std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
    reference_axis ry = rx;
    const double eps = 1e-4 * (nl.region().width() + nl.region().height());

    struct end {
        std::size_t var; ///< invalid_var for a fixed pin
        point at;        ///< current absolute pin position
        point constant;  ///< offset from the variable, or the fixed position
    };
    const auto pin_end = [&](const pin& p) {
        const cell& c = nl.cell_at(p.cell);
        if (c.fixed) return end{invalid_var, c.position + p.offset, c.position + p.offset};
        return end{sys.var_of(p.cell), pl[p.cell] + p.offset, p.offset};
    };
    const auto add = [&](reference_axis& r, const end& a, const end& b, double w,
                         double ca, double cb) {
        const auto stamp = [&](std::size_t i, std::size_t j, double v) {
            r.c[i * n + j] += v;
            r.c_scale[i * n + j] += std::abs(v);
        };
        const auto rhs = [&](std::size_t i, double v) {
            r.d[i] += v;
            r.d_scale[i] += std::abs(v);
        };
        if (a.var != invalid_var) {
            stamp(a.var, a.var, w);
            rhs(a.var, w * (ca - cb));
        }
        if (b.var != invalid_var) {
            stamp(b.var, b.var, w);
            rhs(b.var, w * (cb - ca));
        }
        if (a.var != invalid_var && b.var != invalid_var) {
            stamp(a.var, b.var, -w);
            stamp(b.var, a.var, -w);
        }
    };
    const auto spring = [&](const end& a, const end& b, double base) {
        if (a.var == invalid_var && b.var == invalid_var) return;
        const double wx =
            opt.linearize ? base / std::max(eps, std::abs(a.at.x - b.at.x)) : base;
        const double wy =
            opt.linearize ? base / std::max(eps, std::abs(a.at.y - b.at.y)) : base;
        add(rx, a, b, wx, a.constant.x, b.constant.x);
        add(ry, a, b, wy, a.constant.y, b.constant.y);
    };

    // Floating components: union the movable cells of every net, ground
    // those a net also joins to a fixed pin.
    std::vector<cell_id> root(nl.num_cells());
    std::iota(root.begin(), root.end(), cell_id{0});
    const auto find = [&](cell_id c) {
        while (root[c] != c) c = root[c];
        return c;
    };
    std::vector<char> grounded(nl.num_cells(), 0);
    double stiffness = 0.0;
    std::size_t star_var = sys.num_movable();
    for (const net& nt : nl.nets()) {
        const std::size_t k = nt.degree();
        if (k < 2) continue;
        std::vector<end> ends;
        for (const pin& p : nt.pins) ends.push_back(pin_end(p));
        const bool has_fixed = std::any_of(ends.begin(), ends.end(),
                                           [](const end& e) { return e.var == invalid_var; });
        cell_id first_movable = invalid_cell;
        for (const pin& p : nt.pins) {
            if (nl.cell_at(p.cell).fixed) continue;
            if (first_movable == invalid_cell) first_movable = p.cell;
            root[find(p.cell)] = find(first_movable);
            if (has_fixed) grounded[p.cell] = 1;
        }
        if (first_movable != invalid_cell) {
            stiffness += 2.0 * nt.weight * static_cast<double>(k - 1);
        }

        if (use_star_model(opt, k)) {
            point centroid;
            for (const end& e : ends) centroid += e.at;
            centroid *= 1.0 / static_cast<double>(k);
            const end center{star_var++, centroid, point()};
            for (const end& e : ends) spring(e, center, nt.weight);
        } else {
            for (std::size_t a = 0; a < k; ++a) {
                for (std::size_t b = a + 1; b < k; ++b) {
                    spring(ends[a], ends[b], nt.weight / static_cast<double>(k));
                }
            }
        }
    }
    EXPECT_EQ(star_var, n);

    std::vector<char> root_grounded(nl.num_cells(), 0);
    for (cell_id c = 0; c < nl.num_cells(); ++c) {
        if (grounded[c]) root_grounded[find(c)] = 1;
    }
    const double anchor = 1e-3 * std::max(1e-9, stiffness / static_cast<double>(
                                                                sys.num_movable()));
    const point middle = nl.region().center();
    std::size_t num_floating = 0;
    for (std::size_t v = 0; v < n; ++v) {
        const bool floating =
            v < sys.num_movable() && !root_grounded[find(sys.cell_of_var(v))];
        num_floating += floating ? 1 : 0;
        const double w = floating ? anchor : 1e-9;
        for (reference_axis* r : {&rx, &ry}) {
            r->c[v * n + v] += w;
            r->c_scale[v * n + v] += w;
        }
        if (floating) {
            rx.d[v] -= anchor * middle.x;
            rx.d_scale[v] += std::abs(anchor * middle.x);
            ry.d[v] -= anchor * middle.y;
            ry.d_scale[v] += std::abs(anchor * middle.y);
        }
    }
    EXPECT_EQ(num_floating, 5u);
    return {rx, ry};
}

TEST(QuadraticSystem, AssemblyMatchesPinPairReference) {
    netlist nl = oracle_netlist();
    placement pl = nl.initial_placement();
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> ux(2.0, 38.0);
    std::uniform_real_distribution<double> uy(2.0, 28.0);
    for (cell_id c = 0; c < nl.num_cells(); ++c) {
        if (!nl.cell_at(c).fixed) pl[c] = point(ux(rng), uy(rng));
    }
    pl[1] = pl[0];

    for (const net_model_kind kind :
         {net_model_kind::clique, net_model_kind::star, net_model_kind::hybrid}) {
        for (const bool linearize : {true, false}) {
            SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                            << " linearize " << linearize);
            net_model_options opt;
            opt.kind = kind;
            opt.star_threshold = 4;
            opt.linearize = linearize;
            quadratic_system sys(nl, opt);
            sys.assemble(pl);
            if (kind != net_model_kind::clique) EXPECT_GT(sys.num_vars(), sys.num_movable());

            const auto [rx, ry] = reference_assembly(nl, sys, opt, pl);
            const std::size_t n = sys.num_vars();
            const auto check = [&](const sliced_matrix& a, const std::vector<double>& b,
                                   const reference_axis& r, const char* axis) {
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        EXPECT_NEAR(a.at(i, j), r.c[i * n + j], 1e-12 * r.c_scale[i * n + j])
                            << axis << " C(" << i << ", " << j << ")";
                    }
                    EXPECT_NEAR(b[i], r.d[i], 1e-12 * r.d_scale[i]) << axis << " d(" << i << ")";
                }
            };
            check(sys.matrix_x(), sys.rhs_x(), rx, "x");
            check(sys.matrix_y(), sys.rhs_y(), ry, "y");
        }
    }
}

TEST(QuadraticSystem, MeanStiffnessPositive) {
    const netlist nl = chain_netlist();
    const quadratic_system sys(nl);
    EXPECT_GT(sys.mean_stiffness(), 0.0);
}

} // namespace
} // namespace gpf
