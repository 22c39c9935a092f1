#include "model/quadratic_system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace gpf {

namespace {

/// Linearization clamp: lengths below this fraction of (W + H) count as
/// that length, preventing weight blow-up for coincident pins.
constexpr double kMinLengthFraction = 1e-4;

/// Per-dimension linearization clamp: lengths below eps count as eps.
double linear_weight(double base, double length, double eps) {
    return base / std::max(eps, std::abs(length));
}

} // namespace

quadratic_system::quadratic_system(const netlist& nl, net_model_options options)
    : nl_(nl), options_(options) {
    var_of_.assign(nl.num_cells(), invalid_var);
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        if (!nl.cell_at(i).fixed) {
            var_of_[i] = movable_.size();
            movable_.push_back(i);
        }
    }
    num_vars_ = movable_.size();
    collect_edges();
    build_symbolic();
    find_floating_variables();
}

void quadratic_system::find_floating_variables() {
    // Union-find over variables; components containing a fixed endpoint are
    // grounded, the rest float and need an anchor.
    std::vector<std::size_t> parent(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) parent[v] = v;
    const std::function<std::size_t(std::size_t)> find = [&](std::size_t v) {
        while (parent[v] != v) {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        return v;
    };
    std::vector<char> grounded(num_vars_, 0);
    for (const edge& e : edges_) {
        if (e.var_a != edge::fixed && e.var_b != edge::fixed) {
            parent[find(e.var_a)] = find(e.var_b);
        } else {
            grounded[e.var_a != edge::fixed ? e.var_a : e.var_b] = 1;
        }
    }
    std::vector<char> root_grounded(num_vars_, 0);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (grounded[v]) root_grounded[find(v)] = 1;
    }
    floating_.assign(num_vars_, 0);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (!root_grounded[find(v)]) floating_[v] = 1;
    }
}

void quadratic_system::set_endpoint(const pin& p, std::uint32_t& var, point& at) const {
    const std::size_t v = var_of_[p.cell];
    if (v == invalid_var) {
        var = edge::fixed;
        at = nl_.cell_at(p.cell).position + p.offset;
    } else {
        var = static_cast<std::uint32_t>(v);
        at = p.offset;
    }
}

void quadratic_system::collect_edges() {
    for (net_id ni = 0; ni < nl_.num_nets(); ++ni) {
        const net& n = nl_.net_at(ni);
        const std::size_t k = n.degree();
        if (k < 2) continue;

        if (!use_star_model(options_, k)) {
            // Clique: k(k-1)/2 edges of weight w/k (paper, section 2.1).
            // The structural 1/k factor is stored; the (mutable) net weight
            // is read live in assemble() so timing-driven weight updates
            // take effect without re-collecting edges.
            const double w = clique_edge_weight(1.0, k);
            for (std::size_t a = 0; a < k; ++a) {
                for (std::size_t b = a + 1; b < k; ++b) {
                    edge e{};
                    e.weight = w;
                    e.source_net = ni;
                    set_endpoint(n.pins[a], e.var_a, e.pin_a);
                    set_endpoint(n.pins[b], e.var_b, e.pin_b);
                    // Edges between two fixed endpoints only add a
                    // constant to the objective; skip them.
                    if (e.var_a != edge::fixed || e.var_b != edge::fixed) {
                        edges_.push_back(e);
                    }
                }
            }
        } else {
            // Star: one virtual center, k edges of weight w. Eliminating
            // the center reproduces the clique with weight w/k.
            const std::size_t center = num_vars_++;
            star_net_of_var_.push_back(ni);
            for (const pin& p : n.pins) {
                edge e{};
                e.weight = 1.0;
                e.source_net = ni;
                set_endpoint(p, e.var_a, e.pin_a);
                e.var_b = static_cast<std::uint32_t>(center);
                edges_.push_back(e);
            }
        }
    }
}

void quadratic_system::build_symbolic() {
    // The sparsity pattern is fixed by the edge topology: every edge
    // touches its endpoint diagonals and, when both endpoints are movable,
    // the symmetric off-diagonal pair. Collect the distinct (i, j)
    // positions once, freeze them as the shared x/y sparsity pattern, and
    // record the value slot of every edge contribution so the numeric
    // refill is a flat accumulation loop.
    GPF_CHECK_MSG(num_vars_ < edge::fixed,
                  "edges store 32-bit variables; symbolic assembly packs (row, col) "
                  "into 64 bits");
    std::vector<std::uint64_t> positions;
    positions.reserve(4 * edges_.size() + num_vars_);
    const auto pack = [](std::size_t i, std::size_t j) {
        return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
    };
    for (std::size_t v = 0; v < num_vars_; ++v) positions.push_back(pack(v, v));
    for (const edge& e : edges_) {
        if (e.var_a != edge::fixed && e.var_b != edge::fixed) {
            positions.push_back(pack(e.var_a, e.var_b));
            positions.push_back(pack(e.var_b, e.var_a));
        }
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()), positions.end());

    std::vector<std::size_t> row_ptr(num_vars_ + 1, 0);
    std::vector<std::size_t> col_idx(positions.size());
    for (std::size_t k = 0; k < positions.size(); ++k) {
        const std::size_t i = static_cast<std::size_t>(positions[k] >> 32);
        col_idx[k] = static_cast<std::size_t>(positions[k] & 0xffffffffu);
        row_ptr[i + 1] = k + 1;
    }
    // Rows without entries inherit the previous row's end.
    for (std::size_t i = 1; i <= num_vars_; ++i) {
        row_ptr[i] = std::max(row_ptr[i], row_ptr[i - 1]);
    }
    std::vector<std::uint64_t>().swap(positions);

    // The CSR arrays above are only the hand-over format: the sliced
    // layout is the one copy that stays resident, its pattern shared by
    // the two axis matrices.
    ax_ = sliced_matrix(row_ptr, col_idx, std::vector<double>(col_idx.size(), 0.0));
    ay_ = ax_;
    GPF_CHECK_MSG(ax_.values().size() < edge::fixed, "edges store 32-bit value slots");

    // Slots are looked up in the contiguous CSR rows and then placed in
    // the sliced layout, whose rows are strided across cache lines.
    const auto slot = [&](std::size_t i, std::size_t j) {
        const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[i]);
        const auto end = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[i + 1]);
        const auto it = std::lower_bound(begin, end, j);
        GPF_CHECK(it != end && *it == j);
        return static_cast<std::uint32_t>(
            ax_.entry_slot(i, static_cast<std::size_t>(it - begin)));
    };
    diag_slot_.resize(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) diag_slot_[v] = slot(v, v);

    for (edge& e : edges_) {
        if (e.var_a != edge::fixed && e.var_b != edge::fixed) {
            e.aa = diag_slot_[e.var_a];
            e.bb = diag_slot_[e.var_b];
            e.ab = slot(e.var_a, e.var_b);
            e.ba = slot(e.var_b, e.var_a);
        } else {
            const std::uint32_t v = e.var_a != edge::fixed ? e.var_a : e.var_b;
            e.aa = diag_slot_[v];
            e.bb = e.ab = e.ba = edge::fixed;
        }
    }
}

void quadratic_system::compute_variable_positions(const placement& pl,
                                                  std::vector<point>& out) const {
    out.resize(num_vars_);
    for (std::size_t v = 0; v < movable_.size(); ++v) out[v] = pl[movable_[v]];
    for (std::size_t sv = 0; sv < star_net_of_var_.size(); ++sv) {
        const net& n = nl_.net_at(star_net_of_var_[sv]);
        point c;
        for (const pin& p : n.pins) c += pin_position(nl_, pl, p);
        c *= 1.0 / static_cast<double>(n.degree());
        out[movable_.size() + sv] = c;
    }
}

double quadratic_system::min_length() const {
    return kMinLengthFraction * (nl_.region().width() + nl_.region().height());
}

quadratic_system::stretch quadratic_system::stretch_of(const edge& e,
                                                       const std::vector<point>& var_pos,
                                                       double eps) const {
    const point pa = e.var_a == edge::fixed ? e.pin_a : var_pos[e.var_a] + e.pin_a;
    const point pb = e.var_b == edge::fixed ? e.pin_b : var_pos[e.var_b] + e.pin_b;
    const point d = pa - pb;
    const double base = e.weight * nl_.net_at(e.source_net).weight;
    if (!options_.linearize) return {d, base, base};
    return {d, linear_weight(base, d.x, eps), linear_weight(base, d.y, eps)};
}

void quadratic_system::assemble(const placement& current) {
    GPF_CHECK(current.size() == nl_.num_cells());

    // Current position of every variable (star centers at their net's pin
    // centroid) — needed only for the linearization lengths.
    compute_variable_positions(current, var_pos_);

    const double eps = min_length();

    // Numeric refill of the fixed symbolic pattern: zero the value arrays,
    // accumulate every edge in collection order (a serial loop — the
    // summation order is part of the determinism contract), then add the
    // anchors. Net weights are read live so timing-driven weight updates
    // take effect without re-collecting edges.
    std::vector<double>& vx = ax_.values();
    std::vector<double>& vy = ay_.values();
    std::fill(vx.begin(), vx.end(), 0.0);
    std::fill(vy.begin(), vy.end(), 0.0);
    bx_.assign(num_vars_, 0.0);
    by_.assign(num_vars_, 0.0);

    // Stiffness yardstick for the floating-component anchor, computed from
    // the *nets* (clique-equivalent total 2·w·(k−1) per net touching a
    // movable cell), never from the decomposed edges: the star and clique
    // forms of the same netlist must produce bitwise-identical anchors, or
    // the exact model equivalence (star center eliminated == 1/k clique)
    // breaks for floating components.
    double stiffness_acc = 0.0;
    for (net_id ni = 0; ni < nl_.num_nets(); ++ni) {
        const net& n = nl_.net_at(ni);
        if (n.degree() < 2) continue;
        bool touches_movable = false;
        for (const pin& p : n.pins) {
            if (!nl_.cell_at(p.cell).fixed) {
                touches_movable = true;
                break;
            }
        }
        if (!touches_movable) continue;
        stiffness_acc += 2.0 * n.weight * static_cast<double>(n.degree() - 1);
    }

    for (const edge& e : edges_) {
        const auto [d, wx, wy] = stretch_of(e, var_pos_, eps);
        if (e.var_a != edge::fixed && e.var_b != edge::fixed) {
            vx[e.aa] += wx;
            vx[e.bb] += wx;
            vx[e.ab] -= wx;
            vx[e.ba] -= wx;
            vy[e.aa] += wy;
            vy[e.bb] += wy;
            vy[e.ab] -= wy;
            vy[e.ba] -= wy;
            const double dx = e.pin_a.x - e.pin_b.x;
            const double dy = e.pin_a.y - e.pin_b.y;
            bx_[e.var_a] += wx * dx;
            bx_[e.var_b] -= wx * dx;
            by_[e.var_a] += wy * dy;
            by_[e.var_b] -= wy * dy;
        } else {
            // Exactly one endpoint movable: its offset against the fixed
            // endpoint's absolute position.
            const bool a_movable = e.var_a != edge::fixed;
            const std::uint32_t v = a_movable ? e.var_a : e.var_b;
            const point& off = a_movable ? e.pin_a : e.pin_b;
            const point& fixed = a_movable ? e.pin_b : e.pin_a;
            vx[e.aa] += wx;
            vy[e.aa] += wy;
            bx_[v] += wx * (off.x - fixed.x);
            by_[v] += wy * (off.y - fixed.y);
        }
    }

    // Cell variables in floating components (no fixed endpoint reachable)
    // get a weak anchor to the region center so their equilibrium is well
    // defined; everything else gets a tiny regularization for positive
    // definiteness. Star centers are never anchored: a floating center is
    // held by its edges to the (anchored) cells of its component, and an
    // anchor on the center would perturb the eliminated system away from
    // the exact 1/k clique.
    constexpr double kRegularization = 1e-9;
    const point center = nl_.region().center();
    const double mean = movable_.empty()
                            ? 0.0
                            : stiffness_acc / static_cast<double>(movable_.size());
    const double anchor = 1e-3 * std::max(1e-9, mean);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        if (floating_[v] && v < movable_.size()) {
            vx[diag_slot_[v]] += anchor;
            vy[diag_slot_[v]] += anchor;
            bx_[v] += anchor * -center.x;
            by_[v] += anchor * -center.y;
        } else {
            vx[diag_slot_[v]] += kRegularization;
            vy[diag_slot_[v]] += kRegularization;
        }
    }

    diag_x_.resize(num_vars_);
    diag_y_.resize(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        diag_x_[v] = vx[diag_slot_[v]];
        diag_y_[v] = vy[diag_slot_[v]];
    }
    assembled_ = true;
}

const std::vector<double>& quadratic_system::diagonal_x() const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before diagonal_x()");
    return diag_x_;
}

const std::vector<double>& quadratic_system::diagonal_y() const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before diagonal_y()");
    return diag_y_;
}

placement quadratic_system::solve(const placement& start, const std::vector<double>& ex,
                                  const std::vector<double>& ey,
                                  const cg_options& options, cg_result* result_x,
                                  cg_result* result_y) const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before solve()");
    GPF_CHECK(start.size() == nl_.num_cells());
    GPF_CHECK(ex.empty() || ex.size() == num_vars_);
    GPF_CHECK(ey.empty() || ey.size() == num_vars_);

    // rhs = -(b + e)
    std::vector<double> rx(num_vars_), ry(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        rx[v] = -(bx_[v] + (ex.empty() ? 0.0 : ex[v]));
        ry[v] = -(by_[v] + (ey.empty() ? 0.0 : ey[v]));
    }

    // Warm start from the current placement.
    std::vector<point> vp;
    compute_variable_positions(start, vp);
    std::vector<double> xs(num_vars_), ys(num_vars_);
    for (std::size_t v = 0; v < num_vars_; ++v) {
        xs[v] = vp[v].x;
        ys[v] = vp[v].y;
    }

    // The two axis systems are independent; solve them concurrently. Each
    // solve is deterministic on its own, so concurrency cannot change bits.
    cg_result res_x;
    cg_result res_y;
    parallel_invoke([&] { res_x = cg_solve(ax_, rx, xs, options, &diag_x_); },
                    [&] { res_y = cg_solve(ay_, ry, ys, options, &diag_y_); });
    if (result_x) *result_x = res_x;
    if (result_y) *result_y = res_y;

    placement out = start;
    for (std::size_t v = 0; v < movable_.size(); ++v) {
        out[movable_[v]] = point(xs[v], ys[v]);
    }
    return out;
}

double quadratic_system::objective(const placement& pl) const {
    GPF_CHECK_MSG(assembled_, "assemble() must be called before objective()");
    // Var positions including star centroids.
    std::vector<point> var_pos;
    compute_variable_positions(pl, var_pos);

    const double eps = min_length();
    double acc = 0.0;
    for (const edge& e : edges_) {
        const auto [d, wx, wy] = stretch_of(e, var_pos, eps);
        acc += wx * d.x * d.x + wy * d.y * d.y;
    }
    return acc;
}

std::vector<point> quadratic_system::variable_positions(const placement& pl) const {
    GPF_CHECK(pl.size() == nl_.num_cells());
    std::vector<point> pos;
    compute_variable_positions(pl, pos);
    return pos;
}

double quadratic_system::mean_stiffness() const {
    if (num_vars_ == 0) return 0.0;
    double acc = 0.0;
    for (const edge& e : edges_) {
        const double w = e.weight * nl_.net_at(e.source_net).weight;
        const int movable_ends =
            (e.var_a != edge::fixed ? 1 : 0) + (e.var_b != edge::fixed ? 1 : 0);
        acc += w * movable_ends;
    }
    return acc / static_cast<double>(num_vars_);
}

} // namespace gpf
