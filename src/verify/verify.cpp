#include "verify/verify.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "util/check.hpp"

namespace gpf {

namespace {

bool finite(double v) { return std::isfinite(v); }
bool finite(const point& p) { return finite(p.x) && finite(p.y); }

std::string fmt(double v) {
    std::ostringstream os;
    os << v;
    return os.str();
}

std::string fmt(const point& p) {
    std::ostringstream os;
    os << '(' << p.x << ", " << p.y << ')';
    return os.str();
}

} // namespace

void verify_report::add(std::string where, std::string message) {
    ++total_;
    if (violations_.size() < max_recorded) {
        violations_.push_back({std::move(where), std::move(message)});
    }
}

std::string verify_report::to_string() const {
    if (ok()) return {};
    std::ostringstream os;
    os << total_ << " violation" << (total_ == 1 ? "" : "s");
    for (const violation& v : violations_) {
        os << "\n  [" << v.where << "] " << v.message;
    }
    if (total_ > violations_.size()) {
        os << "\n  ... " << (total_ - violations_.size()) << " more";
    }
    return os.str();
}

void verify_report::require(const std::string& stage) const {
    if (ok()) return;
    throw check_error("verification failed at " + stage + ": " + to_string());
}

verify_report verify_netlist(const netlist& nl, const verify_options& opt) {
    verify_report report;
    const rect region = nl.region();

    if (region.empty() || !finite(region.xlo) || !finite(region.ylo) ||
        !finite(region.xhi) || !finite(region.yhi)) {
        report.add("region", "placement region is empty or non-finite");
    }
    if (!(nl.row_height() > 0.0) || !finite(nl.row_height())) {
        report.add("region", "row height must be positive and finite, is " +
                                 fmt(nl.row_height()));
    }

    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        const std::string where = "cell " + c.name;
        if (!(c.width > 0.0) || !(c.height > 0.0) || !finite(c.width) ||
            !finite(c.height)) {
            report.add(where, "non-positive or non-finite dimensions " + fmt(c.width) +
                                  " x " + fmt(c.height));
        }
        if (!finite(c.position)) {
            report.add(where, "non-finite stored position " + fmt(c.position));
        }
        if (c.kind == cell_kind::pad && !c.fixed) {
            report.add(where, "pad must be fixed");
        }
        // Fixed core cells are density *supply sinks*; one outside the
        // region makes the demand/supply balance (∫D = 0) unattainable.
        // Pads are exempt — they live on or outside the boundary. Gated
        // with check_feasibility: a parser that read such a design read it
        // *faithfully*; the design is infeasible, not corrupt.
        if (opt.check_feasibility && c.fixed && c.kind != cell_kind::pad &&
            !region.empty() && finite(c.position)) {
            const rect r = rect::from_center(c.position, c.width, c.height);
            const rect grown(region.xlo - opt.tolerance, region.ylo - opt.tolerance,
                             region.xhi + opt.tolerance, region.yhi + opt.tolerance);
            if (!grown.contains(r)) {
                report.add(where, "fixed cell at " + fmt(c.position) +
                                      " extends outside the region");
            }
        }
    }

    for (net_id ni = 0; ni < nl.num_nets(); ++ni) {
        const net& n = nl.net_at(ni);
        const std::string where =
            "net " + (n.name.empty() ? "#" + std::to_string(ni) : n.name);
        std::unordered_set<cell_id> seen;
        for (const pin& p : n.pins) {
            if (p.cell >= nl.num_cells()) {
                report.add(where, "pin references unknown cell index " +
                                      std::to_string(p.cell));
                continue;
            }
            if (!seen.insert(p.cell).second) {
                report.add(where,
                           "duplicate pin on cell " + nl.cell_at(p.cell).name);
            }
            if (!finite(p.offset)) {
                report.add(where, "non-finite pin offset " + fmt(p.offset));
            }
        }
        if (n.driver != no_driver && n.driver >= n.pins.size()) {
            report.add(where, "driver index " + std::to_string(n.driver) +
                                  " out of range for degree " +
                                  std::to_string(n.degree()));
        }
        if (!(n.weight > 0.0) || !finite(n.weight)) {
            report.add(where, "non-positive or non-finite weight " + fmt(n.weight));
        }
    }

    if (opt.check_feasibility && !region.empty()) {
        const double core = nl.core_cell_area();
        const double available = region.area();
        if (core > available * (1.0 + 1e-9) + opt.tolerance) {
            report.add("region", "core cell area " + fmt(core) +
                                     " exceeds region area " + fmt(available) +
                                     " — density cannot integrate to zero");
        }
    }

    return report;
}

namespace {

/// Shared head of the placement validators; returns false when the
/// placement is unusable (size mismatch) and per-cell checks must stop.
bool check_placement_common(const netlist& nl, const placement& pl,
                            const verify_options& opt, verify_report& report) {
    if (pl.size() != nl.num_cells()) {
        report.add("placement", "has " + std::to_string(pl.size()) +
                                    " positions for " +
                                    std::to_string(nl.num_cells()) + " cells");
        return false;
    }
    const rect region = nl.region();
    const rect grown(region.xlo - opt.tolerance, region.ylo - opt.tolerance,
                     region.xhi + opt.tolerance, region.yhi + opt.tolerance);
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        const std::string where = "cell " + c.name;
        if (!finite(pl[i])) {
            report.add(where, "non-finite position " + fmt(pl[i]));
            continue;
        }
        if (c.fixed) {
            if (std::abs(pl[i].x - c.position.x) > opt.tolerance ||
                std::abs(pl[i].y - c.position.y) > opt.tolerance) {
                report.add(where, "fixed cell moved from " + fmt(c.position) +
                                      " to " + fmt(pl[i]));
            }
            continue;
        }
        if (c.kind != cell_kind::pad && !grown.contains(pl[i])) {
            report.add(where, "center " + fmt(pl[i]) + " outside region");
        }
    }
    return true;
}

} // namespace

verify_report verify_global_placement(const netlist& nl, const placement& pl,
                                      const verify_options& opt) {
    verify_report report;
    check_placement_common(nl, pl, opt, report);
    return report;
}

verify_report verify_legal_placement(const netlist& nl, const placement& pl,
                                     const verify_options& opt) {
    verify_report report;
    if (!check_placement_common(nl, pl, opt, report)) {
        return report;
    }
    const rect region = nl.region();
    const double row_height = nl.row_height();

    // Row alignment and containment of the full cell extent.
    std::vector<std::pair<rect, cell_id>> rects;
    rects.reserve(nl.num_cells());
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        const cell& c = nl.cell_at(i);
        if (c.kind == cell_kind::pad || !finite(pl[i])) continue;
        const rect r = rect::from_center(pl[i], c.width, c.height);
        rects.emplace_back(r, i);
        if (c.fixed) continue; // fixed cells are where they are
        const std::string where = "cell " + c.name;
        if (r.xlo < region.xlo - opt.tolerance || r.xhi > region.xhi + opt.tolerance ||
            r.ylo < region.ylo - opt.tolerance || r.yhi > region.yhi + opt.tolerance) {
            report.add(where, "extent " + fmt(point(r.xlo, r.ylo)) + "-" +
                                  fmt(point(r.xhi, r.yhi)) + " outside region");
        }
        if (c.kind == cell_kind::standard && row_height > 0.0) {
            const double rows = (r.ylo - region.ylo) / row_height;
            const double nearest = std::round(rows);
            if (std::abs(rows - nearest) * row_height > opt.tolerance) {
                report.add(where, "bottom y=" + fmt(r.ylo) +
                                      " not aligned to a row (offset " +
                                      fmt((rows - nearest) * row_height) + ")");
            }
        }
    }

    // Overlap-freedom over all non-pad cells (movable and fixed): sweep
    // over x with an active set pruned by xhi. Overlaps whose penetration
    // depth on both axes exceeds the tolerance are violations.
    std::sort(rects.begin(), rects.end(), [](const auto& a, const auto& b) {
        return a.first.xlo < b.first.xlo;
    });
    std::vector<std::size_t> active;
    for (std::size_t k = 0; k < rects.size(); ++k) {
        const rect& r = rects[k].first;
        std::size_t keep = 0;
        for (std::size_t a = 0; a < active.size(); ++a) {
            const rect& o = rects[active[a]].first;
            if (o.xhi <= r.xlo + opt.tolerance) continue; // left the window
            active[keep++] = active[a];
            const double dx = std::min(r.xhi, o.xhi) - std::max(r.xlo, o.xlo);
            const double dy = std::min(r.yhi, o.yhi) - std::max(r.ylo, o.ylo);
            if (dx > opt.tolerance && dy > opt.tolerance) {
                report.add("cell " + nl.cell_at(rects[k].second).name,
                           "overlaps cell " + nl.cell_at(rects[active[keep - 1]].second).name +
                               " by " + fmt(dx) + " x " + fmt(dy));
            }
        }
        active.resize(keep);
        active.push_back(k);
    }

    return report;
}

verify_report verify_coarsening(const netlist& fine, const netlist& coarse,
                                const std::vector<cell_id>& parent,
                                const verify_options& opt) {
    verify_report report;
    (void)opt;
    if (parent.size() != fine.num_cells()) {
        report.add("mapping", "parent map has " + std::to_string(parent.size()) +
                                  " entries for " + std::to_string(fine.num_cells()) +
                                  " fine cells");
        return report;
    }

    // Membership and the fixed-cell carry-through.
    std::vector<double> member_area(coarse.num_cells(), 0.0);
    std::vector<std::size_t> member_count(coarse.num_cells(), 0);
    for (cell_id i = 0; i < fine.num_cells(); ++i) {
        const cell& fc = fine.cell_at(i);
        if (parent[i] >= coarse.num_cells()) {
            report.add("cell " + fc.name, "parent index " + std::to_string(parent[i]) +
                                              " out of range");
            continue;
        }
        member_area[parent[i]] += fc.area();
        ++member_count[parent[i]];
        const cell& cc = coarse.cell_at(parent[i]);
        if ((fc.fixed || fc.kind == cell_kind::pad) &&
            (!cc.fixed || cc.kind != fc.kind || !(cc.position == fc.position) ||
             cc.width != fc.width || cc.height != fc.height)) {
            report.add("cell " + fc.name,
                       "fixed cell was merged or altered by coarsening");
        }
    }
    constexpr double kRelTol = 1e-9;
    for (cell_id c = 0; c < coarse.num_cells(); ++c) {
        const cell& cc = coarse.cell_at(c);
        if (member_count[c] == 0) {
            report.add("cell " + cc.name, "coarse cell has no members");
            continue;
        }
        if ((cc.fixed || cc.kind == cell_kind::pad) && member_count[c] != 1) {
            report.add("cell " + cc.name,
                       "fixed coarse cell owns " + std::to_string(member_count[c]) +
                           " members (must be exactly 1)");
        }
        const double scale = std::max(1.0, std::abs(member_area[c]));
        if (std::abs(cc.area() - member_area[c]) > kRelTol * scale) {
            report.add("cell " + cc.name, "area " + fmt(cc.area()) +
                                              " != sum of member areas " +
                                              fmt(member_area[c]));
        }
    }
    const double fine_movable = fine.movable_area();
    const double coarse_movable = coarse.movable_area();
    if (std::abs(fine_movable - coarse_movable) >
        kRelTol * std::max(1.0, fine_movable)) {
        report.add("netlist", "movable area not conserved: fine " + fmt(fine_movable) +
                                  " vs coarse " + fmt(coarse_movable));
    }

    // Pin-count conservation: re-project every fine net independently and
    // demand the exact same net and pin totals the coarse netlist carries.
    std::size_t expected_nets = 0;
    std::size_t expected_pins = 0;
    std::unordered_set<cell_id> distinct;
    for (net_id ni = 0; ni < fine.num_nets(); ++ni) {
        distinct.clear();
        for (const pin& p : fine.net_at(ni).pins) {
            if (p.cell < parent.size()) distinct.insert(parent[p.cell]);
        }
        if (distinct.size() >= 2) {
            ++expected_nets;
            expected_pins += distinct.size();
        }
    }
    if (expected_nets != coarse.num_nets()) {
        report.add("netlist", "projected net count " + std::to_string(expected_nets) +
                                  " != coarse net count " +
                                  std::to_string(coarse.num_nets()));
    }
    if (expected_pins != coarse.num_pins()) {
        report.add("netlist", "projected pin count " + std::to_string(expected_pins) +
                                  " != coarse pin count " +
                                  std::to_string(coarse.num_pins()));
    }

    const rect fr = fine.region();
    const rect cr = coarse.region();
    if (fr.xlo != cr.xlo || fr.ylo != cr.ylo || fr.xhi != cr.xhi || fr.yhi != cr.yhi) {
        report.add("region", "coarse region differs from fine region");
    }
    if (fine.row_height() != coarse.row_height()) {
        report.add("region", "coarse row height differs from fine row height");
    }
    return report;
}

namespace {

std::atomic<bool> g_forced{false};

bool env_enabled() {
    static const bool enabled = [] {
        const char* v = std::getenv("GPF_VERIFY");
        return v != nullptr && *v != '\0' && std::string(v) != "0";
    }();
    return enabled;
}

} // namespace

bool verify_checkpoints_enabled() {
    return g_forced.load(std::memory_order_relaxed) || env_enabled();
}

void force_verify_checkpoints(bool on) {
    g_forced.store(on, std::memory_order_relaxed);
}

void checkpoint_global_placement(const netlist& nl, const placement& pl,
                                 const std::string& stage, const verify_options& opt) {
    if (!verify_checkpoints_enabled()) return;
    verify_global_placement(nl, pl, opt).require(stage);
}

void checkpoint_legal_placement(const netlist& nl, const placement& pl,
                                const std::string& stage, const verify_options& opt) {
    if (!verify_checkpoints_enabled()) return;
    verify_legal_placement(nl, pl, opt).require(stage);
}

} // namespace gpf
