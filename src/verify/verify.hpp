// Pipeline-wide invariant verification (DESIGN.md §8).
//
// The placer's math silently assumes well-formed data everywhere: the
// density D(x,y) integrates to zero only when cell areas and the region
// are consistent, the spread stopping criterion is meaningless when the
// netlist lies about its own structure, and every legalizer postcondition
// (row alignment, no overlaps, fixed cells untouched) is an input
// precondition of the next stage. This module makes those assumptions
// checkable:
//
//   * verify_netlist          — structural invariants of the data model
//   * verify_global_placement — postconditions of global placement stages
//   * verify_legal_placement  — postconditions of legalization/refinement
//
// Each validator returns a verify_report listing *every* violation found
// (up to a cap) instead of throwing on the first, so tests and tools can
// print a complete diagnosis; report.require(stage) converts a failed
// report into a check_error.
//
// The checkpoint_* helpers are wired into placer::transform, legalize()
// and refine_detailed(); they are no-ops unless GPF_VERIFY=1 is set in
// the environment (or a test forces them on via
// force_verify_checkpoints), so production runs pay nothing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace gpf {

struct violation {
    std::string where;   ///< entity: cell/net name, "region", ...
    std::string message; ///< what is wrong with it
};

class verify_report {
public:
    void add(std::string where, std::string message);

    bool ok() const { return violations_.empty(); }
    const std::vector<violation>& violations() const { return violations_; }
    /// Total number found, including those dropped past the cap.
    std::size_t total() const { return total_; }

    /// Multi-line human-readable summary ("" when ok()).
    std::string to_string() const;

    /// Throws check_error with the full summary when !ok(); no-op otherwise.
    void require(const std::string& stage) const;

    /// Keep at most this many violations (counting continues past it).
    static constexpr std::size_t max_recorded = 32;

private:
    std::vector<violation> violations_;
    std::size_t total_ = 0;
};

struct verify_options {
    /// Absolute geometric slack in layout units: row misalignment,
    /// region protrusion and overlap penetration below this are accepted
    /// (legalizers compute row positions in floating point).
    double tolerance = 1e-6;
    /// Netlist feasibility checks (the ∫D ≈ 0 preconditions): total
    /// non-pad cell area must fit into the region, and fixed non-pad
    /// cells must lie inside it — an overfull region or a supply sink
    /// outside it makes density equalization unattainable. Off in the
    /// fuzz audit, where an infeasible file is still a *faithfully
    /// parsed* file.
    bool check_feasibility = true;
};

/// Structural invariants of the netlist itself: positive finite cell
/// dimensions, pads fixed, fixed cells inside the region, pin/driver
/// indices in range, one pin per cell per net, positive net weights,
/// finite pin offsets, non-empty region, positive row height, and (when
/// check_feasibility) the density-equalization feasibility precondition.
verify_report verify_netlist(const netlist& nl, const verify_options& opt = {});

/// Postconditions of a global-placement stage: one coordinate per cell,
/// all coordinates finite, fixed cells at their constraint position and
/// movable non-pad cell centers inside the region.
verify_report verify_global_placement(const netlist& nl, const placement& pl,
                                      const verify_options& opt = {});

/// Postconditions of a legal placement: everything the global check
/// demands, plus movable standard cells aligned to a row bottom, cell
/// rectangles inside the region, and no overlap (beyond tolerance
/// penetration) between any two non-pad cells.
verify_report verify_legal_placement(const netlist& nl, const placement& pl,
                                     const verify_options& opt = {});

/// Invariants of one multilevel coarsening step (DESIGN.md §11), checked
/// from the fine netlist, the coarse netlist and the fine→coarse cell
/// mapping alone — independent of how the clustering engine built them:
///   * every fine cell has a valid parent; fixed cells and pads map onto
///     an identical, exclusively-owned coarse cell (never merged);
///   * area conservation — each coarse movable cell's area equals the sum
///     of its members' areas, and the totals match, to relative 1e-9;
///   * pin-count conservation — re-projecting every fine net (duplicate
///     pins merged, single-cluster nets dropped) must reproduce exactly
///     the coarse netlist's net and pin counts;
///   * the coarse region and row height equal the fine ones.
verify_report verify_coarsening(const netlist& fine, const netlist& coarse,
                                const std::vector<cell_id>& parent,
                                const verify_options& opt = {});

/// True when pipeline checkpoints should run: GPF_VERIFY is set to
/// anything but "" or "0" in the environment (read once), or a test
/// forced them on. force_verify_checkpoints(false) undoes a previous
/// force but cannot override the environment.
bool verify_checkpoints_enabled();
void force_verify_checkpoints(bool on);

/// Pipeline checkpoints: no-ops unless verify_checkpoints_enabled();
/// throw check_error naming `stage` when the validator finds violations.
void checkpoint_global_placement(const netlist& nl, const placement& pl,
                                 const std::string& stage,
                                 const verify_options& opt = {});
void checkpoint_legal_placement(const netlist& nl, const placement& pl,
                                const std::string& stage,
                                const verify_options& opt = {});

} // namespace gpf
