// Net models mapping hypergraph nets onto two-pin spring edges.
//
// The paper models a k-pin net as a clique of k(k-1)/2 edges with weight
// 1/k (times the net weight). The star model replaces large cliques by a
// virtual center node with k edges of the net weight — after eliminating
// the center it is mathematically identical to the clique, but assembles
// O(k) instead of O(k²) entries. `hybrid` switches to star above a degree
// threshold.
//
// Linearization (Sigl/Doll/Johannes, DAC 1991 — reference [14] of the
// paper) rescales each edge weight by the inverse of its current length,
// separately per dimension, so that the quadratic objective approximates
// linear wire length over the iteration.
#pragma once

#include <cstddef>

namespace gpf {

enum class net_model_kind {
    clique,
    star,
    hybrid,
};

struct net_model_options {
    net_model_kind kind = net_model_kind::clique;
    std::size_t star_threshold = 16; ///< hybrid: degree above which star is used
    bool linearize = true;           ///< Gordian-L style 1/length reweighting
};

/// True when a net of the given degree should be modeled as a star under
/// these options.
bool use_star_model(const net_model_options& options, std::size_t degree);

/// Clique edge weight for a net of total weight w and degree k (the
/// paper's 1/k scaling).
double clique_edge_weight(double net_weight, std::size_t degree);

} // namespace gpf
