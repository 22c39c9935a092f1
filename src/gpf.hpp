// Umbrella header for the GPF library — Generic Global Placement and
// Floorplanning (Eisenmann & Johannes, DAC 1998).
//
// Quick start:
//
//   #include "gpf.hpp"
//   gpf::netlist nl = gpf::generate_circuit({.num_cells = 1000});
//   gpf::placer p(nl);
//   gpf::placement global = p.run();         // force-directed global placement
//   gpf::placement legal;
//   gpf::legalize(nl, global, legal);        // rows + detailed refinement
//   double wl = gpf::total_hpwl(nl, legal);
#pragma once

#include "baseline/annealer.hpp"
#include "baseline/gordian.hpp"
#include "cluster/coarsen.hpp"
#include "core/metrics.hpp"
#include "core/placer.hpp"
#include "density/density_map.hpp"
#include "density/empty_square.hpp"
#include "density/force_field.hpp"
#include "eco/eco.hpp"
#include "geometry/geometry.hpp"
#include "legal/legalize.hpp"
#include "linalg/cg_solver.hpp"
#include "linalg/sliced_matrix.hpp"
#include "linalg/fft.hpp"
#include "model/net_models.hpp"
#include "model/quadratic_system.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"
#include "netlist/suite.hpp"
#include "report/csv.hpp"
#include "report/svg.hpp"
#include "report/table.hpp"
#include "route/congestion.hpp"
#include "route/global_router.hpp"
#include "thermal/thermal.hpp"
#include "timing/elmore.hpp"
#include "timing/net_weighting.hpp"
#include "timing/sta.hpp"
#include "timing/timing_driven.hpp"
#include "timing/timing_graph.hpp"
#include "util/check.hpp"
#include "util/checkpoint.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/prng.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "util/supervisor.hpp"
#include "util/thread_pool.hpp"
#include "verify/fuzz.hpp"
#include "verify/verify.hpp"
