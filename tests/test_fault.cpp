// The fault-injection framework (util/fault.hpp) and the recovery ladder
// it exists to exercise (core/placer.cpp, DESIGN.md §9).
//
// Every placer-side injection site must leave the run with a finite,
// verifier-clean placement and a recorded recovery trail — at 1, 2 and 4
// threads, because the sites fire from worker threads. And with nothing
// armed, the recovery layer must be invisible: placements stay bitwise
// identical across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "test_paths.hpp"
#include "gpf.hpp"

namespace gpf {
namespace {

class scoped_threads {
public:
    explicit scoped_threads(std::size_t n)
        : previous_(thread_pool::instance().num_threads()) {
        thread_pool::instance().set_num_threads(n);
    }
    ~scoped_threads() { thread_pool::instance().set_num_threads(previous_); }

private:
    std::size_t previous_;
};

/// Disarms the process-wide injector on scope exit, so a failing test
/// cannot leak an armed fault into the rest of the suite.
class scoped_fault {
public:
    scoped_fault(fault_site site, std::size_t iteration, std::uint64_t seed = 0,
                 std::size_t count = 1) {
        fault_injector::instance().arm(site, iteration, seed, count);
    }
    ~scoped_fault() { fault_injector::instance().disarm(); }
};

/// Captures warning-and-above log lines for assertions.
class scoped_log_capture {
public:
    scoped_log_capture() {
        set_log_sink([this](log_level, const std::string& message) {
            lines_.push_back(message);
        });
    }
    ~scoped_log_capture() { set_log_sink(nullptr); }

    bool contains(const std::string& needle) const {
        for (const std::string& line : lines_) {
            if (line.find(needle) != std::string::npos) return true;
        }
        return false;
    }

private:
    std::vector<std::string> lines_;
};

netlist test_circuit(std::size_t cells, std::uint64_t seed) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 6;
    opt.num_rows = 8;
    opt.num_pads = 24;
    opt.seed = seed;
    return generate_circuit(opt);
}

void expect_finite(const netlist& nl, const placement& pl, const char* what) {
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        ASSERT_TRUE(std::isfinite(pl[i].x) && std::isfinite(pl[i].y))
            << what << ": cell " << i << " at (" << pl[i].x << ", " << pl[i].y
            << ")";
    }
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, SiteNamesRoundTrip) {
    for (std::size_t s = 0; s < num_fault_sites; ++s) {
        const fault_site site = static_cast<fault_site>(s);
        const auto back = fault_site_from_name(fault_site_name(site));
        ASSERT_TRUE(back.has_value()) << fault_site_name(site);
        EXPECT_EQ(*back, site);
    }
    EXPECT_FALSE(fault_site_from_name("no_such_site").has_value());
    EXPECT_FALSE(fault_site_from_name("").has_value());
}

TEST(FaultInjector, DisarmedNeverFires) {
    fault_injector::instance().disarm();
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(fault_fires(fault_site::cg_stall));
        EXPECT_FALSE(fault_fires(fault_site::density_spike));
    }
}

TEST(FaultInjector, FiresExactlyInTheArmedWindow) {
    scoped_fault guard(fault_site::cg_nan, /*iteration=*/3, /*seed=*/7,
                       /*count=*/2);
    std::vector<bool> fired;
    for (int i = 0; i < 8; ++i) fired.push_back(fault_fires(fault_site::cg_nan));
    EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, false,
                                        false, false}));
    // Other sites do not advance the armed site's visit counter.
    EXPECT_FALSE(fault_fires(fault_site::cg_stall));
    EXPECT_EQ(fault_injector::instance().seed(), 7u);
}

TEST(FaultInjector, ArmFromSpecParsesTheGpfFaultFormat) {
    fault_injector& fi = fault_injector::instance();
    std::string error;

    ASSERT_TRUE(fi.arm_from_spec("density_spike:6", &error)) << error;
    EXPECT_TRUE(fi.armed());
    fi.disarm();

    ASSERT_TRUE(fi.arm_from_spec("cg_stall:8:1:2", &error)) << error;
    EXPECT_EQ(fi.seed(), 1u);
    fi.disarm();

    for (const char* bad : {"", "cg_stall", "cg_stall:", "unknown_site:3",
                            "cg_stall:notanumber", "cg_stall:1:2:3:4",
                            "cg_stall:1:2:0"}) {
        error.clear();
        EXPECT_FALSE(fi.arm_from_spec(bad, &error)) << bad;
        EXPECT_FALSE(fi.armed()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ------------------------------------------------------- recovery ladder

struct site_case {
    fault_site site;
    std::size_t iteration; ///< visit index, in site-local counting
    std::size_t count;
};

// Visit arithmetic at the defaults (wire_relax_interval = 1): the initial
// wire-length solve costs 2 cg visits, each transformation 4 (x/y solve +
// x/y relax); the convolution, force field and density-input sites are
// visited once per transformation (density twice: input + spread check).
// Every case below targets a mid-flight transformation, after at least one
// healthy snapshot exists.
const site_case kPlacerSites[] = {
    {fault_site::cg_stall, 10, 2},       // transformation 2's x/y solves
    {fault_site::cg_nan, 10, 2},
    {fault_site::fft_nonfinite, 2, 1},   // transformation 2's convolution
    {fault_site::force_nonfinite, 2, 1}, // transformation 2's force field
    {fault_site::density_spike, 4, 1},   // transformation 2's input density
};

TEST(FaultRecovery, EverySiteRecoversToAVerifierCleanPlacementAtEveryThreadCount) {
    const netlist nl = test_circuit(260, 11);
    for (const site_case& sc : kPlacerSites) {
        for (const std::size_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(fault_site_name(sc.site)) + " threads=" +
                         std::to_string(threads));
            scoped_threads tguard(threads);
            scoped_fault fguard(sc.site, sc.iteration, /*seed=*/1, sc.count);

            placer_options opt;
            opt.max_iterations = 12;
            placer p(nl, opt);
            const placement out = p.run();

            expect_finite(nl, out, fault_site_name(sc.site));
            verify_global_placement(nl, out).require("test_fault recovery");

            EXPECT_TRUE(p.degraded());
            ASSERT_FALSE(p.recovery_log().empty());
            EXPECT_EQ(p.recovery_log().front().action,
                      recovery_action::retry_tightened);
            EXPECT_GT(fault_injector::instance().fired(sc.site), 0u);

            // The recovery trail also lives on the iteration history.
            bool on_stats = false;
            for (const iteration_stats& it : p.history()) {
                if (!it.recovery.empty()) on_stats = true;
            }
            EXPECT_TRUE(on_stats);
        }
    }
}

TEST(FaultRecovery, PersistentFaultEscalatesThroughTheWholeLadder) {
    const netlist nl = test_circuit(220, 5);
    // A fault that keeps firing defeats the retry, consumes the available
    // snapshot and forces the degraded stop: the full rung sequence.
    scoped_fault fguard(fault_site::cg_nan, /*iteration=*/6, /*seed=*/2,
                        /*count=*/64);

    placer_options opt;
    opt.max_iterations = 12;
    placer p(nl, opt);
    const placement out = p.run();

    expect_finite(nl, out, "ladder escalation");
    EXPECT_TRUE(p.degraded());
    const std::vector<recovery_event>& events = p.recovery_log();
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events.front().action, recovery_action::retry_tightened);
    EXPECT_EQ(events.back().action, recovery_action::stop_best);
    bool rolled_back = false;
    for (const recovery_event& ev : events) {
        if (ev.action == recovery_action::rollback) rolled_back = true;
        EXPECT_FALSE(ev.reason.empty());
    }
    EXPECT_TRUE(rolled_back);
}

TEST(FaultRecovery, UnhealthyInitialSolveKeepsTheStartPlacement) {
    // CG visits 0 and 1 are the x/y initial wire-length solve. Repeating
    // that deterministic solve could not help, so the run records one
    // keep_start event and spreads from the caller's start placement.
    const netlist nl = test_circuit(200, 23);
    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        scoped_threads tguard(threads);
        const std::size_t fired_before =
            fault_injector::instance().fired(fault_site::cg_nan);
        scoped_fault fguard(fault_site::cg_nan, /*iteration=*/0, /*seed=*/3,
                            /*count=*/2);
        placer_options opt;
        opt.max_iterations = 8;
        placer p(nl, opt);
        const placement out = p.run();

        expect_finite(nl, out, "initial solve");
        verify_global_placement(nl, out).require("test_fault initial solve");
        EXPECT_EQ(fault_injector::instance().fired(fault_site::cg_nan) - fired_before, 2u);
        EXPECT_TRUE(p.degraded());
        ASSERT_EQ(p.recovery_log().size(), 1u);
        const recovery_event& ev = p.recovery_log().front();
        EXPECT_EQ(ev.action, recovery_action::keep_start);
        EXPECT_STREQ(recovery_action_name(ev.action), "keep_start");
        EXPECT_EQ(ev.iteration, 0u);
        EXPECT_NE(ev.reason.find("initial wire-length solve"), std::string::npos)
            << ev.reason;
        ASSERT_FALSE(p.history().empty());
        ASSERT_EQ(p.history().front().recovery.size(), 1u);
        EXPECT_EQ(p.history().front().recovery.front().action,
                  recovery_action::keep_start);
    }
}

TEST(FaultRecovery, NoFaultMeansBitwiseIdenticalPlacementsAcrossThreads) {
    fault_injector::instance().disarm();
    const netlist nl = test_circuit(240, 3);
    placer_options opt;
    opt.max_iterations = 10;

    placement serial;
    {
        scoped_threads guard(1);
        placer p(nl, opt);
        serial = p.run();
        EXPECT_FALSE(p.degraded());
        EXPECT_TRUE(p.recovery_log().empty());
    }
    for (const std::size_t threads : {2u, 4u}) {
        scoped_threads guard(threads);
        placer p(nl, opt);
        const placement threaded = p.run();
        ASSERT_EQ(serial.size(), threaded.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(serial[i].x, threaded[i].x) << "cell " << i << " threads=" << threads;
            ASSERT_EQ(serial[i].y, threaded[i].y) << "cell " << i << " threads=" << threads;
        }
    }
}

TEST(FaultRecovery, HealthyRunsPropagateCgResultsIntoHistory) {
    fault_injector::instance().disarm();
    const netlist nl = test_circuit(180, 9);
    placer_options opt;
    opt.max_iterations = 6;
    placer p(nl, opt);
    p.run();
    ASSERT_FALSE(p.history().empty());
    for (const iteration_stats& it : p.history()) {
        EXPECT_TRUE(std::isfinite(it.cg_residual));
        EXPECT_GT(it.cg_iterations, 0u);
        // Defaults converge on this size; a capped solve would still have
        // to stay under the stall threshold to count as healthy.
        EXPECT_LT(it.cg_residual, 0.5);
    }
}

// ------------------------------------------------------- resource guards

TEST(ResourceGuards, TimeBudgetStopsWithBestSoFar) {
    fault_injector::instance().disarm();
    const netlist nl = test_circuit(200, 13);
    placer_options opt;
    opt.time_budget = 1e-9; // expires before the first transformation
    placer p(nl, opt);
    const placement out = p.run();

    expect_finite(nl, out, "time budget");
    EXPECT_TRUE(p.degraded());
    ASSERT_FALSE(p.recovery_log().empty());
    EXPECT_EQ(p.recovery_log().back().action, recovery_action::stop_best);
    EXPECT_NE(p.recovery_log().back().reason.find("budget"), std::string::npos);
}

TEST(ResourceGuards, TransformWatchdogEscalatesIntoRecoveryLadder) {
    // Every transformation overruns an absurd budget, so the ladder must
    // climb all the way: tightened retry (also over budget), no snapshot
    // to roll back to, best-so-far stop — and the run still ends finite.
    fault_injector::instance().disarm();
    const netlist nl = test_circuit(200, 17);
    placer_options opt;
    opt.max_iterations = 3;
    opt.max_transform_seconds = 1e-9;
    scoped_log_capture capture;
    placer p(nl, opt);
    const placement out = p.run();

    expect_finite(nl, out, "watchdog");
    EXPECT_TRUE(p.degraded());
    EXPECT_TRUE(capture.contains("[watchdog]"));
    bool saw_retry = false;
    bool saw_stop = false;
    for (const recovery_event& ev : p.recovery_log()) {
        if (ev.action == recovery_action::retry_tightened) saw_retry = true;
        if (ev.action == recovery_action::stop_best) saw_stop = true;
        EXPECT_NE(ev.reason.find("watchdog"), std::string::npos) << ev.reason;
    }
    EXPECT_TRUE(saw_retry);
    EXPECT_TRUE(saw_stop);
}

TEST(ResourceGuards, TransformStallFaultTriggersOneRetryThenRecovers) {
    // The injected stall (fault_site::transform_stall) blows the budget on
    // exactly one attempt; the tightened retry runs under it, so the run
    // completes with a single retry_tightened event — the deterministic
    // regression test for the watchdog's escalation path.
    const netlist nl = test_circuit(200, 19);
    placer_options opt;
    opt.max_iterations = 6;
    opt.max_transform_seconds = 3600.0; // only the injected stall overruns
    scoped_log_capture capture;
    scoped_fault fault(fault_site::transform_stall, 2);
    placer p(nl, opt);
    const placement out = p.run();

    expect_finite(nl, out, "transform_stall");
    EXPECT_TRUE(p.degraded());
    EXPECT_TRUE(capture.contains("[watchdog]"));
    ASSERT_EQ(p.recovery_log().size(), 1u);
    EXPECT_EQ(p.recovery_log()[0].action, recovery_action::retry_tightened);
    EXPECT_NE(p.recovery_log()[0].reason.find("watchdog"), std::string::npos);
    EXPECT_EQ(fault_injector::instance().fired(fault_site::transform_stall), 1u);
}

// ----------------------------------------------------------- I/O hardening

class FaultIoTest : public ::testing::Test {
protected:
    void SetUp() override {
        base_ = testing::unique_temp_base("gpf_fault_io_test");
    }
    void TearDown() override {
        fault_injector::instance().disarm();
        for (const char* ext : {".nodes", ".nets", ".pl", ".scl"}) {
            std::filesystem::remove(base_ + ext);
        }
    }
    std::string base_;
};

TEST_F(FaultIoTest, WriteBookshelfRejectsNonFinitePositionsBeforeCreatingFiles) {
    const netlist nl = test_circuit(60, 21);
    placement pl = nl.centered_placement();
    pl[3].x = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(write_bookshelf(nl, pl, base_), io_error);
    EXPECT_FALSE(std::filesystem::exists(base_ + ".nodes"));
    EXPECT_FALSE(std::filesystem::exists(base_ + ".pl"));

    pl[3].x = std::numeric_limits<double>::infinity();
    EXPECT_THROW(write_bookshelf(nl, pl, base_), io_error);
    EXPECT_FALSE(std::filesystem::exists(base_ + ".nodes"));
}

TEST_F(FaultIoTest, ShortReadSurfacesAsTypedIoError) {
    const netlist nl = test_circuit(60, 23);
    write_bookshelf(nl, nl.centered_placement(), base_);
    {
        scoped_fault guard(fault_site::io_short_read, /*iteration=*/10);
        EXPECT_THROW(read_bookshelf(base_), io_error);
    }
    // Disarmed, the same files read back fine.
    const bookshelf_design design = read_bookshelf(base_);
    EXPECT_EQ(design.nl.num_cells(), nl.num_cells());
}

TEST(FaultLegalize, LegalizeRejectsNonFiniteGlobalPlacement) {
    const netlist nl = test_circuit(60, 27);
    placement global = nl.centered_placement();
    global[1].y = std::numeric_limits<double>::quiet_NaN();
    placement out;
    EXPECT_THROW(legalize(nl, global, out), check_error);
}

} // namespace
} // namespace gpf
