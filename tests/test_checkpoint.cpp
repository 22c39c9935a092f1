// The durable checkpoint substrate (util/checkpoint.hpp) and the placer's
// crash-safe resume built on it (DESIGN.md §14).
//
// The envelope tests corrupt files the way real crashes do — truncation,
// bit flips, version skew, a foreign digest — and assert every defect is
// rejected with a typed checkpoint_error, never half-loaded. The resume
// tests assert the core guarantee: a run killed at transformation k and
// resumed from its checkpoint produces the bitwise-identical placement,
// history and recovery log of the run that was never interrupted.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "test_paths.hpp"
#include "gpf.hpp"

namespace gpf {
namespace {

netlist test_circuit(std::size_t cells, std::uint64_t seed) {
    generator_options opt;
    opt.num_cells = cells;
    opt.num_nets = cells + cells / 6;
    opt.num_rows = 8;
    opt.num_pads = 24;
    opt.seed = seed;
    return generate_circuit(opt);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class CheckpointFile : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = testing::unique_temp_base("gpf_checkpoint") + ".ckpt";
    }
    void TearDown() override {
        fault_injector::instance().disarm();
        std::filesystem::remove(path_);
        std::filesystem::remove(path_ + ".prev");
        std::filesystem::remove(path_ + ".tmp");
    }
    std::string path_;
};

TEST(Crc32, MatchesKnownVectors) {
    // The zlib convention: crc32("123456789") == 0xCBF43926.
    const char digits[] = "123456789";
    EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(ByteCodec, RoundTripsPrimitivesBitwise) {
    byte_writer w;
    w.put_u8(0xAB);
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_f64(-0.0);
    w.put_f64(std::numeric_limits<double>::quiet_NaN());
    w.put_f64(std::numeric_limits<double>::infinity());
    w.put_string("hello\0world");
    w.put_f64_vector({1.5, -2.25, 1e-300});

    byte_reader r(w.bytes());
    EXPECT_EQ(r.get_u8(), 0xAB);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(std::signbit(r.get_f64()));
    EXPECT_TRUE(std::isnan(r.get_f64()));
    EXPECT_TRUE(std::isinf(r.get_f64()));
    EXPECT_EQ(r.get_string(), std::string("hello\0world", 5));
    EXPECT_EQ(r.get_f64_vector(), (std::vector<double>{1.5, -2.25, 1e-300}));
    EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodec, OverReadThrowsInsteadOfYieldingGarbage) {
    byte_writer w;
    w.put_u32(7);
    byte_reader r(w.bytes());
    EXPECT_THROW(r.get_u64(), checkpoint_error);
    byte_reader r2(w.bytes());
    r2.get_u32();
    EXPECT_THROW(r2.get_u8(), checkpoint_error);
}

TEST_F(CheckpointFile, WriteReadRoundTrip) {
    write_checkpoint_file(path_, 0x1122334455667788ull, "resumable state");
    const checkpoint_blob blob = read_checkpoint_file(path_);
    EXPECT_EQ(blob.digest, 0x1122334455667788ull);
    EXPECT_EQ(blob.payload, "resumable state");
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(CheckpointFile, SecondWriteRotatesThePreviousGeneration) {
    write_checkpoint_file(path_, 1, "generation one");
    write_checkpoint_file(path_, 1, "generation two");
    EXPECT_EQ(read_checkpoint_file(path_).payload, "generation two");
    EXPECT_EQ(read_checkpoint_file(path_ + ".prev").payload, "generation one");
}

TEST_F(CheckpointFile, MissingFileIsATypedError) {
    EXPECT_THROW(read_checkpoint_file(path_), checkpoint_error);
    // checkpoint_error derives from io_error: gpf_place maps it to exit 3.
    EXPECT_THROW(read_checkpoint_file(path_), io_error);
}

TEST_F(CheckpointFile, TruncationAnywhereIsRejected) {
    write_checkpoint_file(path_, 42, "payload that will be torn apart");
    const std::string intact = read_file(path_);
    // Every proper prefix must fail validation — header cut, payload cut,
    // trailer cut.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{20}, intact.size() / 2,
          intact.size() - 1}) {
        write_file(path_, intact.substr(0, keep));
        EXPECT_THROW(read_checkpoint_file(path_), checkpoint_error)
            << "prefix of " << keep << " bytes validated";
    }
}

TEST_F(CheckpointFile, BitFlipFailsTheCrc) {
    write_checkpoint_file(path_, 42, "sensitive resumable state");
    std::string bytes = read_file(path_);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    write_file(path_, bytes);
    try {
        read_checkpoint_file(path_);
        FAIL() << "corrupted checkpoint validated";
    } catch (const checkpoint_error& e) {
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
    }
}

TEST_F(CheckpointFile, VersionSkewIsRejectedByName) {
    write_checkpoint_file(path_, 42, "state");
    std::string bytes = read_file(path_);
    bytes[8] = static_cast<char>(checkpoint_format_version + 1); // version u32 LE
    write_file(path_, bytes);
    try {
        read_checkpoint_file(path_);
        FAIL() << "version-skewed checkpoint validated";
    } catch (const checkpoint_error& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
            << e.what();
    }
}

TEST_F(CheckpointFile, ForeignMagicIsRejected) {
    write_file(path_, "UCLA nodes 1.0\nNumNodes : 4\n plus padding to clear the "
                      "minimum envelope size guard of the reader");
    try {
        read_checkpoint_file(path_);
        FAIL() << "non-checkpoint file validated";
    } catch (const checkpoint_error& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
            << e.what();
    }
}

TEST_F(CheckpointFile, FallbackLoadsPreviousWhenNewestIsTorn) {
    write_checkpoint_file(path_, 7, "older generation");
    write_checkpoint_file(path_, 7, "newer generation");
    const std::string intact = read_file(path_);
    write_file(path_, intact.substr(0, intact.size() / 2));

    std::string loaded_from;
    const checkpoint_blob blob = read_checkpoint_with_fallback(path_, &loaded_from);
    EXPECT_EQ(blob.payload, "older generation");
    EXPECT_EQ(loaded_from, path_ + ".prev");
    EXPECT_EQ(probe_checkpoint(path_), checkpoint_presence::previous);
}

TEST_F(CheckpointFile, FallbackErrorNamesBothDefects) {
    // Neither generation exists: the error must describe both failures so
    // the operator sees the whole picture, not just the newest file.
    try {
        read_checkpoint_with_fallback(path_);
        FAIL() << "absent checkpoint validated";
    } catch (const checkpoint_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path_), std::string::npos) << what;
        EXPECT_NE(what.find(".prev"), std::string::npos) << what;
    }
    EXPECT_EQ(probe_checkpoint(path_), checkpoint_presence::none);
}

TEST_F(CheckpointFile, TornWriteFaultLeavesInvalidNewestAndValidPrevious) {
    write_checkpoint_file(path_, 9, "healthy generation");
    fault_injector::instance().arm(fault_site::checkpoint_torn_write, 0);
    write_checkpoint_file(path_, 9, "torn generation");
    fault_injector::instance().disarm();

    EXPECT_THROW(read_checkpoint_file(path_), checkpoint_error);
    EXPECT_EQ(read_checkpoint_file(path_ + ".prev").payload, "healthy generation");
    EXPECT_EQ(probe_checkpoint(path_), checkpoint_presence::previous);
}

TEST_F(CheckpointFile, AtomicWriterNeverExposesAPartialFile) {
    write_file(path_, "previous contents");
    {
        atomic_writer writer(path_);
        writer.stream() << "half-written replacement";
        // No commit: the writer goes out of scope as an exception unwind
        // would leave it.
    }
    EXPECT_EQ(read_file(path_), "previous contents");
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));

    {
        atomic_writer writer(path_);
        writer.stream() << "complete replacement";
        writer.commit();
    }
    EXPECT_EQ(read_file(path_), "complete replacement");
}

TEST_F(CheckpointFile, HeartbeatRoundTrip) {
    EXPECT_FALSE(read_heartbeat(path_).has_value());
    write_heartbeat(path_, 41);
    write_heartbeat(path_, 42);
    ASSERT_TRUE(read_heartbeat(path_).has_value());
    EXPECT_EQ(*read_heartbeat(path_), 42u);
}

// ------------------------------------------------------- placer resume

class CheckpointResume : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = testing::unique_temp_base("gpf_resume") + ".ckpt";
    }
    void TearDown() override {
        fault_injector::instance().disarm();
        std::filesystem::remove(path_);
        std::filesystem::remove(path_ + ".prev");
        std::filesystem::remove(path_ + ".tmp");
    }
    std::string path_;
};

placer_options short_run_options() {
    placer_options opt;
    opt.max_iterations = 12;
    opt.plateau_window = 0; // fixed-length run: every seed takes 12 steps
    return opt;
}

TEST_F(CheckpointResume, InterruptedRunIsBitwiseIdenticalToUninterrupted) {
    const netlist nl = test_circuit(220, 31);

    placer_options opt = short_run_options();
    placer reference(nl, opt);
    const placement uninterrupted = reference.run();

    // "Interrupted" run: checkpoint every iteration, stop hard (callback)
    // after the 5th transformation — the in-process equivalent of a kill.
    opt.checkpoint_path = path_;
    placer first(nl, opt);
    first.set_step_callback([](const iteration_stats& stats, const placement&) {
        return stats.iteration < 5;
    });
    (void)first.run();
    ASSERT_TRUE(std::filesystem::exists(path_));

    placer resumed(nl, opt);
    const placement out = resumed.resume(path_);

    ASSERT_EQ(out.size(), uninterrupted.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].x, uninterrupted[i].x) << "cell " << i;
        EXPECT_EQ(out[i].y, uninterrupted[i].y) << "cell " << i;
    }
    ASSERT_EQ(resumed.history().size(), reference.history().size());
    for (std::size_t k = 0; k < resumed.history().size(); ++k) {
        EXPECT_EQ(resumed.history()[k].hpwl, reference.history()[k].hpwl);
        EXPECT_EQ(resumed.history()[k].overflow_area,
                  reference.history()[k].overflow_area);
    }
    EXPECT_EQ(resumed.converged(), reference.converged());
    EXPECT_EQ(resumed.degraded(), reference.degraded());
}

TEST_F(CheckpointResume, DigestMismatchIsRejected) {
    const netlist nl = test_circuit(180, 33);
    placer_options opt = short_run_options();
    opt.checkpoint_path = path_;
    placer writer(nl, opt);
    writer.set_step_callback([](const iteration_stats& stats, const placement&) {
        return stats.iteration < 3;
    });
    (void)writer.run();

    // Same netlist, drifted options: the digest must not match.
    placer_options other = short_run_options();
    other.force_scale_k = 1.0;
    placer reader(nl, other);
    EXPECT_NE(reader.checkpoint_digest(), writer.checkpoint_digest());
    EXPECT_THROW((void)reader.resume(path_), checkpoint_error);

    // Same options, different netlist: rejected too.
    const netlist other_nl = test_circuit(180, 34);
    placer reader2(other_nl, opt);
    EXPECT_THROW((void)reader2.resume(path_), checkpoint_error);
}

struct digest_field {
    const char* name;
    void (*change)(placer_options&);
};

// Every settable placer_options value, split by whether it steers the
// trajectory (and so must be bound by the checkpoint digest) or only
// observes or guards the run (and must not be, so a resuming process may
// change it).
const digest_field kSteeringFields[] = {
    {"force_scale_k", [](placer_options& o) { o.force_scale_k = 1.0; }},
    {"scaling",
     [](placer_options& o) { o.scaling = placer_options::force_scaling::paper_normalized; }},
    {"mode", [](placer_options& o) { o.mode = placer_options::force_mode::accumulate; }},
    {"wire_relax_interval", [](placer_options& o) { o.wire_relax_interval = 2; }},
    {"max_iterations", [](placer_options& o) { o.max_iterations = 13; }},
    {"density_bins", [](placer_options& o) { o.density_bins = 1024; }},
    {"spread_factor", [](placer_options& o) { o.spread_factor = 3.0; }},
    {"empty_threshold", [](placer_options& o) { o.empty_threshold = 0.1; }},
    {"min_iterations", [](placer_options& o) { o.min_iterations = 3; }},
    {"plateau_window", [](placer_options& o) { o.plateau_window = 5; }},
    {"plateau_tolerance", [](placer_options& o) { o.plateau_tolerance = 1e-2; }},
    {"iteration_cache", [](placer_options& o) { o.iteration_cache = false; }},
    {"coarsen_levels", [](placer_options& o) { o.coarsen_levels = 1; }},
    {"min_coarse_cells", [](placer_options& o) { o.min_coarse_cells = 100; }},
    {"net_model.kind", [](placer_options& o) { o.net_model.kind = net_model_kind::hybrid; }},
    {"net_model.star_threshold", [](placer_options& o) { o.net_model.star_threshold = 8; }},
    {"net_model.linearize", [](placer_options& o) { o.net_model.linearize = false; }},
    {"net_model.min_length_fraction",
     [](placer_options& o) { o.net_model.min_length_fraction = 1e-3; }},
};

const digest_field kObservingFields[] = {
    {"time_budget", [](placer_options& o) { o.time_budget = 10.0; }},
    {"max_transform_seconds", [](placer_options& o) { o.max_transform_seconds = 5.0; }},
    {"checkpoint_path", [](placer_options& o) { o.checkpoint_path = "elsewhere.ckpt"; }},
    {"checkpoint_interval", [](placer_options& o) { o.checkpoint_interval = 4; }},
    {"heartbeat_path", [](placer_options& o) { o.heartbeat_path = "elsewhere.hb"; }},
    {"stop_flag",
     [](placer_options& o) {
         static const std::atomic<bool> flag{false};
         o.stop_flag = &flag;
     }},
};

TEST(CheckpointDigest, EverySteeringOptionChangesTheDigest) {
    const netlist nl = test_circuit(180, 39);
    const placer_options base = short_run_options();
    const std::uint64_t base_digest = placer(nl, base).checkpoint_digest();
    for (const digest_field& field : kSteeringFields) {
        placer_options changed = base;
        field.change(changed);
        EXPECT_NE(placer(nl, changed).checkpoint_digest(), base_digest) << field.name;
    }
    for (const digest_field& field : kObservingFields) {
        placer_options changed = base;
        field.change(changed);
        EXPECT_EQ(placer(nl, changed).checkpoint_digest(), base_digest) << field.name;
    }
}

TEST_F(CheckpointResume, CheckpointOfThePreviousStateTagIsRejected) {
    // The state tag moved to v2 with the resolution-aware CG stop, which
    // changed every trajectory, and to v3 when the warm-start
    // displacements left the payload. 0x8beba8afae79e546 and
    // 0x42743c02dfdd34e7 are the digests the v1 and v2 tags gave this very
    // placer: a checkpoint stamped with either was written by an earlier
    // build and must be refused by the digest check, not resumed onto a
    // different trajectory or misread as a different payload layout.
    constexpr std::uint64_t kV1Digest = 0x8beba8afae79e546ull;
    constexpr std::uint64_t kV2Digest = 0x42743c02dfdd34e7ull;
    const netlist nl = test_circuit(180, 38);
    placer_options opt = short_run_options();
    opt.checkpoint_path = path_;
    placer writer(nl, opt);
    writer.set_step_callback([](const iteration_stats& stats, const placement&) {
        return stats.iteration < 3;
    });
    (void)writer.run();
    const checkpoint_blob blob = read_checkpoint_file(path_);

    for (const std::uint64_t old_digest : {kV1Digest, kV2Digest}) {
        SCOPED_TRACE(old_digest);
        EXPECT_NE(writer.checkpoint_digest(), old_digest);
        // The same payload under the earlier digest.
        std::filesystem::remove(path_ + ".prev");
        write_checkpoint_file(path_, old_digest, blob.payload);
        std::filesystem::remove(path_ + ".prev");
        placer reader(nl, opt);
        try {
            (void)reader.resume(path_);
            ADD_FAILURE() << "an earlier state tag's checkpoint was resumed";
        } catch (const checkpoint_error& e) {
            EXPECT_NE(std::string(e.what()).find("different configuration"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(CheckpointResume, CorruptPayloadCannotHalfLoadThePlacer) {
    const netlist nl = test_circuit(180, 35);
    placer_options opt = short_run_options();
    opt.checkpoint_path = path_;
    placer writer(nl, opt);
    writer.set_step_callback([](const iteration_stats& stats, const placement&) {
        return stats.iteration < 3;
    });
    (void)writer.run();

    // Chop the payload but rebuild a consistent envelope around it, so
    // the corruption reaches restore_state() instead of the CRC check.
    const checkpoint_blob blob = read_checkpoint_file(path_);
    std::filesystem::remove(path_ + ".prev");
    write_checkpoint_file(path_, blob.digest,
                          blob.payload.substr(0, blob.payload.size() / 2));
    std::filesystem::remove(path_ + ".prev");
    placer reader(nl, opt);
    EXPECT_THROW((void)reader.resume(path_), checkpoint_error);
}

TEST_F(CheckpointResume, CheckpointIntervalSkipsWrites) {
    const netlist nl = test_circuit(160, 36);
    placer_options opt = short_run_options();
    opt.max_iterations = 6;
    opt.checkpoint_path = path_;
    opt.checkpoint_interval = 4;
    placer p(nl, opt);
    (void)p.run();
    // Writes happened at accepted transformations 4 (rotated to .prev)
    // and... none after (8 > 6): exactly one generation on disk.
    ASSERT_TRUE(std::filesystem::exists(path_));
    EXPECT_FALSE(std::filesystem::exists(path_ + ".prev"));
    const checkpoint_blob blob = read_checkpoint_file(path_);
    EXPECT_EQ(blob.digest, p.checkpoint_digest());
}

TEST_F(CheckpointResume, StopFlagFlushesFinalCheckpointAndDegrades) {
    const netlist nl = test_circuit(200, 37);
    placer_options opt = short_run_options();
    opt.checkpoint_path = path_;
    std::atomic<bool> stop{false};
    opt.stop_flag = &stop;
    placer p(nl, opt);
    p.set_step_callback([&](const iteration_stats& stats, const placement&) {
        if (stats.iteration >= 4) stop.store(true);
        return true;
    });
    const placement out = p.run();
    EXPECT_EQ(out.size(), nl.num_cells());
    EXPECT_TRUE(p.degraded());
    ASSERT_FALSE(p.recovery_log().empty());
    EXPECT_EQ(p.recovery_log().back().action, recovery_action::stop_best);
    EXPECT_NE(p.recovery_log().back().reason.find("stop requested"),
              std::string::npos);

    // The flushed checkpoint resumes into the full uninterrupted run.
    placer_options clean = short_run_options();
    placer reference(nl, clean);
    const placement uninterrupted = reference.run();
    clean.checkpoint_path = path_;
    placer resumed(nl, clean);
    const placement full = resumed.resume(path_);
    for (std::size_t i = 0; i < full.size(); ++i) {
        ASSERT_EQ(full[i].x, uninterrupted[i].x) << "cell " << i;
        ASSERT_EQ(full[i].y, uninterrupted[i].y) << "cell " << i;
    }
}

TEST_F(CheckpointResume, MultilevelRunsDisableCheckpointing) {
    const netlist nl = test_circuit(600, 38);
    placer_options opt;
    opt.max_iterations = 8;
    opt.coarsen_levels = 2;
    opt.min_coarse_cells = 50;
    opt.checkpoint_path = path_;
    placer p(nl, opt);
    (void)p.run();
    EXPECT_FALSE(std::filesystem::exists(path_));
    EXPECT_THROW((void)p.resume(path_), check_error);
}

} // namespace
} // namespace gpf
