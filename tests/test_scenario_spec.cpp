// Conformance suite for the scenario engine, driven by the committed files
// under examples/scenarios/ (the only definition of the figure grids).
// Pins the load-bearing properties:
//
//   1. every file is its own export: parse -> export reproduces it byte for
//      byte, so a file is always in the normalized form `l4span_run
//      --export` writes;
//   2. every *_quick.json slice prints byte-identical stdout and JSON
//      summaries at --jobs 1 and 4 (the grid fans out over a thread pool,
//      the tables print in fixed grid order).
//
// Plus: file-path round-trip via write_scenario_file/load_scenario_file,
// and validation diagnostics naming the offending key and source line.
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "scenario/cell_scenario.h"
#include "scenario/grid_runner.h"
#include "scenario/scenario_run.h"
#include "scenario/scenario_spec.h"
#include "scenario_files.h"
#include "stats/json.h"

using namespace l4span;
using scenario::bench_args;
using scenario::export_scenario;
using scenario::parse_scenario_text;
using scenario::run_scenario;
using scenario::scenario_error;
using scenario::scenario_spec;
using test::read_text;
using test::scenario_file;
using test::scenario_files;

namespace {

// Runs a spec with stdout captured; returns {stdout bytes, summary dump}.
struct run_output {
    std::string out;
    std::string summary;
};

run_output run_captured(const scenario_spec& spec, int jobs)
{
    bench_args args;
    args.jobs = jobs;
    args.quick = spec.quick;
    stats::json summary;
    testing::internal::CaptureStdout();
    const int rc = run_scenario(spec, args, &summary);
    run_output r;
    r.out = testing::internal::GetCapturedStdout();
    r.summary = summary.dump();
    EXPECT_EQ(rc, 0);
    return r;
}

// A minimal cell_flows document whose cell object holds `cell_members`.
std::string cell_flows_doc(const std::string& cell_members)
{
    return R"({"schema": "l4span-scenario-v1", "family": "cell_flows",)"
           "\n"
           R"( "duration_s": 1, "cell_flows": {"seeds": [1],)"
           "\n"
           R"( "cell": {)" +
           cell_members + R"(}, "flows": [{"cca": "prague"}]}})";
}

}  // namespace

TEST(scenario_spec, every_file_is_its_own_export)
{
    const auto files = scenario_files();
    // fig09, fig16, fig24, ecn_impairment and fault_chaos in full and quick
    // form, plus the WRED cell_flows example.
    EXPECT_EQ(files.size(), 11u);
    for (const auto& path : files) {
        SCOPED_TRACE(path);
        const std::string text = read_text(path);
        const auto spec = parse_scenario_text(text, path);
        EXPECT_EQ(export_scenario(spec).dump(), text);
        EXPECT_EQ(spec.quick, path.ends_with("_quick.json"));
    }
}

TEST(scenario_spec, quick_files_byte_identical_at_jobs_1_and_4)
{
    const auto files = scenario_files(/*quick_only=*/true);
    EXPECT_EQ(files.size(), 5u);
    for (const auto& path : files) {
        SCOPED_TRACE(path);
        const auto spec = scenario::load_scenario_file(path);
        const auto serial = run_captured(spec, /*jobs=*/1);
        const auto sharded = run_captured(spec, /*jobs=*/4);
        EXPECT_EQ(serial.out, sharded.out);
        EXPECT_EQ(serial.summary, sharded.summary);
        EXPECT_FALSE(serial.out.empty());
        EXPECT_NE(serial.summary.find("\"figure\": \"" + spec.figure + "\""),
                  std::string::npos);
    }
}

TEST(scenario_spec, every_cell_flows_file_builds_its_cell)
{
    // A cell the harness would reject (e.g. an AQM without a core
    // bottleneck to mount it on) fails here instead of at run time.
    for (const auto& path : scenario_files()) {
        const auto spec = scenario::load_scenario_file(path);
        if (spec.family != "cell_flows") continue;
        SCOPED_TRACE(path);
        EXPECT_NO_THROW(scenario::cell_scenario{spec.cell_flows.cell});
    }
}

TEST(scenario_spec, file_roundtrip_through_disk)
{
    const auto spec = scenario::load_scenario_file(scenario_file("fig16_quick.json"));
    const std::string path = testing::TempDir() + "l4span_scn_rt.json";
    ASSERT_EQ(scenario::write_scenario_file(path, spec), 0);
    const auto loaded = scenario::load_scenario_file(path);
    EXPECT_EQ(export_scenario(loaded).dump(), export_scenario(spec).dump());
    std::remove(path.c_str());
}

TEST(scenario_spec, missing_file_names_the_path)
{
    try {
        scenario::load_scenario_file("/nonexistent/l4span.json");
        FAIL() << "unreadable path must throw";
    } catch (const scenario_error& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/l4span.json"),
                  std::string::npos)
            << e.what();
    }
}

TEST(scenario_spec, unknown_key_error_names_key_and_line)
{
    // Inject an unknown key into the tcp_grid section and find its line.
    std::string text = read_text(scenario_file("fig09_quick.json"));
    const std::string needle = "\"seed_base\"";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, "\"rtts_msec\": [1.0], ");
    try {
        parse_scenario_text(text, "<test>");
        FAIL() << "unknown key must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rtts_msec"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line"), std::string::npos) << msg;
        // Diagnostic lists the valid keys so the fix is one glance away.
        EXPECT_NE(msg.find("rtts_ms"), std::string::npos) << msg;
    }
}

TEST(scenario_spec, out_of_range_value_names_key)
{
    std::string text = read_text(scenario_file("ecn_impairment_quick.json"));
    const std::string needle = "\"loss\": 0";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size(), "\"loss\": 2.5");
    try {
        parse_scenario_text(text, "<test>");
        FAIL() << "loss probability > 1 must be rejected";
    } catch (const scenario_error& e) {
        EXPECT_NE(std::string(e.what()).find("loss"), std::string::npos)
            << e.what();
    }
}

TEST(scenario_spec, unknown_name_error_names_key_path_line_and_valid_names)
{
    struct bad {
        const char* cell_members;
        const char* key_path;
    };
    const bad cases[] = {
        {R"("l4s": {"shared_policy": "bogus"})", "cell_flows.cell.l4s.shared_policy"},
        {R"("cu": "bogus")", "cell_flows.cell.cu"},
        {R"("channel": "bogus")", "cell_flows.cell.channel"},
        {R"("bottleneck_aqm": "bogus")", "cell_flows.cell.bottleneck_aqm"},
        {R"("bottleneck_bps": 1e6, "cross_traffic": [{"model": "bogus"}])",
         "cell_flows.cell.cross_traffic[0].model"},
        {R"("bottleneck_bps": 1e6, "cross_traffic": [{"ecn": "bogus"}])",
         "cell_flows.cell.cross_traffic[0].ecn"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.cell_members);
        try {
            parse_scenario_text(cell_flows_doc(c.cell_members), "<test>");
            FAIL() << "unknown name must be rejected";
        } catch (const scenario_error& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("<test>"), std::string::npos) << msg;
            EXPECT_NE(msg.find(std::string("\"") + c.key_path + "\""), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("(line 3)"), std::string::npos) << msg;
            EXPECT_NE(msg.find("(valid: "), std::string::npos) << msg;
        }
    }
}

TEST(scenario_spec, unknown_cca_rejected_at_parse_with_key_path_line_and_valid_names)
{
    // Each file's first CCA name misspelled: the four CCA keys of the schema
    // reject it at parse time instead of the runner throwing mid-grid.
    struct bad {
        const char* file;
        const char* needle;
        const char* typo;
        const char* key_path;
    };
    const bad cases[] = {
        {"fig09_quick.json", "\"prague\"", "\"pragu\"", "tcp_grid.ccas[0]"},
        {"ecn_impairment_quick.json", "\"cca\": \"prague\"", "\"cca\": \"pragu\"",
         "ecn_impairment.ccas[0].cca"},
        {"fault_chaos_quick.json", "\"cca\": \"prague\"", "\"cca\": \"pragu\"",
         "fault_chaos.transports[0].cca"},
        {"wred_cell_flows.json", "\"cca\": \"prague\"", "\"cca\": \"pragu\"",
         "cell_flows.flows[0].cca"},
    };
    for (const auto& c : cases) {
        SCOPED_TRACE(c.file);
        std::string text = read_text(scenario_file(c.file));
        const auto pos = text.find(c.needle);
        ASSERT_NE(pos, std::string::npos);
        text.replace(pos, std::string(c.needle).size(), c.typo);
        try {
            parse_scenario_text(text, "<test>");
            FAIL() << "unknown CCA must be rejected";
        } catch (const scenario_error& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(std::string("key \"") + c.key_path + "\""),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("unknown CCA \"pragu\""), std::string::npos) << msg;
            EXPECT_NE(msg.find("(line "), std::string::npos) << msg;
            EXPECT_NE(msg.find("(valid: reno, cubic, prague, bbr, bbr2, scream, "
                               "udp-prague, quic-reno, quic-cubic, quic-prague, "
                               "quic-bbr, quic-bbr2)"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(scenario_spec, partial_nested_object_keeps_the_other_defaults)
{
    // Keys a nested object omits keep the enclosing struct's defaults: a
    // WRED profile naming only max_p keeps the documented ramp.
    const auto spec = parse_scenario_text(
        cell_flows_doc(R"("wred": {"l4s": {"max_p": 0.5}, "l4s_weight": 2})"), "<test>");
    const auto& w = spec.cell_flows.cell.wred;
    EXPECT_EQ(w.l4s.min_bytes, 12112u);
    EXPECT_EQ(w.l4s.max_bytes, 96896u);
    EXPECT_DOUBLE_EQ(w.l4s.max_p, 0.5);
    EXPECT_EQ(w.classic.min_bytes, 48448u);
    EXPECT_EQ(w.classic.max_bytes, 387584u);
    EXPECT_DOUBLE_EQ(w.classic.max_p, 0.1);
    EXPECT_EQ(w.l4s_weight, 2);
    EXPECT_EQ(w.ecn_drop_bytes, std::size_t{1} << 21);
}

TEST(scenario_spec, wrong_schema_tag_rejected)
{
    EXPECT_THROW(
        parse_scenario_text(R"({"schema": "l4span-scenario-v0"})", "<test>"),
        scenario_error);
    EXPECT_THROW(parse_scenario_text(R"({"figure": "x"})", "<test>"),
                 scenario_error);
}

TEST(scenario_spec, unknown_family_lists_valid_ones)
{
    try {
        parse_scenario_text(
            R"({"schema": "l4span-scenario-v1", "figure": "x", "title": "t",)"
            R"( "paper_ref": "r", "family": "mesh", "quick": false,)"
            R"( "duration_s": 1})",
            "<test>");
        FAIL() << "unknown family must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("mesh"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cell_flows"), std::string::npos) << msg;
    }
}
