// Fuzz/property campaign for the scenario schema parser ("fuzz" CTest
// label). parse_scenario_text must never crash, hang or throw anything but
// scenario_error, no matter the input: byte soup, truncations of a valid
// document, random single-byte mutations, duplicate keys, absurd values.
// Diagnostics must name the offending key, and export -> parse -> export
// must be the exact identity on bytes — for every committed file under
// examples/scenarios/ and for a programmatically built cell_flows spec
// that also reaches the cross-traffic keys. The fuzz vocabulary and the
// docs/SCENARIOS.md coverage check both come from the key set those
// documents walk.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/scenario_spec.h"
#include "scenario_files.h"
#include "sim/rng.h"
#include "stats/json.h"

using namespace l4span;
using scenario::export_scenario;
using scenario::parse_scenario_text;
using scenario::scenario_error;
using scenario::scenario_spec;
using test::read_text;
using test::scenario_file;

namespace {

// parse() may accept (returning a spec) or reject with scenario_error;
// any other exception type — or a crash — fails the campaign.
void must_accept_or_diagnose(const std::string& text, const char* what)
{
    try {
        (void)parse_scenario_text(text, "<fuzz>");
    } catch (const scenario_error&) {
        // expected failure mode
    } catch (...) {
        FAIL() << what << ": non-scenario_error escaped for input: "
               << text.substr(0, 120);
    }
}

// A generic cell_flows scenario on the WRED dual-queue bottleneck with one
// CBR cross-traffic sender.
scenario_spec wred_cell_flows_spec()
{
    scenario_spec s;
    s.figure = "wred_demo";
    s.title = "WRED dual-queue cell";
    s.paper_ref = "scenario-engine demo (no paper figure)";
    s.family = "cell_flows";
    s.quick = true;
    s.duration = sim::from_ms(1500);
    s.cell_flows.seeds = {7, 8};
    auto& cell = s.cell_flows.cell;
    cell.num_ues = 4;
    cell.bottleneck_bps = 40e6;
    cell.bottleneck_aqm = "wred";
    cell.wred.l4s = {4 * 1514, 32 * 1514, 1.0};
    cell.wred.classic = {16 * 1514, 128 * 1514, 0.08};
    cell.wred.ecn_drop_bytes = 1 << 20;
    cell.wred.l4s_weight = 8;
    topo::cross_traffic_spec cross;
    cross.model = "cbr";
    cross.rate_bps = 5e6;
    cell.cross_traffic.push_back(cross);
    scenario::cell_flows_family::flow f;
    f.spec.cca = "prague";
    f.spec.ue = 0;
    f.count = 2;
    s.cell_flows.flows.push_back(f);
    scenario::cell_flows_family::flow g;
    g.spec.cca = "cubic";
    g.spec.ue = 2;
    g.count = 1;
    s.cell_flows.flows.push_back(g);
    return s;
}

// Every committed scenario file plus the WRED spec: between them they
// reach every object of the schema.
std::vector<scenario_spec> all_specs()
{
    std::vector<scenario_spec> specs;
    for (const auto& path : test::scenario_files())
        specs.push_back(scenario::load_scenario_file(path));
    specs.push_back(wred_cell_flows_spec());
    return specs;
}

void collect_keys(const stats::json& j, std::set<std::string>& keys)
{
    if (j.is_object()) {
        for (const auto& [key, value] : j.members()) {
            keys.insert(key);
            collect_keys(value, keys);
        }
    } else if (j.is_array()) {
        for (const auto& e : j.elements()) collect_keys(e, keys);
    }
}

// The schema's key set: exports write every key, so walking them finds all.
std::set<std::string> schema_keys()
{
    std::set<std::string> keys;
    for (const auto& spec : all_specs()) collect_keys(export_scenario(spec), keys);
    return keys;
}

}  // namespace

TEST(scenario_fuzz, byte_soup_never_crashes)
{
    sim::rng rng(0xfeedbeef);
    for (int iter = 0; iter < 400; ++iter) {
        std::string soup;
        const int len = static_cast<int>(rng.uniform_int(0, 300));
        soup.reserve(static_cast<std::size_t>(len));
        for (int i = 0; i < len; ++i)
            soup.push_back(static_cast<char>(rng.uniform_int(0, 255)));
        must_accept_or_diagnose(soup, "byte soup");
    }
}

TEST(scenario_fuzz, structured_soup_never_crashes)
{
    // Soup biased toward JSON punctuation and schema vocabulary (every key
    // the schema has): reaches deeper parser states than uniform bytes.
    std::vector<std::string> frags = {
        "{", "}", "[", "]", ":", ",", "\"", "true", "false", "null",
        "1e308", "-0.0", "1e-308", "9223372036854775807",
        "\"l4span-scenario-v1\"", "\\u0000",
    };
    for (const auto& key : schema_keys()) frags.push_back("\"" + key + "\"");
    sim::rng rng(0xc0ffee);
    for (int iter = 0; iter < 400; ++iter) {
        std::string soup;
        const int n = static_cast<int>(rng.uniform_int(1, 40));
        for (int i = 0; i < n; ++i) {
            soup += frags[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(frags.size()) - 1))];
            if (rng.bernoulli(0.3)) soup += ' ';
        }
        must_accept_or_diagnose(soup, "structured soup");
    }
}

TEST(scenario_fuzz, every_truncation_of_valid_export_diagnosed)
{
    const std::string full = read_text(scenario_file("fig09_quick.json"));
    // Cuts inside trailing whitespace still leave a complete document; every
    // cut before the closing brace must be diagnosed.
    const std::size_t last_brace = full.find_last_of('}');
    ASSERT_NE(last_brace, std::string::npos);
    for (std::size_t cut = 0; cut <= last_brace; ++cut) {
        try {
            (void)parse_scenario_text(full.substr(0, cut), "<truncated>");
            FAIL() << "truncation at byte " << cut << " must not parse";
        } catch (const scenario_error&) {
        } catch (...) {
            FAIL() << "non-scenario_error at truncation byte " << cut;
        }
    }
}

TEST(scenario_fuzz, single_byte_mutations_never_crash)
{
    const std::string full = read_text(scenario_file("ecn_impairment_quick.json"));
    sim::rng rng(99);
    for (int iter = 0; iter < 600; ++iter) {
        std::string mut = full;
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(mut.size()) - 1));
        mut[pos] = static_cast<char>(rng.uniform_int(0, 255));
        must_accept_or_diagnose(mut, "single-byte mutation");
    }
}

TEST(scenario_fuzz, duplicate_key_diagnosed_with_name_and_line)
{
    std::string text = read_text(scenario_file("fig16_quick.json"));
    const std::string needle = "\"seed\":";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.insert(pos, "\"seed\": 1, ");
    try {
        parse_scenario_text(text, "<dup>");
        FAIL() << "duplicate key must be rejected";
    } catch (const scenario_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("seed"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line"), std::string::npos) << msg;
    }
}

TEST(scenario_fuzz, absurd_values_diagnosed_with_key)
{
    // Each case: the fig09 quick file with one value replaced by something
    // absurd; the diagnostic must carry the key name.
    const std::string base = read_text(scenario_file("fig09_quick.json"));
    struct edit {
        const char* needle;
        const char* replacement;
        const char* key_in_msg;
    };
    const edit edits[] = {
        {"\"duration_s\": 6", "\"duration_s\": -5", "duration_s"},
        {"\"duration_s\": 6", "\"duration_s\": 1e9", "duration_s"},
        {"\"seed_base\": 1000", "\"seed_base\": 1e30", "seed_base"},
        {"\"ue_counts\": [\n      16\n    ]", "\"ue_counts\": [\n      0\n    ]",
         "ue_counts"},
        {"\"ue_counts\": [\n      16\n    ]", "\"ue_counts\": []", "ue_counts"},
        {"\"queues_sdus\": [\n      256\n    ]",
         "\"queues_sdus\": [\n      -3\n    ]", "queues_sdus"},
        {"\"ccas\": [\n      \"prague\"\n    ]", "\"ccas\": [\n      42\n    ]",
         "ccas"},
        {"\"rtts_ms\": [\n      19\n    ]",
         "\"rtts_ms\": [\n      \"fast\"\n    ]", "rtts_ms"},
        {"\"channels\": [\n      \"static\"\n    ]",
         "\"channels\": [\n      \"statc\"\n    ]", "tcp_grid.channels[0]"},
        {"\"ccas\": [\n      \"prague\"\n    ]", "\"ccas\": [\n      \"pragu\"\n    ]",
         "tcp_grid.ccas[0]"},
    };
    for (const auto& e : edits) {
        SCOPED_TRACE(e.replacement);
        std::string text = base;
        const auto pos = text.find(e.needle);
        ASSERT_NE(pos, std::string::npos) << e.needle;
        text.replace(pos, std::string(e.needle).size(), e.replacement);
        try {
            parse_scenario_text(text, "<absurd>");
            FAIL() << "must reject " << e.replacement;
        } catch (const scenario_error& ex) {
            EXPECT_NE(std::string(ex.what()).find(e.key_in_msg),
                      std::string::npos)
                << ex.what();
        }
    }
}

TEST(scenario_fuzz, export_parse_export_exact_for_all_specs)
{
    // Every scenario file plus the WRED cell_flows spec: export must be a
    // fixpoint of parse ∘ export on bytes.
    for (const auto& spec : all_specs()) {
        SCOPED_TRACE(spec.figure);
        const std::string once = export_scenario(spec).dump();
        const auto reparsed = parse_scenario_text(once, "<rt>");
        const std::string twice = export_scenario(reparsed).dump();
        EXPECT_EQ(once, twice);
    }
}

TEST(scenario_fuzz, wred_spec_parses_back_to_wred_queue_params)
{
    const auto spec = wred_cell_flows_spec();
    const auto reparsed =
        parse_scenario_text(export_scenario(spec).dump(), "<wred>");
    const auto& w = reparsed.cell_flows.cell.wred;
    EXPECT_EQ(reparsed.cell_flows.cell.bottleneck_aqm, "wred");
    EXPECT_EQ(w.l4s.min_bytes, 4u * 1514);
    EXPECT_EQ(w.l4s.max_bytes, 32u * 1514);
    EXPECT_DOUBLE_EQ(w.classic.max_p, 0.08);
    EXPECT_EQ(w.ecn_drop_bytes, std::size_t{1} << 20);
    EXPECT_EQ(w.l4s_weight, 8);
}

TEST(scenario_fuzz, every_schema_key_is_documented)
{
    std::string doc;
    ASSERT_TRUE(stats::read_text_file(
        std::string(L4SPAN_SOURCE_ROOT) + "/docs/SCENARIOS.md", doc));
    const auto keys = schema_keys();
    EXPECT_GT(keys.size(), 100u);
    for (const auto& key : keys)
        EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
            << "docs/SCENARIOS.md does not document key `" << key << "`";
}
