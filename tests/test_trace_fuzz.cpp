// Property/fuzz tests for the DCI trace codec (chan/trace_io): random byte
// soup, truncated inputs, out-of-order timestamps and absurd MCS/PRB
// values must never crash or hang — they either parse with clamping or
// throw a trace_parse_error naming the offending line. Valid traces
// round-trip exactly through the CSV codec.
#include <gtest/gtest.h>

#include <string>

#include "chan/trace_io.h"
#include "sim/rng.h"

using namespace l4span;
using namespace l4span::chan;

namespace {

trace_data random_trace(sim::rng& rng)
{
    trace_data t;
    t.name = "fuzz";
    const int n = static_cast<int>(rng.uniform_int(1, 200));
    sim::tick ts = rng.uniform_int(0, 1000) * sim::k_microsecond;
    for (int i = 0; i < n; ++i) {
        dci_record r;
        r.timestamp = ts;
        ts += rng.uniform_int(1, 5000) * sim::k_microsecond;
        r.mcs = static_cast<int>(rng.uniform_int(-1, k_num_mcs - 1));
        r.prbs = static_cast<int>(rng.uniform_int(0, k_max_trace_prbs));
        r.tbs = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
        t.records.push_back(r);
    }
    if (rng.bernoulli(0.5))
        t.duration = t.records.back().timestamp +
                     rng.uniform_int(1, 1000) * sim::k_microsecond;
    return t;
}

// The invariants the parser guarantees on anything it accepts.
void check_clamped(const trace_data& t)
{
    sim::tick prev = -1;
    for (const auto& r : t.records) {
        EXPECT_GT(r.timestamp, prev);
        prev = r.timestamp;
        EXPECT_GE(r.mcs, -1);
        EXPECT_LT(r.mcs, k_num_mcs);
        EXPECT_GE(r.prbs, 0);
        EXPECT_LE(r.prbs, k_max_trace_prbs);
    }
    EXPECT_FALSE(t.records.empty());
}

}  // namespace

TEST(trace_fuzz, csv_roundtrip_is_exact)
{
    sim::rng rng(20260726);
    for (int i = 0; i < 200; ++i) {
        const trace_data t = random_trace(rng);
        const trace_data back = parse_trace_csv(to_trace_csv(t), t.name);
        ASSERT_EQ(back.records, t.records) << "iter " << i;
        EXPECT_EQ(back.duration, t.duration) << "iter " << i;
        EXPECT_EQ(back.name, t.name);
    }
}

TEST(trace_fuzz, random_byte_soup_never_crashes_the_parser)
{
    sim::rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const auto n = static_cast<std::size_t>(rng.uniform_int(0, 2000));
        std::string soup(n, '\0');
        for (auto& c : soup) {
            // Bias toward CSV-looking bytes so line parsing gets exercised.
            c = rng.bernoulli(0.7)
                    ? static_cast<char>("0123456789,-\n #"[rng.uniform_int(0, 14)])
                    : static_cast<char>(rng.uniform_int(0, 255));
        }
        try {
            check_clamped(parse_trace_csv(soup, "soup"));
        } catch (const trace_parse_error& e) {
            EXPECT_NE(std::string(e.what()).find("soup"), std::string::npos);
        }
    }
    SUCCEED();
}

TEST(trace_fuzz, truncated_serializations_never_crash)
{
    sim::rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const trace_data t = random_trace(rng);
        const std::string csv = to_trace_csv(t);
        const auto csv_cut = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(csv.size())));
        try {
            check_clamped(parse_trace_csv(csv.substr(0, csv_cut), "cut"));
        } catch (const trace_parse_error&) {
        }
    }
    SUCCEED();
}

TEST(trace_fuzz, out_of_order_timestamps_name_the_offending_line)
{
    const char* csv =
        "timestamp_us,mcs,prbs,tbs_bytes\n"
        "0,10,51,1000\n"
        "1000,11,51,1000\n"
        "500,12,51,1000\n";  // line 4 rewinds
    try {
        parse_trace_csv(csv, "ooo");
        FAIL() << "out-of-order timestamps must throw";
    } catch (const trace_parse_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("strictly increasing"), std::string::npos) << msg;
    }
}

TEST(trace_fuzz, malformed_fields_name_the_offending_line)
{
    try {
        parse_trace_csv("0,10,51,1000\n500,banana,51,1000\n", "bad");
        FAIL() << "non-numeric field must throw";
    } catch (const trace_parse_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
    }
    EXPECT_THROW(parse_trace_csv("1,2\n", "short"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("1,2,3,4,5\n", "long"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("-5,2,3,4\n", "neg"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("", "empty"), trace_parse_error);
    EXPECT_THROW(parse_trace_csv("# only comments\n", "comments"), trace_parse_error);
}

TEST(trace_fuzz, absurd_mcs_and_prb_values_are_clamped)
{
    const trace_data t = parse_trace_csv(
        "0,999,99999,1000\n"
        "1000,-999,-7,2000\n",
        "absurd");
    ASSERT_EQ(t.records.size(), 2u);
    EXPECT_EQ(t.records[0].mcs, k_num_mcs - 1);
    EXPECT_EQ(t.records[0].prbs, k_max_trace_prbs);
    EXPECT_EQ(t.records[1].mcs, -1);
    EXPECT_EQ(t.records[1].prbs, 0);
}
