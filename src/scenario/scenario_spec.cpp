#include "scenario/scenario_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace l4span::scenario {

namespace {

// Largest integer a double (and therefore a JSON number) carries exactly.
constexpr double k_max_exact = 9007199254740992.0;  // 2^53

[[noreturn]] void fail_at(const std::string& origin, int line, const std::string& msg)
{
    std::string out = origin + ": " + msg;
    if (line > 0) out += " (line " + std::to_string(line) + ")";
    throw scenario_error(out);
}

void require(bool ok, const std::string& msg)
{
    if (!ok) throw scenario_error(msg);
}

std::string join(const std::vector<std::string_view>& names)
{
    std::string out;
    for (std::string_view n : names) {
        if (!out.empty()) out += ", ";
        out += n;
    }
    return out;
}

// One value being bound: every diagnostic names the origin, the full key
// path and the value's source line (the enclosing object's line for values
// built without one).
struct site {
    const std::string& origin;
    int node_line;
    std::string path;
    const stats::json& value;

    [[noreturn]] void fail(const std::string& msg, const char* sep = " ") const
    {
        fail_at(origin, value.line() > 0 ? value.line() : node_line,
                "key \"" + path + "\"" + sep + msg);
    }
};

// --- name tables -------------------------------------------------------------
// One table per enum or string choice gives both directions and the
// "(valid: ...)" text of the unknown-name diagnostic.

template <class T>
struct name_table {
    const char* noun;
    std::vector<std::pair<std::string, T>> entries;

    const T* find(std::string_view name) const
    {
        for (const auto& [n, v] : entries)
            if (n == name) return &v;
        return nullptr;
    }
    const std::string& name_of(const T& value) const
    {
        for (const auto& [n, v] : entries)
            if (v == value) return n;
        return entries.front().first;
    }
    std::string unknown(const std::string& name) const
    {
        std::vector<std::string_view> names;
        for (const auto& e : entries) names.push_back(e.first);
        return "unknown " + std::string(noun) + " \"" + name + "\" (valid: " +
               join(names) + ")";
    }
};

// A string member restricted to a fixed set of names.
name_table<std::string> choices(const char* noun, const std::vector<std::string>& names)
{
    name_table<std::string> t{noun, {}};
    for (const auto& n : names) t.entries.emplace_back(n, n);
    return t;
}

const name_table<cu_mode> k_cu_modes{
    "CU mode",
    {{"none", cu_mode::none},
     {"l4span", cu_mode::l4span},
     {"dualpi2_ran", cu_mode::dualpi2_ran},
     {"tcran", cu_mode::tcran}}};
const name_table<net::ecn> k_ecn_codepoints{
    "ECN codepoint",
    {{"not_ect", net::ecn::not_ect},
     {"ect0", net::ecn::ect0},
     {"ect1", net::ecn::ect1},
     {"ce", net::ecn::ce}}};
const name_table<core::shared_drb_policy> k_policies{
    "shared-DRB policy",
    {{"original", core::shared_drb_policy::original},
     {"l4s_all", core::shared_drb_policy::l4s_all},
     {"classic_all", core::shared_drb_policy::classic_all},
     {"coupled", core::shared_drb_policy::coupled}}};
const auto k_aqms = choices("AQM", {"fifo", "dualpi2", "wred"});
const auto k_cross_models = choices("model", {"poisson", "cbr"});
// "trace" needs DCI trace data files, which v1 scenario files cannot carry
// (bench_trace_replay is the trace-driven harness).
const auto k_channels =
    choices("channel", {"static", "pedestrian", "vehicular", "mobile"});
const auto k_cca_names = choices("CCA", cca_names());

// --- codecs --------------------------------------------------------------------
// A codec binds one JSON value onto a member (bind) and writes it back
// (emit). Every emit writes what bind reads, so export -> parse -> export is
// the identity on bytes.

double in_range(const site& s, double lo, double hi)
{
    if (!s.value.is_number()) s.fail("must be a number");
    const double d = s.value.as_number();
    if (d < lo || d > hi)
        s.fail("must be in [" + std::to_string(lo) + ", " + std::to_string(hi) +
               "], got " + std::to_string(d));
    return d;
}

struct number {
    double lo, hi;
    void bind(const site& s, double& out) const { out = in_range(s, lo, hi); }
    stats::json emit(double v) const { return v; }
};

// Integer-valued number in [lo, hi], stored in any integral member.
struct integer {
    double lo, hi;
    template <class T>
    void bind(const site& s, T& out) const
    {
        const double d = in_range(s, lo, hi);
        if (d != std::floor(d)) s.fail("must be an integer, got " + std::to_string(d));
        out = static_cast<T>(d);
    }
    template <class T>
    stats::json emit(T v) const
    {
        return static_cast<double>(v);
    }
};
constexpr integer k_u64{0.0, k_max_exact};

struct flag {
    void bind(const site& s, bool& out) const
    {
        if (!s.value.is_bool()) s.fail("must be true or false");
        out = s.value.as_bool();
    }
    stats::json emit(bool v) const { return v; }
};

struct str {
    void bind(const site& s, std::string& out) const
    {
        if (!s.value.is_string()) s.fail("must be a string");
        out = s.value.as_string();
    }
    stats::json emit(const std::string& v) const { return v; }
};

// A tick member carried as a decimal count of `unit` (ms or s). Rounding to
// the nearest tick — unlike from_ms's truncation — makes tick -> decimal ->
// tick the identity for every tick below 2^51 ns, which is what keeps
// export -> parse -> export exact.
sim::tick round_to_tick(double v, sim::tick unit)
{
    return static_cast<sim::tick>(std::llround(v * unit));
}

struct ticks {
    sim::tick unit;
    double lo, hi;
    void bind(const site& s, sim::tick& out) const
    {
        out = round_to_tick(in_range(s, lo, hi), unit);
    }
    stats::json emit(sim::tick t) const { return static_cast<double>(t) / unit; }
};
constexpr ticks millis(double lo, double hi) { return {sim::k_millisecond, lo, hi}; }

// A stop time in ms; -1 means "run to the scenario end".
struct stop_ms {
    void bind(const site& s, sim::tick& out) const
    {
        const double ms = in_range(s, -1.0, 3600e3);
        out = ms < 0.0 ? -1 : round_to_tick(ms, sim::k_millisecond);
    }
    stats::json emit(sim::tick t) const { return t < 0 ? -1.0 : sim::to_ms(t); }
};

template <class T>
struct one_of {
    const name_table<T>& names;
    void bind(const site& s, T& out) const
    {
        if (!s.value.is_string()) s.fail("must be a string");
        const T* v = names.find(s.value.as_string());
        if (!v) s.fail(names.unknown(s.value.as_string()), ": ");
        out = *v;
    }
    stats::json emit(const T& v) const
    {
        if constexpr (std::is_same_v<T, std::string>)
            return v;
        else
            return names.name_of(v);
    }
};
template <class T>
one_of(const name_table<T>&) -> one_of<T>;

// --- field tables --------------------------------------------------------------
// One row per key: the key, where it lives and its codec. bind and emit
// walk the same rows, so parsing and export cannot disagree on a key, its
// order or its range; a key absent from the input keeps the member's own
// default.

template <class S>
struct field {
    const char* key;
    bool required;  // a missing key is an error
    void (*bind)(const site&, S&);
    stats::json (*emit)(const S&);
};
template <class S>
using table = std::vector<field<S>>;

template <class C>
bool required_of(const C& codec)
{
    if constexpr (requires { codec.required; })
        return codec.required;
    else
        return false;
}

// The struct a member pointer points into (declaration only).
template <class S, class V>
S owner_of(V S::*);

template <auto Member, auto Codec, class S = decltype(owner_of(Member))>
field<S> row(const char* key)
{
    return {key, required_of(Codec),
            [](const site& s, S& obj) { Codec.bind(s, obj.*Member); },
            [](const S& obj) { return Codec.emit(obj.*Member); }};
}

// A member of a member: the flow rows reach through flow::spec.
template <auto Outer, auto Inner, auto Codec, class S = decltype(owner_of(Outer))>
field<S> row(const char* key)
{
    return {key, required_of(Codec),
            [](const site& s, S& obj) { Codec.bind(s, (obj.*Outer).*Inner); },
            [](const S& obj) { return Codec.emit((obj.*Outer).*Inner); }};
}

template <class S>
std::vector<std::string_view> keys_of(const table<S>& rows)
{
    std::vector<std::string_view> keys;
    for (const auto& f : rows) keys.push_back(f.key);
    return keys;
}

template <class S>
void bind_fields(const std::string& origin, const stats::json& node,
                 const std::string& path, const table<S>& rows, S& out)
{
    for (const auto& f : rows) {
        const std::string key_path = path + "." + f.key;
        if (const stats::json* v = node.find(f.key))
            f.bind(site{origin, node.line(), key_path, *v}, out);
        else if (f.required)
            fail_at(origin, node.line(), "missing required key \"" + key_path + "\"");
    }
}

// Unknown-key sweep: anything outside `known` is a typo worth naming, with
// the valid keys so the fix is one glance.
void reject_unknown(const std::string& origin, const stats::json& node,
                    const std::string& path, const std::vector<std::string_view>& known)
{
    for (const auto& [key, value] : node.members())
        if (std::find(known.begin(), known.end(), key) == known.end())
            fail_at(origin, value.line() > 0 ? value.line() : node.line(),
                    "unknown key \"" + path + "." + key + "\" (valid: " + join(known) +
                        ")");
}

template <class S>
void emit_fields(const table<S>& rows, const S& obj, stats::json& j)
{
    for (const auto& f : rows) j.set(f.key, f.emit(obj));
}

// Nested object, bound onto the member's current value: keys it omits keep
// the enclosing struct's defaults.
template <class S>
struct object {
    const table<S>& rows;
    void bind(const site& s, S& out) const
    {
        if (!s.value.is_object()) s.fail("must be an object");
        bind_fields(s.origin, s.value, s.path, rows, out);
        reject_unknown(s.origin, s.value, s.path, keys_of(rows));
    }
    stats::json emit(const S& v) const
    {
        auto j = stats::json::object();
        emit_fields(rows, v, j);
        return j;
    }
};
template <class S>
object(const table<S>&) -> object<S>;

// Array of `elem` values, each element starting from its type's defaults.
template <class E>
struct list {
    E elem;
    bool required = false;  // present and non-empty (a grid axis)

    template <class T>
    void bind(const site& s, std::vector<T>& out) const
    {
        if (!s.value.is_array()) s.fail("must be an array");
        if (required && s.value.elements().empty()) s.fail("must not be empty");
        out.clear();
        for (std::size_t i = 0; i < s.value.elements().size(); ++i) {
            const std::string path = s.path + "[" + std::to_string(i) + "]";
            T v{};
            elem.bind(site{s.origin, s.value.line(), path, s.value.elements()[i]}, v);
            out.push_back(std::move(v));
        }
    }
    template <class T>
    stats::json emit(const std::vector<T>& v) const
    {
        auto j = stats::json::array();
        for (const auto& e : v) j.push(elem.emit(e));
        return j;
    }
};
template <class E>
list(E) -> list<E>;
template <class E>
list(E, bool) -> list<E>;

constexpr number k_probability{0.0, 1.0};
constexpr number k_bps{0.0, 1e12};

using topo::impairment_spec;
// A per-flow policy is an impairment without policies of its own.
const table<impairment_spec> k_flow_policy{
    row<&impairment_spec::remark_ect1, k_probability>("remark_ect1"),
    row<&impairment_spec::bleach_ce, k_probability>("bleach_ce"),
    row<&impairment_spec::strip_ect, k_probability>("strip_ect"),
    row<&impairment_spec::loss, k_probability>("loss"),
    row<&impairment_spec::loss_burst, number{1.0, 1e6}>("loss_burst"),
    row<&impairment_spec::reorder, k_probability>("reorder"),
    row<&impairment_spec::reorder_gap, integer{1, 1 << 20}>("reorder_gap"),
    row<&impairment_spec::reorder_hold_max, millis(0.0, 60e3)>("reorder_hold_max_ms"),
    row<&impairment_spec::duplicate, k_probability>("duplicate"),
    row<&impairment_spec::force_stage, flag{}>("force_stage"),
};
const table<impairment_spec> k_impairment = [] {
    auto t = k_flow_policy;
    t.push_back(row<&impairment_spec::flow_policies, list{object{k_flow_policy}}>(
        "flow_policies"));
    return t;
}();

using aqm::wred_dualq_config;
using aqm::wred_profile;
const table<wred_profile> k_wred_profile{
    row<&wred_profile::min_bytes, integer{0, 1ll << 40}>("min_bytes"),
    row<&wred_profile::max_bytes, integer{0, 1ll << 40}>("max_bytes"),
    row<&wred_profile::max_p, k_probability>("max_p"),
};
const table<wred_dualq_config> k_wred{
    row<&wred_dualq_config::l4s, object{k_wred_profile}>("l4s"),
    row<&wred_dualq_config::classic, object{k_wred_profile}>("classic"),
    row<&wred_dualq_config::ecn_drop_bytes, integer{0, 1ll << 40}>("ecn_drop_bytes"),
    row<&wred_dualq_config::l4s_weight, integer{1, 1 << 20}>("l4s_weight"),
    row<&wred_dualq_config::max_bytes, integer{1, 1ll << 40}>("max_bytes"),
};

using core::l4span_config;
const table<l4span_config> k_l4s{
    row<&l4span_config::sojourn_threshold, millis(0.1, 10e3)>("sojourn_threshold_ms"),
    row<&l4span_config::coherence_time, millis(0.1, 10e3)>("coherence_time_ms"),
    row<&l4span_config::short_circuit, flag{}>("short_circuit"),
    row<&l4span_config::drop_non_ecn, flag{}>("drop_non_ecn"),
    row<&l4span_config::error_aware, flag{}>("error_aware"),
    row<&l4span_config::classic_beta, number{0.01, 0.99}>("classic_beta"),
    row<&l4span_config::mss, integer{64, 65535}>("mss"),
    row<&l4span_config::shared_policy, one_of{k_policies}>("shared_policy"),
    row<&l4span_config::prune_horizon, millis(1.0, 3600e3)>("prune_horizon_ms"),
};

using topo::cross_traffic_spec;
const table<cross_traffic_spec> k_cross{
    row<&cross_traffic_spec::model, one_of{k_cross_models}>("model"),
    row<&cross_traffic_spec::rate_bps, k_bps>("rate_bps"),
    row<&cross_traffic_spec::pkt_bytes, integer{64, 65535}>("pkt_bytes"),
    row<&cross_traffic_spec::ecn_field, one_of{k_ecn_codepoints}>("ecn"),
    row<&cross_traffic_spec::start_time, millis(0.0, 3600e3)>("start_ms"),
    row<&cross_traffic_spec::stop_time, stop_ms{}>("stop_ms"),
    row<&cross_traffic_spec::uplink, flag{}>("uplink"),
};

const table<cell_spec> k_cell{
    row<&cell_spec::num_ues, integer{1, 4096}>("num_ues"),
    row<&cell_spec::channel, one_of{k_channels}>("channel"),
    row<&cell_spec::rlc_queue_sdus, integer{1, 1 << 30}>("rlc_queue_sdus"),
    row<&cell_spec::cu, one_of{k_cu_modes}>("cu"),
    row<&cell_spec::seed, k_u64>("seed"),
    row<&cell_spec::separate_drbs_per_class, flag{}>("separate_drbs_per_class"),
    row<&cell_spec::bottleneck_bps, k_bps>("bottleneck_bps"),
    row<&cell_spec::bottleneck_aqm, one_of{k_aqms}>("bottleneck_aqm"),
    row<&cell_spec::wred, object{k_wred}>("wred"),
    row<&cell_spec::ul_bottleneck_bps, k_bps>("ul_bottleneck_bps"),
    row<&cell_spec::l4s, object{k_l4s}>("l4s"),
    row<&cell_spec::impair_dl, object{k_impairment}>("impair_dl"),
    row<&cell_spec::impair_ul, object{k_impairment}>("impair_ul"),
    row<&cell_spec::cross_traffic, list{object{k_cross}}>("cross_traffic"),
};

using flow = cell_flows_family::flow;
const table<flow> k_flow{
    row<&flow::spec, &flow_spec::cca, one_of{k_cca_names}>("cca"),
    row<&flow::spec, &flow_spec::ue, integer{0, 1 << 20}>("ue"),
    row<&flow::count, integer{1, 4096}>("count"),
    row<&flow::spec, &flow_spec::start_time, millis(0.0, 3600e3)>("start_ms"),
    row<&flow::spec, &flow_spec::stop_time, stop_ms{}>("stop_ms"),
    row<&flow::spec, &flow_spec::flow_bytes, k_u64>("flow_bytes"),
    row<&flow::spec, &flow_spec::wired_owd_ms, number{0.0, 10e3}>("wired_owd_ms"),
    row<&flow::spec, &flow_spec::mss, integer{64, 65535}>("mss"),
    row<&flow::spec, &flow_spec::max_cwnd, k_u64>("max_cwnd"),
    row<&flow::spec, &flow_spec::media_max_bps, k_bps>("media_max_bps"),
    row<&flow::spec, &flow_spec::media_start_bps, k_bps>("media_start_bps"),
    row<&flow::spec, &flow_spec::fps, number{0.0, 1e3}>("fps"),
    row<&flow::spec, &flow_spec::frame_bitrate_bps, k_bps>("frame_bitrate_bps"),
    row<&flow::spec, &flow_spec::keyframe_interval_s, number{0.01, 3600.0}>(
        "keyframe_interval_s"),
    row<&flow::spec, &flow_spec::keyframe_scale, number{1.0, 1e3}>("keyframe_scale"),
    row<&flow::spec, &flow_spec::frame_deadline_ms, number{0.1, 10e3}>(
        "frame_deadline_ms"),
};

// --- family blocks -------------------------------------------------------------

const table<tcp_grid_family> k_tcp_grid{
    row<&tcp_grid_family::seed_base, k_u64>("seed_base"),
    row<&tcp_grid_family::rtts_ms, list{number{0.0, 10e3}, true}>("rtts_ms"),
    row<&tcp_grid_family::queues_sdus, list{integer{1, 1 << 30}, true}>("queues_sdus"),
    row<&tcp_grid_family::ue_counts, list{integer{1, 4096}, true}>("ue_counts"),
    row<&tcp_grid_family::ccas, list{one_of{k_cca_names}, true}>("ccas"),
    row<&tcp_grid_family::channels, list{one_of{k_channels}, true}>("channels"),
};

using strategy = shared_drb_family::strategy;
const table<strategy> k_strategy{
    row<&strategy::label, str{}>("label"),
    row<&strategy::policy, one_of{k_policies}>("policy"),
};
const table<shared_drb_family> k_shared_drb{
    row<&shared_drb_family::seed, k_u64>("seed"),
    row<&shared_drb_family::strategies, list{object{k_strategy}, true}>("strategies"),
};

using ecn_transport = ecn_impairment_family::transport;
using ecn_profile = ecn_impairment_family::profile;
const table<ecn_transport> k_ecn_transport{
    row<&ecn_transport::cca, one_of{k_cca_names}>("cca"),
    row<&ecn_transport::label, str{}>("label"),
};
const table<ecn_profile> k_ecn_profile{
    row<&ecn_profile::name, str{}>("name"),
    row<&ecn_profile::drop_non_ecn, flag{}>("drop_non_ecn"),
    row<&ecn_profile::impair, object{k_impairment}>("impair"),
};
const table<ecn_impairment_family> k_ecn_impairment{
    row<&ecn_impairment_family::seed, k_u64>("seed"),
    row<&ecn_impairment_family::ues, integer{1, 4096}>("ues"),
    row<&ecn_impairment_family::bottleneck_bps, number{1e3, 1e12}>("bottleneck_bps"),
    row<&ecn_impairment_family::bottleneck_aqm, one_of{k_aqms}>("bottleneck_aqm"),
    row<&ecn_impairment_family::cross_rate_bps, k_bps>("cross_rate_bps"),
    row<&ecn_impairment_family::cross_options, list{flag{}, true}>("cross_options"),
    row<&ecn_impairment_family::ccas, list{object{k_ecn_transport}, true}>("ccas"),
    row<&ecn_impairment_family::profiles, list{object{k_ecn_profile}, true}>("profiles"),
};

using fault_profile = fault_chaos_family::profile;
using fault_transport = fault_chaos_family::transport;
constexpr number k_fault_rate{0.0, 100.0};
const table<fault_profile> k_fault_profile{
    row<&fault_profile::name, str{}>("name"),
    row<&fault_profile::rlf_per_ue_per_sec, k_fault_rate>("rlf_per_ue_per_sec"),
    row<&fault_profile::ho_failure_per_ue_per_sec, k_fault_rate>(
        "ho_failure_per_ue_per_sec"),
    row<&fault_profile::outages_per_cell_per_sec, k_fault_rate>(
        "outages_per_cell_per_sec"),
    row<&fault_profile::flaps_per_cell_per_sec, k_fault_rate>("flaps_per_cell_per_sec"),
};
const table<fault_transport> k_fault_transport{
    row<&fault_transport::cca, one_of{k_cca_names}>("cca"),
    row<&fault_transport::media, flag{}>("media"),
};
const table<fault_chaos_family> k_fault_chaos{
    row<&fault_chaos_family::num_cells, integer{1, 64}>("num_cells"),
    row<&fault_chaos_family::ues_per_cell, integer{1, 256}>("ues_per_cell"),
    row<&fault_chaos_family::cell_seed, k_u64>("cell_seed"),
    row<&fault_chaos_family::wired_bps, number{1e3, 1e12}>("wired_bps"),
    row<&fault_chaos_family::fault_seed, k_u64>("fault_seed"),
    row<&fault_chaos_family::fault_start_ms, number{0.0, 3600e3}>("fault_start_ms"),
    row<&fault_chaos_family::fault_end_margin_ms, number{0.0, 3600e3}>(
        "fault_end_margin_ms"),
    row<&fault_chaos_family::profiles, list{object{k_fault_profile}, true}>("profiles"),
    row<&fault_chaos_family::transports, list{object{k_fault_transport}, true}>(
        "transports"),
};

const table<cell_flows_family> k_cell_flows{
    row<&cell_flows_family::seeds, list{k_u64, true}>("seeds"),
    row<&cell_flows_family::cell, object{k_cell}>("cell"),
    row<&cell_flows_family::flows, list{object{k_flow}, true}>("flows"),
};

// The document's own keys, after "schema" and before the family section.
const table<scenario_spec> k_document{
    row<&scenario_spec::figure, str{}>("figure"),
    row<&scenario_spec::title, str{}>("title"),
    row<&scenario_spec::paper_ref, str{}>("paper_ref"),
    row<&scenario_spec::quick, flag{}>("quick"),
    row<&scenario_spec::duration, ticks{sim::k_second, 0.001, 3600.0}>("duration_s"),
    row<&scenario_spec::family, str{}>("family"),
};

// One experiment family: its parameter block (keyed by the family name),
// defaults derived from other keys after binding, and semantic checks.
struct family_block {
    field<scenario_spec> section;
    void (*fill)(scenario_spec&);
    void (*check)(const scenario_spec&);
};

template <auto Block, const auto& Rows>
std::pair<std::string, family_block> family_entry(const char* name,
                                                  void (*fill)(scenario_spec&),
                                                  void (*check)(const scenario_spec&))
{
    return {name, {row<Block, object{Rows}>(name), fill, check}};
}

std::string default_profile_name(std::size_t i)
{
    return "profile" + std::to_string(i);
}

const name_table<family_block> k_families{
    "family",
    {family_entry<&scenario_spec::tcp_grid, k_tcp_grid>("tcp_grid", nullptr,
            [](const scenario_spec& s) {
                const auto& g = s.tcp_grid;
                require(!g.rtts_ms.empty() && !g.queues_sdus.empty() &&
                            !g.ue_counts.empty() && !g.ccas.empty() &&
                            !g.channels.empty(),
                        "tcp_grid: every axis (rtts_ms, queues_sdus, ue_counts, "
                        "ccas, channels) needs at least one entry");
            }),
     family_entry<&scenario_spec::shared_drb, k_shared_drb>("shared_drb",
            [](scenario_spec& s) {
                for (auto& st : s.shared_drb.strategies)
                    if (st.label.empty()) st.label = k_policies.name_of(st.policy);
            },
            [](const scenario_spec& s) {
                require(!s.shared_drb.strategies.empty(),
                        "shared_drb.strategies needs at least one entry");
            }),
     family_entry<&scenario_spec::ecn_impairment, k_ecn_impairment>("ecn_impairment",
            [](scenario_spec& s) {
                auto& f = s.ecn_impairment;
                for (auto& t : f.ccas)
                    if (t.label.empty()) t.label = t.cca;
                for (std::size_t i = 0; i < f.profiles.size(); ++i)
                    if (f.profiles[i].name.empty())
                        f.profiles[i].name = default_profile_name(i);
            },
            [](const scenario_spec& s) {
                const auto& f = s.ecn_impairment;
                require(!f.ccas.empty() && !f.profiles.empty() &&
                            !f.cross_options.empty(),
                        "ecn_impairment: ccas, profiles and cross_options each need "
                        "at least one entry");
                for (std::size_t i = 0; i < f.profiles.size(); ++i)
                    f.profiles[i].impair.validate("ecn_impairment.profiles[" +
                                                  std::to_string(i) + "].impair");
            }),
     family_entry<&scenario_spec::fault_chaos, k_fault_chaos>("fault_chaos",
            [](scenario_spec& s) {
                auto& profiles = s.fault_chaos.profiles;
                for (std::size_t i = 0; i < profiles.size(); ++i)
                    if (profiles[i].name.empty())
                        profiles[i].name = default_profile_name(i);
            },
            [](const scenario_spec& s) {
                const auto& f = s.fault_chaos;
                require(!f.profiles.empty() && !f.transports.empty(),
                        "fault_chaos: profiles and transports each need at least one "
                        "entry");
                require(sim::from_ms(f.fault_start_ms) +
                                sim::from_ms(f.fault_end_margin_ms) <
                            s.duration,
                        "fault_chaos: fault_start_ms + fault_end_margin_ms must leave a "
                        "non-empty fault window inside duration_s");
            }),
     family_entry<&scenario_spec::cell_flows, k_cell_flows>("cell_flows", nullptr,
            [](const scenario_spec& s) {
                const auto& f = s.cell_flows;
                require(!f.seeds.empty(), "cell_flows.seeds needs at least one entry");
                require(!f.flows.empty(), "cell_flows.flows needs at least one entry");
                f.cell.impair_dl.validate("cell_flows.cell.impair_dl");
                f.cell.impair_ul.validate("cell_flows.cell.impair_ul");
                f.cell.wred.validate("cell_flows.cell.wred");
                for (std::size_t i = 0; i < f.cell.cross_traffic.size(); ++i)
                    f.cell.cross_traffic[i].validate("cell_flows.cell.cross_traffic[" +
                                                     std::to_string(i) + "]");
                for (const auto& fl : f.flows)
                    require(fl.spec.ue + fl.count <= f.cell.num_ues,
                            "cell_flows.flows: flow on ue " + std::to_string(fl.spec.ue) +
                                " with count " + std::to_string(fl.count) +
                                " exceeds cell.num_ues (" +
                                std::to_string(f.cell.num_ues) + ")");
            })}};

}  // namespace

std::string shared_drb_policy_name(core::shared_drb_policy p)
{
    return k_policies.name_of(p);
}

core::shared_drb_policy shared_drb_policy_by_name(const std::string& name)
{
    if (const auto* p = k_policies.find(name)) return *p;
    throw scenario_error(k_policies.unknown(name));
}

void scenario_spec::validate() const
{
    require(duration > 0, "duration_s must be > 0");
    const family_block* fam = k_families.find(family);
    if (!fam) throw scenario_error(k_families.unknown(family));
    try {
        fam->check(*this);
    } catch (const std::invalid_argument& e) {
        throw scenario_error(e.what());
    }
}

scenario_spec parse_scenario_text(std::string_view text, const std::string& origin)
{
    stats::json doc;
    try {
        doc = stats::json::parse(text);
    } catch (const stats::json_parse_error& e) {
        throw scenario_error(origin + ": " + e.what());
    }
    if (!doc.is_object()) fail_at(origin, doc.line(), "\"$\" must be an object");
    std::string schema;
    if (const stats::json* v = doc.find("schema"))
        str{}.bind(site{origin, doc.line(), "$.schema", *v}, schema);
    if (schema != k_scenario_schema)
        fail_at(origin, doc.line(),
                "key \"$.schema\" must be \"" + std::string(k_scenario_schema) +
                    "\", got \"" + schema + "\"");
    scenario_spec spec;
    bind_fields(origin, doc, "$", k_document, spec);
    const family_block* fam = k_families.find(spec.family);
    if (!fam)
        fail_at(origin, doc.line(),
                "key \"$.family\": " + k_families.unknown(spec.family));
    const stats::json* section = doc.find(spec.family);
    if (!section)
        fail_at(origin, doc.line(),
                "missing section \"$." + spec.family +
                    "\" (the family names its parameter block)");
    fam->section.bind(site{origin, doc.line(), spec.family, *section}, spec);
    if (fam->fill) fam->fill(spec);
    // Two parameter blocks with one family selector is a scenario that
    // silently ignores half its content — diagnose instead.
    std::vector<std::string_view> known{"schema"};
    for (std::string_view k : keys_of(k_document)) known.push_back(k);
    for (const auto& [name, block] : k_families.entries) {
        known.push_back(name);
        if (name == spec.family) continue;
        if (const stats::json* stray = doc.find(name))
            fail_at(origin, stray->line(),
                    "section \"$." + name + "\" present but family is \"" + spec.family +
                        "\" — remove it or change $.family");
    }
    reject_unknown(origin, doc, "$", known);
    try {
        spec.validate();
    } catch (const scenario_error& e) {
        throw scenario_error(origin + ": " + e.what());
    }
    return spec;
}

scenario_spec load_scenario_file(const std::string& path)
{
    std::string text;
    if (!stats::read_text_file(path, text))
        throw scenario_error(path + ": cannot read scenario file");
    return parse_scenario_text(text, path);
}

stats::json export_scenario(const scenario_spec& spec)
{
    const family_block* fam = k_families.find(spec.family);
    if (!fam)
        throw scenario_error("export_scenario: unknown family \"" + spec.family + "\"");
    auto j = stats::json::object();
    j.set("schema", k_scenario_schema);
    emit_fields(k_document, spec, j);
    j.set(spec.family, fam->section.emit(spec));
    return j;
}

int write_scenario_file(const std::string& path, const scenario_spec& spec)
{
    if (!stats::write_text_file(path, export_scenario(spec).dump())) {
        std::fprintf(stderr, "error: cannot write scenario to %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

}  // namespace l4span::scenario
