// perfbench: the simulator's same-host benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|small] [--source-id ID]
//
// --trace 0 times repeated untraced runs of one workload for S seconds and
// reports the end-to-end metrics, host times scaled by a reference kernel
// timed beside them (see probes.h); --trace 1 makes the per-layer run (an
// untraced run for exact counts, a jobs-1 run for sharded workloads, and one
// traced run for per-layer timings). A human-readable report goes to stderr;
// stdout gets one JSON line with the verdict, every metric with its unit,
// the results digests and the provenance block.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "probes.h"
#include "workloads.h"

namespace {

using perfbench::clock_type;
using perfbench::hook_op;
using perfbench::run_options;
using perfbench::run_result;
using perfbench::seconds_since;

struct args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    perfbench::size_class size = perfbench::size_class::full;
    std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--size full|small] [--source-id ID]\n",
                 why);
    std::exit(2);
}

args parse_args(int argc, char** argv)
{
    args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end) usage("--seed takes a whole number");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a.seconds > 0.0)) usage("--seconds takes a positive number");
        } else if (k == "--trace") {
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--size") {
            if (v != "full" && v != "small") usage("--size takes full or small");
            a.size = v == "full" ? perfbench::size_class::full
                                 : perfbench::size_class::small;
        } else if (k == "--source-id") {
            a.source_id = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    return a;
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak resident set of this process image. VmHWM, not ru_maxrss: Linux
// carries ru_maxrss across execve, so a driver launched from a large
// parent process would report the parent's footprint.
double peak_rss_mb()
{
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        double kib = -1.0;
        while (std::fgets(line, sizeof line, f))
            if (std::strncmp(line, "VmHWM:", 6) == 0)
                kib = std::strtod(line + 6, nullptr);
        std::fclose(f);
        if (kib > 0.0) return kib / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

// printf into a std::string.
std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

double as_d(std::uint64_t v) { return static_cast<double>(v); }
std::uint64_t as_u64(int v) { return static_cast<std::uint64_t>(v); }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

struct metric {
    std::string name;
    double value;
    std::string unit;
};

// Collects metrics, notes and digests, and prints them: a human-readable
// report on stderr and one JSON line on stdout. The JSON is written by hand
// because stats::json rounds numbers to 10 significant digits.
class report {
public:
    void add(std::string name, double value, std::string unit)
    {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }
    void count(std::string name, std::uint64_t v)
    {
        add(std::move(name), as_d(v), "count");
    }
    void note(std::string line) { notes_.push_back(std::move(line)); }
    void digest(std::string label, std::uint64_t d)
    {
        digests_.emplace_back(std::move(label), d);
    }

    // Compares every recorded digest against the first; each mismatch is
    // named with the workload and counted as a failure.
    int digest_mismatches(const std::string& workload)
    {
        int bad = 0;
        for (const auto& [label, d] : digests_)
            if (d != digests_.front().second) {
                ++bad;
                note("DIGEST MISMATCH in " + workload + ": " + label + " " + hex(d) +
                     " != " + digests_.front().first + " " +
                     hex(digests_.front().second));
            }
        return bad;
    }

    void print(const args& a, const perfbench::workload& wl, bool correct,
               std::uint64_t attempted, std::uint64_t failed, int workers) const
    {
        std::fprintf(stderr, "\n== perfbench %s (seed %llu, trace %d) ==\n", wl.name(),
                     static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
        for (const auto& m : metrics_)
            std::fprintf(stderr, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                         m.unit.c_str());
        for (const auto& n : notes_) std::fprintf(stderr, "  %s\n", n.c_str());
        std::fprintf(stderr, "  verdict: %s (%llu attempted, %llu failed)\n",
                     correct ? "correct" : "INCORRECT",
                     static_cast<unsigned long long>(attempted),
                     static_cast<unsigned long long>(failed));

        std::string out = "{\"workload\":\"" + json_escape(wl.name()) + "\"";
        out += ",\"correct\":" + std::string(correct ? "true" : "false");
        out += ",\"attempted\":" + std::to_string(attempted);
        out += ",\"failed\":" + std::to_string(failed);
        out += ",\"metrics\":{";
        char num[64];
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
            out += (i ? ",\"" : "\"") + json_escape(metrics_[i].name) +
                   "\":{\"value\":" + num + ",\"unit\":\"" +
                   json_escape(metrics_[i].unit) + "\"}";
        }
        // Digests grouped by value: one key per distinct digest, listing
        // the runs that produced it.
        out += "},\"digests\":{";
        std::vector<std::uint64_t> seen;
        for (const auto& [label, d] : digests_) {
            if (std::find(seen.begin(), seen.end(), d) != seen.end()) continue;
            out += std::string(seen.empty() ? "" : ",") + "\"" + hex(d) + "\":[";
            bool first = true;
            for (const auto& [l2, d2] : digests_)
                if (d2 == d) {
                    out += std::string(first ? "" : ",") + "\"" + json_escape(l2) + "\"";
                    first = false;
                }
            out += "]";
            seen.push_back(d);
        }
        out += "},\"notes\":[";
        for (std::size_t i = 0; i < notes_.size(); ++i)
            out += (i ? ",\"" : "\"") + json_escape(notes_[i]) + "\"";
        out += "],\"provenance\":{";
        out += "\"source_id\":\"" + json_escape(a.source_id) + "\"";
        out += ",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) + "\"";
        out += ",\"flags\":\"" + json_escape(PERFBENCH_FLAGS) + "\"";
        out += ",\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
        out += ",\"cpu\":\"" + json_escape(cpu_model()) + "\"";
        out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
        out += ",\"workers\":" + std::to_string(workers);
        out += ",\"seed\":" + std::to_string(a.seed);
        std::snprintf(num, sizeof num, "%.17g", a.seconds);
        out += ",\"seconds\":" + std::string(num);
        const bool full = a.size == perfbench::size_class::full;
        out += ",\"size\":\"" + std::string(full ? "full" : "small") + "\"";
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
    }

private:
    std::vector<metric> metrics_;
    std::vector<std::string> notes_;
    std::vector<std::pair<std::string, std::uint64_t>> digests_;
};

// Simulated results are only plausible when every flow moved data and the
// delay/goodput figures exist.
bool plausible(const run_result& r)
{
    return r.flows > 0 && r.failed_flows == 0 && r.owd_ms.count() >= 100 &&
           r.goodput_mbps > 0.0 && std::isfinite(r.owd_ms.percentile(99.0));
}

// --- end-to-end (untraced) runs -----------------------------------------

int run_end_to_end(const args& a, const perfbench::workload& wl)
{
    report rep;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    try {
        // Warm-up at jobs 1, not timed: fills caches and the allocator, and
        // for a sharded workload its digest is the jobs-1 reference.
        const run_result warm = wl.run(a.seed, run_options{1, false});
        rep.digest("warmup_jobs1", warm.digest);
        attempted += as_u64(warm.flows);
        failed += as_u64(warm.failed_flows);

        // Each timed run is paired with the reference kernel timed just
        // before it; host times are reported at the nominal reference speed.
        std::vector<double> walls, refs, scaled_walls, per_event, setups;
        run_result first;
        const auto t0 = clock_type::now();
        for (int i = 0;; ++i) {
            refs.push_back(perfbench::reference_kernel_s());
            run_result r = wl.run(a.seed, run_options{wl.jobs(), false});
            const double scale = perfbench::k_reference_nominal_s / refs.back();
            walls.push_back(r.wall_s);
            scaled_walls.push_back(r.wall_s * scale);
            setups.push_back(r.setup_s);
            per_event.push_back(r.wall_s * scale * 1e9 / as_d(r.events));
            rep.digest(fmt("rep%d_jobs%d", i, wl.jobs()), r.digest);
            attempted += as_u64(r.flows);
            failed += as_u64(r.failed_flows);
            if (i == 0) first = std::move(r);
            const double used = seconds_since(t0);
            if (walls.size() >= 3 && used + median(walls) + median(setups) > a.seconds)
                break;
        }
        // Set-up alone, many more times (up to a second): setup_s is a
        // median of dozens of samples.
        const auto t1 = clock_type::now();
        for (int i = 0; i < 50 && seconds_since(t1) < 1.0; ++i)
            setups.push_back(wl.setup_only(a.seed));

        const int bad = rep.digest_mismatches(wl.name());
        failed += as_u64(bad * first.flows);
        correct = bad == 0 && plausible(warm) && plausible(first);

        const double ref = median(refs);
        rep.add("wall_s", median(scaled_walls), "s");
        rep.add("ns_per_event", median(per_event), "ns");
        rep.add("setup_s", median(setups) * perfbench::k_reference_nominal_s / ref, "s");
        rep.add("peak_rss_mb", peak_rss_mb(), "MiB");
        rep.add("owd_p50_ms", first.owd_ms.percentile(50.0), "ms");
        rep.add("owd_p99_ms", first.owd_ms.percentile(99.0), "ms");
        rep.add("goodput_mbps", first.goodput_mbps, "Mb/s");

        rep.note(fmt("%zu timed reps at jobs %d, %llu events each, %.2f sim-s; "
                     "owd samples %zu",
                     walls.size(), wl.jobs(),
                     static_cast<unsigned long long>(first.events), first.sim_seconds,
                     first.owd_ms.count()));
        rep.note(fmt("unscaled host medians: wall %.6g s, %.6g ns/event, setup %.6g s; "
                     "reference kernel %.4g ms (nominal %.4g ms)",
                     median(walls), median(walls) * 1e9 / as_d(first.events),
                     median(setups), ref * 1e3, perfbench::k_reference_nominal_s * 1e3));
        std::string walls_line = "rep walls (s):";
        for (double w : walls) walls_line += fmt(" %.4f", w);
        rep.note(walls_line);
        rep.note(fmt("failed_share %.6g (%llu of %llu flow-runs)",
                     ratio(as_d(failed), as_d(attempted)),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted)));
        if (first.classic_owd_ms.empty())
            rep.note("classic_owd_p99_ms n/a (no classic flows in this workload)");
        else
            rep.note(fmt("classic_owd_p99_ms %.6g ms (%zu samples)",
                         first.classic_owd_ms.percentile(99.0),
                         first.classic_owd_ms.count()));
    } catch (const std::exception& e) {
        rep.note(std::string("run threw: ") + e.what());
        correct = false;
        attempted = std::max<std::uint64_t>(attempted, 1);
        failed = attempted;
    }
    rep.print(a, wl, correct, attempted, failed, wl.jobs());
    return 0;
}

// --- per-layer (traced) run ----------------------------------------------

// Isolated per-call costs (ns) of the layers with no seam in a real run.
struct iso_costs {
    double timer = 0.0;
    double event = 0.0;
    double mcs = 0.0;
    double dualpi2 = 0.0;
};

// Per-layer metrics from the untraced run `u` (exact counts), the traced
// jobs-1 run `t` (timings) and the jobs-1 untraced wall time.
void add_layer_metrics(report& rep, const perfbench::workload& wl, const run_result& u,
                       const run_result& t, double serial_wall, const iso_costs& iso)
{
    const double wall_ns = t.wall_s * 1e9;
    const auto hist = [&](hook_op op) -> const perfbench::ns_histogram& {
        return t.hook_times[static_cast<std::size_t>(op)];
    };
    // Per-call figures with the timer's own cost taken off.
    const auto net = [&](double v) { return std::max(0.0, v - iso.timer); };
    double hook_self_ns = 0.0, hook_calls = 0.0;
    for (const auto& h : t.hook_times) {
        hook_self_ns += std::max(0.0, as_d(h.sum_ns()) - iso.timer * as_d(h.count()));
        hook_calls += as_d(h.count());
    }
    const double busy_share = hook_self_ns / wall_ns;
    const double timer_share = hook_calls * iso.timer / wall_ns;
    const double sim_share = as_d(t.events) * iso.event / wall_ns;
    const double chan_share = as_d(t.sched_queries) * iso.mcs / wall_ns;
    const double aqm_share = as_d(t.bottleneck_packets) * iso.dualpi2 / wall_ns;
    const double other =
        1.0 - busy_share - timer_share - sim_share - chan_share - aqm_share;

    const double shard_max =
        as_d(*std::max_element(u.shard_events.begin(), u.shard_events.end()));
    rep.count("sim.events", u.events);
    rep.add("sim.events_per_sim_s", as_d(u.events) / u.sim_seconds, "1/s");
    rep.count("sim.slab_slots", u.slab_slots);
    rep.add("sim.event_ns_iso", iso.event, "ns");
    rep.add("sim.est_share", sim_share, "fraction");
    rep.add("sim.shard.events_max_over_mean",
            shard_max / (as_d(u.events) / as_d(u.shard_events.size())), "ratio");
    rep.add("sim.shard.parallel_eff",
            wl.jobs() > 1 ? serial_wall / (wl.jobs() * u.wall_s) : 0.0, "ratio");

    rep.count("ran.slots", u.slots);
    rep.count("ran.sched_queries", t.sched_queries);
    rep.count("ran.tbs", t.tbs);
    rep.add("ran.tb_bytes", as_d(t.tb_bytes), "bytes");
    rep.count("ran.ue_slots_total", u.ue_slots_total);
    rep.count("ran.ue_slots_active", u.ue_slots_active);
    rep.add("ran.tombstone_ratio",
            ratio(as_d(u.ue_slots_total - u.ue_slots_active), as_d(u.ue_slots_total)),
            "ratio");
    rep.add("ran.window_cost_growth", ratio(t.window_s.back(), t.window_s[1]), "ratio");
    rep.add("ran.queuing_ms_mean", u.queuing_ms_mean, "ms");
    rep.add("ran.scheduling_ms_mean", u.scheduling_ms_mean, "ms");
    rep.add("ran.rlc_queue_sdus_p99", u.rlc_queue_sdus_p99, "sdus");
    rep.add("ran.resident_state_bytes", as_d(u.ran_state_bytes), "bytes");
    rep.count("ran.handovers", u.handovers);
    rep.count("ran.rlf", u.rlf);
    rep.add("ran.recovery_ms_p50", u.recovery_ms_p50, "ms");

    rep.add("core.state_bytes", as_d(u.core_state_bytes), "bytes");
    rep.count("core.dl_calls", u.core_dl);
    rep.count("core.ul_calls", u.core_ul);
    rep.count("core.feedback_calls", u.core_feedback);
    rep.add("core.mark_ratio", ratio(as_d(u.core_marks), as_d(u.core_dl)), "ratio");
    rep.count("core.drops", u.core_drops);
    for (const auto& [name, op] :
         {std::pair{"dl", hook_op::dl}, std::pair{"ul", hook_op::ul},
          std::pair{"feedback", hook_op::feedback}}) {
        const auto& h = hist(op);
        const std::string p = std::string("core.") + name;
        rep.add(p + "_ns_mean", h.count() ? net(h.mean()) : 0.0, "ns");
        rep.add(p + "_ns_p99", h.count() ? net(h.percentile(99.0)) : 0.0, "ns");
    }
    rep.add("core.busy_share", busy_share, "fraction");

    rep.count("chan.queries", t.sched_queries);
    rep.add("chan.mcs_ns_iso", iso.mcs, "ns");
    rep.add("chan.est_share", chan_share, "fraction");

    rep.count("aqm.marks", u.aqm_marks);
    rep.add("aqm.dualpi2_ns_iso", iso.dualpi2, "ns");
    rep.add("aqm.est_share", aqm_share, "fraction");
    rep.count("topo.cross_packets", u.cross_packets);
    rep.count("topo.impair_events", u.impair_events);

    rep.count("transport.retransmits", u.retransmits);
    rep.add("transport.retx_ratio",
            ratio(as_d(u.retransmits), as_d(u.delivered_segments)), "ratio");
    rep.count("transport.ce_packets", u.ce_packets);
    rep.count("transport.ecn_fallbacks", u.ecn_fallbacks);
    rep.add("transport.classic_owd_p99_ms",
            u.classic_owd_ms.empty() ? 0.0 : u.classic_owd_ms.percentile(99.0), "ms");

    rep.count("obs.trace_events", t.trace_events);
    rep.add("obs.timer_ns", iso.timer, "ns");
    rep.add("obs.timer_share", timer_share, "fraction");
    rep.add("obs.trace_overhead_pct", 100.0 * (t.wall_s / serial_wall - 1.0), "%");
    rep.add("other.share", other, "fraction");

    rep.note(fmt("reconcile %s: measured core %.4f + timer %.4f | estimated sim %.4f + "
                 "chan %.4f + aqm %.4f | other %.4f = %.4f of %.3f s traced wall",
                 wl.name(), busy_share, timer_share, sim_share, chan_share, aqm_share,
                 other,
                 busy_share + timer_share + sim_share + chan_share + aqm_share + other,
                 t.wall_s));
    if (u.has_core) {
        const auto verdict = [](bool ok) { return ok ? "within" : "MISSES"; };
        const double dl99 = net(hist(hook_op::dl).percentile(99.0));
        const double ul99 = net(hist(hook_op::ul).percentile(99.0));
        const double fb99 = net(hist(hook_op::feedback).percentile(99.0));
        rep.note(fmt("paper bounds (observed in a real run, not gated): dl p99 %.0f "
                     "ns %s 4 us; ul p99 %.0f ns %s 2 us; feedback p99 %.0f ns %s 2 "
                     "us; busy share %.2f%% %s Tab. 1's 2%%",
                     dl99, verdict(dl99 < 4000.0), ul99, verdict(ul99 < 2000.0), fb99,
                     verdict(fb99 < 2000.0), 100.0 * busy_share,
                     verdict(busy_share < 0.02)));
    } else {
        rep.note("paper bounds: n/a (no L4Span hook in this workload)");
    }
    if (u.classic_owd_ms.empty())
        rep.note("transport.classic_owd_p99_ms is 0: no classic flows in this workload");
    if (!wl.has_wired_aqm())
        rep.note("transport.ce_packets/ecn_fallbacks are 0: scenario::topology has no "
                 "per-flow CE or fallback accessor");
}

int run_per_layer(const args& a, const perfbench::workload& wl)
{
    report rep;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    try {
        // Isolated per-call costs first, on a quiet process.
        iso_costs iso;
        iso.timer = perfbench::timer_overhead_ns();
        iso.event = perfbench::event_loop_ns();
        iso.mcs = perfbench::channel_mcs_ns(wl.cell_spec(a.seed));
        if (wl.has_wired_aqm()) iso.dualpi2 = perfbench::dualpi2_ns(a.seed);

        const run_result u = wl.run(a.seed, run_options{wl.jobs(), false});
        rep.digest(fmt("untraced_jobs%d", wl.jobs()), u.digest);
        double serial_wall = u.wall_s;
        int runs = 2;
        if (wl.jobs() > 1) {
            const run_result serial = wl.run(a.seed, run_options{1, false});
            rep.digest("untraced_jobs1", serial.digest);
            serial_wall = serial.wall_s;
            failed += as_u64(serial.failed_flows);
            ++runs;
        }
        const run_result t = wl.run(a.seed, run_options{1, true});
        rep.digest("traced_jobs1", t.digest);
        attempted = as_u64(u.flows * runs);
        failed += as_u64(u.failed_flows + t.failed_flows);
        const int bad = rep.digest_mismatches(wl.name());
        failed += as_u64(bad * u.flows);
        correct = bad == 0 && plausible(u) && plausible(t);

        // The decorator must have seen exactly the calls the hook counted.
        const auto calls = [&](hook_op op) {
            return t.hook_times[static_cast<std::size_t>(op)].count();
        };
        if (calls(hook_op::dl) != u.core_dl || calls(hook_op::ul) != u.core_ul ||
            calls(hook_op::feedback) != u.core_feedback) {
            rep.note("HOOK COUNT MISMATCH: decorator saw different calls than the "
                     "L4Span counters");
            correct = false;
        }
        add_layer_metrics(rep, wl, u, t, serial_wall, iso);
    } catch (const std::exception& e) {
        rep.note(std::string("run threw: ") + e.what());
        correct = false;
        attempted = std::max<std::uint64_t>(attempted, 1);
        failed = attempted;
    }
    rep.print(a, wl, correct, attempted, failed, wl.jobs());
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const args a = parse_args(argc, argv);
    const auto wl = perfbench::make_workload(a.workload, a.size);
    if (!wl) {
        std::string valid;
        for (const auto& n : perfbench::workload_names()) valid += " " + n;
        usage(("unknown workload \"" + a.workload + "\" (valid:" + valid + ")").c_str());
    }
    return a.trace ? run_per_layer(a, *wl) : run_end_to_end(a, *wl);
}
