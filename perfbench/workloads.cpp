#include "workloads.h"

#include <algorithm>
#include <memory>

#include "scenario/cell_scenario.h"
#include "scenario/topology.h"
#include "topo/fault_plan.h"
#include "topo/mobility_model.h"

namespace perfbench {

using namespace l4span;

namespace {

constexpr int k_windows = 8;  // window probes split the run into 8 windows

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t lane)
{
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (lane + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// FNV-1a over the simulated results: a run's fingerprint.
class digest {
public:
    void add(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
    void add(std::uint64_t v) { add(&v, sizeof v); }
    void add(double v) { add(&v, sizeof v); }
    void add(const std::vector<double>& v)
    {
        add(static_cast<std::uint64_t>(v.size()));
        add(v.data(), v.size() * sizeof(double));
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Per-flow results through the accessors topology and cell_scenario share.
template <typename Harness>
void collect_flows(const Harness& h, const std::vector<int>& handles,
                   const std::vector<scenario::flow_spec>& specs, run_result& r,
                   digest& d)
{
    r.flows = static_cast<int>(handles.size());
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const int f = handles[i];
        const auto& owd = h.owd_ms(f).raw();
        const bool classic = !scenario::is_l4s_cca(specs[i].cca);
        for (double v : owd) {
            r.owd_ms.add(v);
            if (classic) r.classic_owd_ms.add(v);
        }
        const std::uint64_t bytes = h.delivered_bytes(f);
        const double gp = h.goodput_mbps(f);
        if (bytes == 0) ++r.failed_flows;
        r.goodput_mbps += gp;
        r.retransmits += h.flow_retransmits(f);
        r.delivered_segments += bytes / specs[i].mss;
        d.add(owd);
        d.add(bytes);
        d.add(gp);
        d.add(h.flow_retransmits(f));
    }
}

void collect_cell(scenario::cell& c, std::size_t initial_ues, run_result& r,
                  stats::sample_set& rlc_pool)
{
    ran::gnb& g = c.gnb();
    r.slots += g.slots_elapsed();
    r.ue_slots_total += g.num_ues();
    r.ue_slots_active += g.active_ues();
    r.ran_state_bytes += g.resident_state_bytes();
    for (std::size_t i = 0; i < initial_ues; ++i)
        for (double v : c.rlc_queue_sdus(c.rnti_of(i)).raw()) rlc_pool.add(v);
    if (const core::l4span* l = c.l4span_layer()) {
        r.has_core = true;
        r.core_state_bytes += l->resident_state_bytes();
        r.core_dl += l->dl_events();
        r.core_ul += l->ul_events();
        r.core_feedback += l->feedback_events();
        r.core_marks += l->marks();
        r.core_drops += l->drops();
    }
}

void digest_common(const run_result& r, digest& d)
{
    for (std::uint64_t v :
         {r.slots, r.ue_slots_total, r.ue_slots_active, r.handovers, r.rlf, r.core_dl,
          r.core_ul, r.core_feedback, r.core_marks, r.core_drops, r.aqm_marks,
          r.cross_packets, r.impair_events, r.ce_packets, r.ecn_fallbacks})
        d.add(v);
}

// Traced-run instrumentation of one cell; written only by that cell's shard.
struct alignas(64) cell_probe {
    std::unique_ptr<timing_hook> hook;
    std::uint64_t queries = 0;
    std::uint64_t tbs = 0;
    std::uint64_t tb_bytes = 0;
    std::vector<double> marks = std::vector<double>(k_windows + 1, 0.0);
};

struct probe_set {
    std::vector<cell_probe> cells;
    clock_type::time_point origin;

    // Hooks (L4Span cells only), counting handlers and window probes on
    // every cell; loops[i] is the loop cs[i] runs on.
    void arm(std::vector<scenario::cell*> cs, std::vector<sim::event_loop*> loops,
             sim::tick duration)
    {
        cells.resize(cs.size());
        for (std::size_t i = 0; i < cs.size(); ++i) {
            cell_probe* p = &cells[i];
            if (core::l4span* l = cs[i]->l4span_layer()) {
                p->hook = std::make_unique<timing_hook>(*l);
                cs[i]->gnb().set_cu_hook(p->hook.get());
            }
            cs[i]->set_linklog_handler(
                [p](ran::rnti_t, sim::tick, int, int, std::uint32_t) { ++p->queries; });
            cs[i]->gnb().set_txlog_handler(
                [p](ran::rnti_t, ran::drb_id_t, std::uint32_t bytes, sim::tick) {
                    ++p->tbs;
                    p->tb_bytes += bytes;
                });
            for (int k = 0; k <= k_windows; ++k)
                loops[i]->schedule_at(duration * k / k_windows, [this, p, k] {
                    p->marks[static_cast<std::size_t>(k)] = seconds_since(origin);
                });
        }
    }
    // Window k's host time: shards running in lockstep finish a window
    // together (max over shards); cells run one after another add up.
    void collect(run_result& r, bool lockstep) const
    {
        r.window_s.assign(k_windows, 0.0);
        for (int k = 1; k <= k_windows; ++k) {
            const auto ki = static_cast<std::size_t>(k);
            double prev = 0.0, cur = 0.0, sum = 0.0;
            for (const cell_probe& p : cells) {
                prev = std::max(prev, p.marks[ki - 1]);
                cur = std::max(cur, p.marks[ki]);
                sum += p.marks[ki] - p.marks[ki - 1];
            }
            r.window_s[ki - 1] = lockstep ? cur - prev : sum;
        }
        for (const cell_probe& p : cells) {
            r.sched_queries += p.queries;
            r.tbs += p.tbs;
            r.tb_bytes += p.tb_bytes;
            if (p.hook)
                for (std::size_t op = 0; op < k_hook_ops; ++op)
                    r.hook_times[op].merge(p.hook->times(static_cast<hook_op>(op)));
        }
    }
};

// --- scenario::topology workloads (busy_cell, handover_churn) ---------------

struct topology_params {
    const char* name;
    int cells;
    int ues_per_cell;
    const char* channel;
    int classic_every;  // every n-th UE runs CUBIC (0: all Prague)
    double ho_per_ue_per_sec;
    double rlf_per_ue_per_sec;
    int jobs;
    double sim_seconds;
};

class topology_workload final : public workload {
public:
    explicit topology_workload(topology_params p) : p_(p) {}

    const char* name() const override { return p_.name; }
    int jobs() const override { return p_.jobs; }

    scenario::cell_spec cell_spec(std::uint64_t seed) const override
    {
        scenario::cell_spec c;
        c.channel = p_.channel;
        c.cu = scenario::cu_mode::l4span;
        c.seed = seed;
        return c;
    }

    run_result run(std::uint64_t seed, const run_options& opt) const override
    {
        run_result r;
        probe_set probes;  // outlives the topology that points into it
        const auto t0 = clock_type::now();
        built b = build(seed, opt);
        if (opt.traced) {
            std::vector<scenario::cell*> cs;
            std::vector<sim::event_loop*> loops;
            for (int c = 0; c < b.topo->num_cells(); ++c) {
                cs.push_back(&b.topo->cell_at(c));
                loops.push_back(&b.topo->shards().loop(static_cast<std::size_t>(c)));
            }
            probes.arm(cs, loops, duration());
        }
        r.setup_s = seconds_since(t0);

        const auto t1 = clock_type::now();
        probes.origin = t1;
        b.topo->run(duration());
        r.wall_s = seconds_since(t1);

        scenario::topology& topo = *b.topo;
        digest d;
        collect_flows(topo, b.handles, b.specs, r, d);
        r.sim_seconds = p_.sim_seconds;
        r.events = topo.processed_events();
        stats::sample_set rlc_pool;
        double queuing = 0.0, scheduling = 0.0;
        for (int c = 0; c < topo.num_cells(); ++c) {
            sim::event_loop& loop = topo.shards().loop(static_cast<std::size_t>(c));
            r.shard_events.push_back(loop.processed());
            r.slab_slots += loop.slab_slots();
            collect_cell(topo.cell_at(c), static_cast<std::size_t>(p_.ues_per_cell), r,
                         rlc_pool);
            queuing += topo.cell_at(c).mean_queuing_ms();
            scheduling += topo.cell_at(c).mean_scheduling_ms();
        }
        r.queuing_ms_mean = queuing / topo.num_cells();
        r.scheduling_ms_mean = scheduling / topo.num_cells();
        r.rlc_queue_sdus_p99 = rlc_pool.empty() ? 0.0 : rlc_pool.percentile(99.0);
        r.handovers = topo.handovers_completed();
        r.rlf = topo.rlf_detected();
        const std::vector<double> rec = topo.recovery_ms();
        if (!rec.empty()) {
            stats::sample_set s;
            for (double v : rec) s.add(v);
            r.recovery_ms_p50 = s.median();
        }
        digest_common(r, d);
        d.add(rec);
        r.digest = d.value();

        if (opt.traced) {
            probes.collect(r, /*lockstep=*/true);
            if (obs::hub* hub = topo.obs_hub())
                for (std::size_t s = 0; s < hub->num_shards(); ++s)
                    r.trace_events += hub->shard_tracer(s).ring().total();
        }
        return r;
    }

    double setup_only(std::uint64_t seed) const override
    {
        const auto t0 = clock_type::now();
        built b = build(seed, run_options{p_.jobs, false});
        return seconds_since(t0);
    }

private:
    struct built {
        std::unique_ptr<scenario::topology> topo;
        std::vector<int> handles;
        std::vector<scenario::flow_spec> specs;
    };

    sim::tick duration() const { return sim::from_sec(p_.sim_seconds); }

    built build(std::uint64_t seed, const run_options& opt) const
    {
        scenario::topology_spec spec;
        spec.num_cells = p_.cells;
        spec.ues_per_cell = p_.ues_per_cell;
        spec.cell = cell_spec(seed);
        spec.cell.obs.enabled = opt.traced;
        spec.jobs = opt.jobs;
        built b;
        b.topo = std::make_unique<scenario::topology>(spec);
        for (int ue = 0; ue < b.topo->num_ues(); ++ue) {
            scenario::flow_spec f;
            f.ue = ue;
            const bool classic =
                p_.classic_every > 0 && ue % p_.classic_every == p_.classic_every - 1;
            f.cca = classic ? "cubic" : "prague";
            b.specs.push_back(f);
            b.handles.push_back(b.topo->add_flow(f));
        }
        if (p_.ho_per_ue_per_sec > 0.0) {
            topo::mobility_config mob;
            mob.num_cells = p_.cells;
            mob.ues_per_cell = p_.ues_per_cell;
            mob.handovers_per_ue_per_sec = p_.ho_per_ue_per_sec;
            mob.end = duration();
            mob.seed = mix_seed(seed, 1);
            b.topo->apply(topo::mobility_model(mob).schedule());
        }
        if (p_.rlf_per_ue_per_sec > 0.0) {
            topo::fault_plan_config fc;
            fc.num_cells = p_.cells;
            fc.ues_per_cell = p_.ues_per_cell;
            fc.end = duration();
            fc.seed = mix_seed(seed, 2);
            fc.rlf_per_ue_per_sec = p_.rlf_per_ue_per_sec;
            b.topo->apply_faults(topo::fault_plan(fc));
        }
        return b;
    }

    topology_params p_;
};

// --- scenario::cell_scenario workload (wired_l4s) ---------------------------

// `replicas` independent copies of the cell (seeds derived from the
// benchmark seed), built together and run one after another. A single
// 8-UE deep-queue cell's delay distribution swings widely from seed to seed;
// pooling several realizations makes one run's figures representative.
struct wired_params {
    int ues;
    int replicas;
    double sim_seconds;
};

class wired_workload final : public workload {
public:
    explicit wired_workload(wired_params p) : p_(p) {}

    const char* name() const override { return "wired_l4s"; }
    bool has_wired_aqm() const override { return true; }

    scenario::cell_spec cell_spec(std::uint64_t seed) const override
    {
        scenario::cell_spec c;
        c.num_ues = p_.ues;
        c.channel = "mobile";
        c.cu = scenario::cu_mode::none;
        c.rlc_queue_sdus = 16384;
        c.separate_drbs_per_class = true;
        c.seed = seed;
        c.bottleneck_bps = 80e6;
        c.bottleneck_aqm = "dualpi2";
        topo::cross_traffic_spec x;
        x.model = "poisson";
        x.rate_bps = 20e6;
        c.cross_traffic.push_back(x);
        c.impair_dl.reorder = 0.01;
        c.impair_dl.loss = 0.001;
        c.impair_dl.loss_burst = 3.0;
        return c;
    }

    run_result run(std::uint64_t seed, const run_options& opt) const override
    {
        run_result r;
        probe_set probes;
        const auto t0 = clock_type::now();
        std::vector<built> bs;
        for (int i = 0; i < p_.replicas; ++i)
            bs.push_back(build(replica_seed(seed, i), opt));
        if (opt.traced) {
            std::vector<scenario::cell*> cs;
            std::vector<sim::event_loop*> loops;
            for (built& b : bs) {
                cs.push_back(&b.s->cell());
                loops.push_back(&b.s->loop());
            }
            probes.arm(cs, loops, duration());
        }
        r.setup_s = seconds_since(t0);

        // Each replica is dropped once collected, so peak memory is one
        // replica's run on top of the others' initial state.
        const auto t1 = clock_type::now();
        probes.origin = t1;
        digest d;
        stats::sample_set rlc_pool;
        r.sim_seconds = p_.sim_seconds;
        for (built& b : bs) {
            const auto t2 = clock_type::now();
            b.s->run(duration());
            r.wall_s += seconds_since(t2);

            scenario::cell_scenario& s = *b.s;
            run_result one;
            collect_flows(s, b.handles, b.specs, one, d);
            for (double v : one.owd_ms.raw()) r.owd_ms.add(v);
            for (double v : one.classic_owd_ms.raw()) r.classic_owd_ms.add(v);
            r.flows += one.flows;
            r.failed_flows += one.failed_flows;
            r.goodput_mbps += one.goodput_mbps / p_.replicas;
            r.retransmits += one.retransmits;
            r.delivered_segments += one.delivered_segments;
            r.events += s.loop().processed();
            r.slab_slots = std::max<std::uint64_t>(r.slab_slots, s.loop().slab_slots());
            collect_cell(s.cell(), static_cast<std::size_t>(p_.ues), r, rlc_pool);
            r.queuing_ms_mean += s.mean_queuing_ms() / p_.replicas;
            r.scheduling_ms_mean += s.mean_scheduling_ms() / p_.replicas;
            r.aqm_marks += s.bottleneck_ce_marks();
            r.cross_packets += s.cross_traffic_packets();
            if (const topo::path_impairment* st = s.impair_dl()) {
                const topo::impairment_stats& is = st->stats();
                r.bottleneck_packets += is.input;
                r.impair_events += is.remarked + is.bleached + is.stripped + is.lost +
                                   is.reordered + is.duplicated;
            }
            for (int f : b.handles) {
                r.ce_packets += s.flow_ce_packets(f);
                r.ecn_fallbacks += s.flow_ecn_fallback(f) ? 1 : 0;
            }
            if (obs::hub* hub = s.obs_hub())
                for (std::size_t i = 0; i < hub->num_shards(); ++i)
                    r.trace_events += hub->shard_tracer(i).ring().total();
            b.s.reset();
        }
        r.shard_events.push_back(r.events);
        r.rlc_queue_sdus_p99 = rlc_pool.empty() ? 0.0 : rlc_pool.percentile(99.0);
        digest_common(r, d);
        r.digest = d.value();
        if (opt.traced) probes.collect(r, /*lockstep=*/false);
        return r;
    }

    double setup_only(std::uint64_t seed) const override
    {
        const auto t0 = clock_type::now();
        std::vector<built> bs;
        for (int i = 0; i < p_.replicas; ++i)
            bs.push_back(build(replica_seed(seed, i), run_options{}));
        return seconds_since(t0);
    }

private:
    struct built {
        std::unique_ptr<scenario::cell_scenario> s;
        std::vector<int> handles;
        std::vector<scenario::flow_spec> specs;
    };

    sim::tick duration() const { return sim::from_sec(p_.sim_seconds); }
    static std::uint64_t replica_seed(std::uint64_t seed, int i)
    {
        return mix_seed(seed, 16 + static_cast<std::uint64_t>(i));
    }

    built build(std::uint64_t seed, const run_options& opt) const
    {
        scenario::cell_spec spec = cell_spec(seed);
        spec.obs.enabled = opt.traced;
        built b;
        b.s = std::make_unique<scenario::cell_scenario>(spec);
        for (int ue = 0; ue < p_.ues; ++ue)
            for (const char* cca : {"prague", "cubic"}) {
                scenario::flow_spec f;
                f.ue = ue;
                f.cca = cca;
                b.specs.push_back(f);
                b.handles.push_back(b.s->add_flow(f));
            }
        return b;
    }

    wired_params p_;
};

}  // namespace

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names{"busy_cell", "wired_l4s",
                                                "handover_churn"};
    return names;
}

// Full-size sim lengths keep one timed run between about 1 and 3.5 s of host
// time, so one benchmark run takes the median of many repeats.
std::unique_ptr<workload> make_workload(const std::string& name, size_class size)
{
    const bool full = size == size_class::full;
    if (name == "busy_cell")
        return std::make_unique<topology_workload>(topology_params{
            "busy_cell", 1, full ? 64 : 16, "static", 0, 0.0, 0.0, 1, full ? 20.0 : 1.0});
    if (name == "wired_l4s")
        return std::make_unique<wired_workload>(
            wired_params{full ? 8 : 4, full ? 32 : 2, full ? 5.0 : 1.0});
    if (name == "handover_churn")
        return std::make_unique<topology_workload>(
            topology_params{"handover_churn", 4, full ? 128 : 16, "mobile", 4, 1.0, 0.05,
                            2, full ? 6.0 : 1.5});
    return nullptr;
}

}  // namespace perfbench
