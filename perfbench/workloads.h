// The benchmark's three workloads, built through the public harness API
// (scenario::topology, or scenario::cell_scenario where the workload needs
// the wired bottleneck), and everything one run of them yields: host
// timings, the simulated results and their digest, and the per-layer counts
// read from public accessors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "stats/sample_set.h"

namespace perfbench {

enum class size_class : std::uint8_t { full, small };

struct run_options {
    int jobs = 1;
    // Traced run: obs hub in memory, a timing_hook on every L4Span cell,
    // counting linklog/txlog handlers and per-shard window probes.
    bool traced = false;
};

struct run_result {
    // --- host time ---
    double setup_s = 0.0;  // spec -> first event
    double wall_s = 0.0;   // run() only
    // --- simulated results (identical for every run of one seed) ---
    int flows = 0;
    int failed_flows = 0;  // flows that delivered no bytes
    l4span::stats::sample_set owd_ms;          // pooled over all flows
    l4span::stats::sample_set classic_owd_ms;  // pooled over classic flows
    double goodput_mbps = 0.0;                 // aggregate
    std::uint64_t digest = 0;
    // --- sim ---
    std::uint64_t events = 0;
    // Peak pending events: summed over shards running together, max over
    // replicas run one after another.
    std::uint64_t slab_slots = 0;
    std::vector<std::uint64_t> shard_events;
    double sim_seconds = 0.0;
    // --- ran ---
    std::uint64_t slots = 0;
    std::uint64_t ue_slots_total = 0;
    std::uint64_t ue_slots_active = 0;
    double queuing_ms_mean = 0.0;
    double scheduling_ms_mean = 0.0;
    double rlc_queue_sdus_p99 = 0.0;
    std::uint64_t ran_state_bytes = 0;
    std::uint64_t handovers = 0;
    std::uint64_t rlf = 0;
    double recovery_ms_p50 = 0.0;
    // --- core (L4Span) ---
    bool has_core = false;
    std::uint64_t core_state_bytes = 0;
    std::uint64_t core_dl = 0, core_ul = 0, core_feedback = 0;
    std::uint64_t core_marks = 0, core_drops = 0;
    // --- aqm / topo ---
    std::uint64_t aqm_marks = 0;
    std::uint64_t bottleneck_packets = 0;  // packets through the core AQM
    std::uint64_t cross_packets = 0;
    std::uint64_t impair_events = 0;
    // --- transport ---
    std::uint64_t retransmits = 0;
    std::uint64_t delivered_segments = 0;
    std::uint64_t ce_packets = 0;     // receiver-seen CE (cell_scenario only)
    std::uint64_t ecn_fallbacks = 0;  // (cell_scenario only)
    // --- traced run only ---
    std::uint64_t sched_queries = 0;  // linklog calls
    std::uint64_t tbs = 0;            // txlog calls
    std::uint64_t tb_bytes = 0;
    std::uint64_t trace_events = 0;
    std::vector<ns_histogram> hook_times = std::vector<ns_histogram>(k_hook_ops);
    // Host time spent in each of the run's equal sim-time windows.
    std::vector<double> window_s;
};

class workload {
public:
    virtual ~workload() = default;
    virtual const char* name() const = 0;
    // Worker threads of the timed (untraced) runs.
    virtual int jobs() const { return 1; }
    // The per-cell spec, for the isolated channel/AQM costs.
    virtual l4span::scenario::cell_spec cell_spec(std::uint64_t seed) const = 0;
    virtual bool has_wired_aqm() const { return false; }
    // Builds the workload (timed as setup), runs it, collects the result.
    virtual run_result run(std::uint64_t seed, const run_options& opt) const = 0;
    // Builds and tears down the workload without running it; returns the
    // set-up time.
    virtual double setup_only(std::uint64_t seed) const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<workload> make_workload(const std::string& name, size_class size);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
