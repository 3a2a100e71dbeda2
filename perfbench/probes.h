// Outside-in instrumentation for the benchmark's traced run: a timing
// decorator for the CU hook seam, a fixed-bin latency histogram, the timer
// calibration, and isolated per-call costs for the layers that have no
// public seam inside a running simulation (event loop, channel, AQM).
//
// Nothing here changes what the simulator computes: the decorator forwards
// every call unchanged and only reads the host clock.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "ran/cu_hook.h"
#include "scenario/cell.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point t0)
{
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// Host-time histogram with 4 ns bins up to 64 us (plus one overflow bin),
// so p99 of a per-call cost is exact to a bin without storing samples.
class ns_histogram {
public:
    static constexpr std::uint64_t k_bin_ns = 4;
    static constexpr std::size_t k_bins = 16384;

    void add(std::uint64_t ns)
    {
        const std::size_t b = static_cast<std::size_t>(ns / k_bin_ns);
        ++bins_[b < k_bins ? b : k_bins];
        ++count_;
        sum_ns_ += ns;
    }
    void merge(const ns_histogram& o);
    std::uint64_t count() const { return count_; }
    std::uint64_t sum_ns() const { return sum_ns_; }
    double mean() const;
    // Upper edge of the bin holding the p-th percentile (p in [0, 100]).
    double percentile(double p) const;

private:
    std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(k_bins + 1, 0);
    std::uint64_t count_ = 0;
    std::uint64_t sum_ns_ = 0;
};

// The CU hook's six virtuals, in declaration order.
enum class hook_op : std::uint8_t { detach, attach, dl, ul, feedback, discard };
inline constexpr std::size_t k_hook_ops = 6;

// Decorates one cell's CU hook: every virtual is forwarded to `inner` and
// timed with steady_clock. One decorator per cell, written only by the
// thread running that cell's shard.
class timing_hook final : public l4span::ran::cu_hook {
public:
    explicit timing_hook(l4span::ran::cu_hook& inner) : inner_(inner) {}

    std::unique_ptr<ue_state> detach_ue(l4span::ran::rnti_t ue) override;
    void attach_ue(l4span::ran::rnti_t ue, std::unique_ptr<ue_state> state) override;
    bool on_dl_packet(l4span::net::packet& pkt, l4span::ran::rnti_t ue,
                      l4span::ran::drb_id_t drb, l4span::ran::pdcp_sn_t sn,
                      l4span::sim::tick now) override;
    bool on_ul_packet(l4span::net::packet& pkt, l4span::ran::rnti_t ue,
                      l4span::sim::tick now) override;
    void on_delivery_status(const l4span::ran::dl_delivery_status& status,
                            l4span::sim::tick now) override;
    void on_dl_discard(l4span::ran::rnti_t ue, l4span::ran::drb_id_t drb,
                       l4span::ran::pdcp_sn_t sn, l4span::sim::tick now) override;

    const ns_histogram& times(hook_op op) const
    {
        return hist_[static_cast<std::size_t>(op)];
    }

private:
    l4span::ran::cu_hook& inner_;
    std::array<ns_histogram, k_hook_ops> hist_;
};

// Host-speed reference: a fixed toy discrete-event loop (binary heap of
// timed events over a 64k-entry state table) that belongs to the benchmark,
// not to the simulator, so no change under test can move it. Returns its
// host time in seconds. On a shared virtual machine the host's speed drifts
// by tens of percent over minutes; end-to-end host times are scaled by
// k_reference_nominal_s / (this kernel's time measured beside them).
double reference_kernel_s();
inline constexpr double k_reference_nominal_s = 0.05;

// Mean host cost of one timed empty call through a function pointer: the
// overhead every timing_hook sample carries.
double timer_overhead_ns();

// Isolated per-call costs (ns), each the median of several timed blocks.
// Event loop: schedule + fire of one packet-sized handler at ~1k pending,
// clustered ~50 to a slot timestamp as the RAN schedules them.
double event_loop_ns();
// link_model::mcs(t) at slot spacing for the UEs `spec` would build.
double channel_mcs_ns(const l4span::scenario::cell_spec& spec);
// dualpi2_queue enqueue + dequeue of one packet, as the wired bottleneck
// of cell_scenario configures it, at a standing queue of a few packets.
double dualpi2_ns(std::uint64_t seed);

}  // namespace perfbench
