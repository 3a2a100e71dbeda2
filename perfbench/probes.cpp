#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <queue>

#include "aqm/dualpi2.h"
#include "chan/fading.h"
#include "sim/event_loop.h"

namespace perfbench {

using namespace l4span;

namespace {

std::uint64_t elapsed_ns(clock_type::time_point t0, clock_type::time_point t1)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

double median_of(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

// Times `blocks` runs of body(n) and returns the median cost per call.
template <typename Body>
double per_call_ns(int blocks, std::uint64_t n, Body body)
{
    body(n / 10);  // warm-up, discarded
    std::vector<double> costs;
    for (int b = 0; b < blocks; ++b) {
        const auto t0 = clock_type::now();
        body(n);
        const auto t1 = clock_type::now();
        costs.push_back(static_cast<double>(elapsed_ns(t0, t1)) /
                        static_cast<double>(n));
    }
    return median_of(std::move(costs));
}

// Scoped timer for one decorated call.
class timed {
public:
    explicit timed(ns_histogram& h) : h_(h), t0_(clock_type::now()) {}
    ~timed() { h_.add(elapsed_ns(t0_, clock_type::now())); }
    timed(const timed&) = delete;
    timed& operator=(const timed&) = delete;

private:
    ns_histogram& h_;
    clock_type::time_point t0_;
};

std::uint64_t g_sink = 0;
void empty_call() { ++g_sink; }
void (*volatile g_empty)() = empty_call;

}  // namespace

// --- ns_histogram -----------------------------------------------------------

void ns_histogram::merge(const ns_histogram& o)
{
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += o.bins_[i];
    count_ += o.count_;
    sum_ns_ += o.sum_ns_;
}

double ns_histogram::mean() const
{
    return count_ ? static_cast<double>(sum_ns_) / static_cast<double>(count_) : 0.0;
}

double ns_histogram::percentile(double p) const
{
    if (count_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::max(1.0, p / 100.0 * static_cast<double>(count_) + 0.5));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (seen >= rank) return static_cast<double>((i + 1) * k_bin_ns);
    }
    return static_cast<double>((k_bins + 1) * k_bin_ns);
}

// --- timing_hook ------------------------------------------------------------

std::unique_ptr<ran::cu_hook::ue_state> timing_hook::detach_ue(ran::rnti_t ue)
{
    timed t(hist_[static_cast<std::size_t>(hook_op::detach)]);
    return inner_.detach_ue(ue);
}

void timing_hook::attach_ue(ran::rnti_t ue, std::unique_ptr<ue_state> state)
{
    timed t(hist_[static_cast<std::size_t>(hook_op::attach)]);
    inner_.attach_ue(ue, std::move(state));
}

bool timing_hook::on_dl_packet(net::packet& pkt, ran::rnti_t ue, ran::drb_id_t drb,
                               ran::pdcp_sn_t sn, sim::tick now)
{
    timed t(hist_[static_cast<std::size_t>(hook_op::dl)]);
    return inner_.on_dl_packet(pkt, ue, drb, sn, now);
}

bool timing_hook::on_ul_packet(net::packet& pkt, ran::rnti_t ue, sim::tick now)
{
    timed t(hist_[static_cast<std::size_t>(hook_op::ul)]);
    return inner_.on_ul_packet(pkt, ue, now);
}

void timing_hook::on_delivery_status(const ran::dl_delivery_status& status,
                                     sim::tick now)
{
    timed t(hist_[static_cast<std::size_t>(hook_op::feedback)]);
    inner_.on_delivery_status(status, now);
}

void timing_hook::on_dl_discard(ran::rnti_t ue, ran::drb_id_t drb, ran::pdcp_sn_t sn,
                                sim::tick now)
{
    timed t(hist_[static_cast<std::size_t>(hook_op::discard)]);
    inner_.on_dl_discard(ue, drb, sn, now);
}

// --- isolated costs ---------------------------------------------------------

double reference_kernel_s()
{
    using ev = std::pair<std::uint64_t, std::uint32_t>;
    const auto t0 = clock_type::now();
    std::priority_queue<ev, std::vector<ev>, std::greater<ev>> pending;
    std::vector<std::uint64_t> state(1u << 16, 1);
    std::uint64_t x = 88172645463325252ull;  // xorshift64 state
    for (std::uint32_t i = 0; i < 2048; ++i) pending.push({i, i});
    for (int i = 0; i < 400'000; ++i) {
        const ev e = pending.top();
        pending.pop();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t& s = state[(e.second * 2654435761u + x) & 0xffff];
        s = s * 6364136223846793005ull + e.first;
        g_sink += s >> 60;
        pending.push({e.first + 1 + (x & 1023), static_cast<std::uint32_t>(x >> 40)});
    }
    return seconds_since(t0);
}

double timer_overhead_ns()
{
    return per_call_ns(5, 1'000'000, [](std::uint64_t n) {
        ns_histogram h;
        for (std::uint64_t i = 0; i < n; ++i) {
            timed t(h);
            g_empty();
        }
        g_sink += h.count();
    });
}

double event_loop_ns()
{
    struct payload {
        std::uint64_t* sink;
        unsigned char pad[120];  // a by-value net::packet's worth of capture
    };
    // RAN-like clustering: ~50 events per slot timestamp, ~1k pending over
    // ~20 distinct slots; every fired event schedules one 20 slots ahead.
    const sim::tick slot = ran::mac_config{}.slot;
    return per_call_ns(5, 2'000'000, [slot](std::uint64_t n) {
        sim::event_loop loop;
        payload p{&g_sink, {}};
        for (int i = 0; i < 1000; ++i)
            loop.schedule_at((i / 50) * slot, [p] { *p.sink += p.pad[0] + 1; });
        for (std::uint64_t i = 0; i < n; ++i) {
            loop.run_one();
            loop.schedule_at(loop.now() + 20 * slot, [p] { *p.sink += p.pad[0] + 1; });
        }
    });
}

double channel_mcs_ns(const scenario::cell_spec& spec)
{
    constexpr std::uint64_t k_ues = 8;
    std::vector<std::unique_ptr<chan::link_model>> links;
    for (std::uint64_t v = 0; v < k_ues; ++v) {
        auto link = scenario::make_ue_link(spec, v);
        if (!link)
            link = std::make_unique<chan::fading_channel>(
                scenario::channel_by_name(spec.channel, v), sim::rng(spec.seed + v));
        links.push_back(std::move(link));
    }
    const sim::tick slot = ran::mac_config{}.slot;
    sim::tick t = 0;
    return per_call_ns(5, 400'000, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; i += k_ues) {
            t += slot;
            for (auto& l : links) g_sink += static_cast<std::uint64_t>(l->mcs(t));
        }
    });
}

double dualpi2_ns(std::uint64_t seed)
{
    aqm::dualpi2_config cfg;
    cfg.max_bytes = 4 << 20;
    cfg.seed = seed;
    aqm::dualpi2_queue q(cfg);
    net::packet proto;
    proto.ft.proto = net::ip_proto::tcp;
    proto.tcp = net::tcp_header{};
    proto.payload_bytes = 1400;
    const sim::tick gap = sim::tx_time(proto.size_bytes(), 80e6);
    sim::tick now = 0;
    std::uint64_t id = 0;
    auto push = [&] {
        net::packet p = proto;
        p.pkt_id = ++id;
        p.ecn_field = (id & 1) ? net::ecn::ect1 : net::ecn::ect0;
        q.enqueue(std::move(p), now);
    };
    for (int i = 0; i < 8; ++i) push();
    return per_call_ns(5, 1'000'000, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
            push();
            now += gap;
            if (auto p = q.dequeue(now)) g_sink += p->pkt_id;
        }
    });
}

}  // namespace perfbench
