/**
 * @file
 * Figure 1: vDNN's synchronization overhead on Vgg16 (batch 230).
 *
 * Paper findings: the largest tensor's swap-out/in each take more than 3x
 * the execution time of the layer meant to overlap them, and the
 * accumulated synchronization costs 41.3% of training performance.
 *
 * This bench runs vDNN on Vgg16@230 with full event tracing, renders the
 * compute/memory timeline around the largest swap from the trace, and
 * quantifies the loss against a hypothetical no-eviction run (uncapped
 * pool).
 */

#include <algorithm>
#include <iostream>

#include "bench/common.hh"

using namespace capu;
using namespace capu::bench;

int
main()
{
    banner("vDNN synchronization overhead on Vgg16 (batch 230)",
           "Figure 1 / section 3.1");

    const std::int64_t batch = 230;

    // Hypothetical memory-unconstrained baseline (what perfect hiding
    // would achieve).
    ExecConfig ideal_cfg;
    ideal_cfg.device.memCapacity = 512ull << 30;
    Session ideal(buildVgg16(batch), ideal_cfg, makeNoOpPolicy());
    auto r_ideal = ideal.run(3);

    // vDNN on the real card.
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    Session vdnn(buildVgg16(batch), cfg, makePolicy(System::Vdnn));
    auto r_vdnn = vdnn.run(3);
    if (r_vdnn.oom) {
        std::cout << "vDNN OOM: " << r_vdnn.oomMessage << "\n";
        return 1;
    }

    Tick ideal_iter = r_ideal.steadyIterationTicks(1);
    Tick vdnn_iter = r_vdnn.steadyIterationTicks(1);
    double loss = 1.0 - static_cast<double>(ideal_iter) /
                            static_cast<double>(vdnn_iter);

    // Largest swap-out on the D2H track vs the compute that "covers" it.
    const obs::Tracer &tracer = vdnn.executor().obs().tracer;
    obs::TraceEvent largest;
    bool found = false;
    tracer.forEach([&](const obs::TraceEvent &ev) {
        if (ev.phase() != obs::EventPhase::Complete ||
            ev.track() != obs::kTrackD2H)
            return;
        if (!found || ev.dur > largest.dur) {
            largest = ev;
            found = true;
        }
    });

    Table t({"metric", "paper", "measured"});
    t.addRow({"performance loss vs no-eviction", "41.3%",
              cellPercent(loss)});
    if (found) {
        Tick swap = largest.dur;
        Tick sw_end = largest.ts + largest.dur;
        // Compute busy inside the swap window = the overlap achieved.
        Tick overlap = static_cast<Tick>(
            trackUtilization(tracer, obs::kTrackCompute, largest.ts,
                             sw_end) *
            static_cast<double>(swap));
        t.addRow({"largest swap-out", "-", formatTicks(swap)});
        t.addRow({"compute overlapped with it", "-", formatTicks(overlap)});
        t.addRow({"swap / overlapped-compute", "> 3x",
                  ratioCell(static_cast<double>(swap),
                            static_cast<double>(overlap))});
    }
    t.addRow({"swap traffic per iteration (out)", "-",
              formatBytes(r_vdnn.last().swapOutBytes)});
    t.print(std::cout);

    if (found) {
        std::cout << "\nTimeline around the largest swap-out (comp = "
                     "kernels, d2h/h2d = PCIe lanes):\n\n";
        Tick span = largest.dur;
        Tick sw_end = largest.ts + largest.dur;
        Tick lo = largest.ts > span / 2 ? largest.ts - span / 2 : 0;
        Tick hi = sw_end + span / 2;
        renderTimeline(std::cout, tracer,
                       {{"comp", obs::kTrackCompute},
                        {"d2h", obs::kTrackD2H},
                        {"h2d", obs::kTrackH2D}},
                       lo, hi, 96);
    }
    std::cout << "\nTakeaway: layer-wise coupled swapping leaves the "
                 "compute stream idle whenever a layer is too short to "
                 "cover its transfer.\n";
    return 0;
}
