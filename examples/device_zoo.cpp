/**
 * @file
 * Device zoo: the same workload and policy on every shipped device
 * config, side by side.
 *
 * Each row is one full simulation bound from one configs/<name>.config
 * file (see DESIGN.md section 14): the paper's memory-grade ReRAM
 * point, the ISSCC-2012 cross-point macro, a second-generation MLC
 * part, and a PCM-like technology point. The interesting column is
 * the lifetime spread — Mellow Writes buys the most on low-endurance
 * quadratic-trade-off devices and the least on PCM's near-linear
 * trade-off.
 *
 * Usage: device_zoo [instructions]
 *   (also: --device/--list-devices, MELLOWSIM_INSTRS, like any bench)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "config/device_config.hh"
#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"

using namespace mellowsim;

int
main(int argc, char **argv)
{
    applyDeviceArgs(argc, argv);
    std::uint64_t instrs =
        argc > 1 ? parseCount(argv[1], "instructions") : 4'000'000ull;
    if (instrs == 0) {
        std::fprintf(stderr, "usage: %s [instructions]\n", argv[0]);
        return 1;
    }

    // An explicit --device narrows the zoo to that one entry;
    // otherwise every shipped config runs.
    std::vector<std::string> devices;
    if (!activeDeviceName().empty())
        devices.push_back(activeDeviceName());
    else
        devices = deviceConfigNames();
    if (devices.empty()) {
        std::fprintf(stderr, "no device configs found in %s\n",
                     deviceConfigDir().c_str());
        return 1;
    }

    const WritePolicyConfig policy = policies::beMellow().withSC();
    std::printf("Device zoo: workload=stream policy=%s instrs=%llu\n\n",
                policy.name.c_str(),
                static_cast<unsigned long long>(instrs));
    std::printf("%-18s %8s %10s %12s %10s\n", "device", "ipc",
                "lifetime_y", "energy_uJ", "avg_rd_ns");

    for (const std::string &device : devices) {
        setDeviceOverride(device);
        SystemConfig cfg = makeConfig("stream", policy);
        if (instrs < cfg.instructions)
            cfg.instructions = instrs;
        if (cfg.warmupInstructions > instrs / 4)
            cfg.warmupInstructions = instrs / 4;
        SimReport r = runSystem(cfg);
        std::printf("%-18s %8.3f %10.2f %12.1f %10.1f\n",
                    device.c_str(), r.ipc, r.lifetimeYears,
                    r.totalEnergyPj.value() * 1e-6, r.avgReadLatencyNs);
    }

    std::printf("\nSame stream, same policy: the devices differ only "
                "through their .config files — endurance and the "
                "latency/endurance exponent drive the lifetime "
                "column, the cell energy and row-buffer width drive "
                "the energy column.\n");
    return 0;
}
