/**
 * @file
 * Tables V and VI: ReRAM cell parameters and per-operation energies
 * of the memristive main memory. Pure model, no simulation.
 */

#include <cstdio>

#include "bench_util.hh"
#include "energy/energy_model.hh"

using namespace mellowsim;

int
main(int argc, char **argv)
{
    benchutil::applyBenchArgs(argc, argv);
    benchutil::banner("tab06", "Tables V/VI energy model",
                      "slow/normal write energy ratio 1.26 (CellA) .. "
                      "2.05 (CellE); buffer read 1503 pJ");

    std::printf("Table V (cell set/reset energy, pJ):\n");
    std::printf("%-8s %10s %10s\n", "cell", "normal", "slow");
    for (CellType cell : kAllCellTypes) {
        EnergyParams p;
        p.cell = cell;
        std::printf("%-8s %10.2f %10.2f\n", cellTypeName(cell).c_str(),
                    cellEnergyPj(cell).value(),
                    (cellEnergyPj(cell) * p.slowCellEnergyFactor).value());
    }

    std::printf("\nTable VI (per-operation energy of the main "
                "memory, pJ):\n");
    std::printf("%-8s %12s %12s %12s %12s\n", "cell", "buffer_read",
                "norm_write", "slow_write", "slow/norm");
    for (CellType cell : kAllCellTypes) {
        EnergyParams p;
        p.cell = cell;
        EnergyModel m(p);
        std::printf("%-8s %12.1f %12.1f %12.1f %12.2f\n",
                    cellTypeName(cell).c_str(),
                    m.readEnergyPj(false).value(),
                    m.writeEnergyPj(false).value(),
                    m.writeEnergyPj(true).value(),
                    m.slowNormalWriteRatio());
    }

    std::printf("\npaper values: norm 248.8/300.0/402.4/607.2/1016.8, "
                "slow 314.5/432.3/667.8/1138.8/2080.9, ratios "
                "1.26/1.44/1.66/1.88/2.05\n");
    return 0;
}
