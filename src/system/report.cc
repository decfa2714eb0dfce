#include "system/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/** Append one "name value" fingerprint line; doubles use full
 * precision. */
void
fingerprintLine(std::ostringstream &out, const char *name, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << name << ' ' << buf << '\n';
}

void
fingerprintLine(std::ostringstream &out, const char *name,
                std::uint64_t v)
{
    out << name << ' ' << v << '\n';
}

} // namespace

std::string
reportFingerprint(const SimReport &r)
{
    std::ostringstream out;
    out << "workload " << r.workload << '\n';
    out << "policy " << r.policy << '\n';
    out << "status " << reportStatusName(r.status) << '\n';
    fingerprintLine(out, "capacityFloorReached",
                    static_cast<std::uint64_t>(r.capacityFloorReached));
    fingerprintLine(out, "instructions", r.instructions);
    fingerprintLine(out, "simTicks",
                    static_cast<std::uint64_t>(r.simTicks));
    fingerprintLine(out, "ipc", r.ipc);
    fingerprintLine(out, "lifetimeYears", r.lifetimeYears);
    fingerprintLine(out, "avgBankUtilization", r.avgBankUtilization);
    fingerprintLine(out, "drainTimeFraction", r.drainTimeFraction);
    fingerprintLine(out, "mpki", r.mpki);
    fingerprintLine(out, "llcDemandReads", r.llcDemandReads);
    fingerprintLine(out, "llcDemandWrites", r.llcDemandWrites);
    fingerprintLine(out, "llcMisses", r.llcMisses);
    fingerprintLine(out, "writebacksToMem", r.writebacksToMem);
    fingerprintLine(out, "eagerSent", r.eagerSent);
    fingerprintLine(out, "eagerWasted", r.eagerWasted);
    fingerprintLine(out, "memReads", r.memReads);
    fingerprintLine(out, "forwardedReads", r.forwardedReads);
    fingerprintLine(out, "issuedNormalWrites", r.issuedNormalWrites);
    fingerprintLine(out, "issuedSlowWrites", r.issuedSlowWrites);
    fingerprintLine(out, "issuedEagerNormal", r.issuedEagerNormal);
    fingerprintLine(out, "issuedEagerSlow", r.issuedEagerSlow);
    fingerprintLine(out, "cancelledWrites", r.cancelledWrites);
    fingerprintLine(out, "pausedWrites", r.pausedWrites);
    fingerprintLine(out, "drainEntries", r.drainEntries);
    fingerprintLine(out, "avgReadLatencyNs", r.avgReadLatencyNs);
    fingerprintLine(out, "readEnergyPj", r.readEnergyPj.value());
    fingerprintLine(out, "writeEnergyPj", r.writeEnergyPj.value());
    fingerprintLine(out, "totalEnergyPj", r.totalEnergyPj.value());
    fingerprintLine(out, "quotaPeriods", r.quotaPeriods);
    fingerprintLine(out, "quotaSlowOnlyPeriods", r.quotaSlowOnlyPeriods);
    fingerprintLine(out, "writeRetries", r.writeRetries);
    fingerprintLine(out, "transientWriteFailures",
                    r.transientWriteFailures);
    fingerprintLine(out, "permanentFaults", r.permanentFaults);
    fingerprintLine(out, "faultRepairsUsed", r.faultRepairsUsed);
    fingerprintLine(out, "retiredLines", r.retiredLines);
    fingerprintLine(out, "deadLines", r.deadLines);
    fingerprintLine(out, "firstFaultTick",
                    static_cast<std::uint64_t>(r.firstFaultTick));
    fingerprintLine(out, "firstUncorrectableTick",
                    static_cast<std::uint64_t>(r.firstUncorrectableTick));
    fingerprintLine(out, "effectiveCapacityFraction",
                    r.effectiveCapacityFraction);
    return out.str();
}

namespace
{

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

std::string
columnValue(const SimReport &r, const std::string &col)
{
    if (col == "workload")
        return r.workload;
    if (col == "policy")
        return r.policy;
    if (col == "status")
        return reportStatusName(r.status);
    if (col == "ipc")
        return fmt("%.3f", r.ipc);
    if (col == "lifetime")
        return std::isinf(r.lifetimeYears) ? "inf"
                                           : fmt("%.2f", r.lifetimeYears);
    if (col == "utilization")
        return fmt("%.3f", r.avgBankUtilization);
    if (col == "drain")
        return fmt("%.4f", r.drainTimeFraction);
    if (col == "mpki")
        return fmt("%.2f", r.mpki);
    if (col == "energy")
        return fmt("%.3e", r.totalEnergyPj.value());
    if (col == "reads")
        return std::to_string(r.memReads);
    if (col == "writes")
        return std::to_string(r.totalBankWrites());
    if (col == "retries")
        return std::to_string(r.writeRetries);
    if (col == "faults")
        return std::to_string(r.permanentFaults);
    if (col == "retired")
        return std::to_string(r.retiredLines);
    if (col == "dead")
        return std::to_string(r.deadLines);
    if (col == "first_fault_ns") {
        return r.firstFaultTick == 0
                   ? "never"
                   : fmt("%.1f", ticksToNs(r.firstFaultTick));
    }
    if (col == "first_ue_ns") {
        return r.firstUncorrectableTick == 0
                   ? "never"
                   : fmt("%.1f", ticksToNs(r.firstUncorrectableTick));
    }
    if (col == "capacity")
        return fmt("%.6f", r.effectiveCapacityFraction);
    fatal("unknown report column '%s'", col.c_str());
}

} // namespace

const char *
reportStatusName(ReportStatus status)
{
    switch (status) {
      case ReportStatus::Ok:
        return "ok";
      case ReportStatus::CapacityExhausted:
        return "capacity-exhausted";
    }
    panic("unreachable report status");
}

std::string
reportsToCsv(const std::vector<SimReport> &reports)
{
    std::ostringstream out;
    out << "workload,policy,status,instructions,sim_ns,ipc,"
           "lifetime_years,"
           "bank_utilization,drain_fraction,mpki,"
           "llc_demand_reads,llc_demand_writes,llc_misses,"
           "writebacks_to_mem,eager_sent,eager_wasted,"
           "mem_reads,forwarded_reads,normal_writes,slow_writes,"
           "eager_normal,eager_slow,cancelled_writes,paused_writes,"
           "drain_entries,"
           "avg_read_latency_ns,read_energy_pj,write_energy_pj,"
           "total_energy_pj,quota_periods,quota_slow_only,"
           "write_retries,transient_failures,permanent_faults,"
           "fault_repairs,retired_lines,dead_lines,first_fault_ns,"
           "first_ue_ns,effective_capacity\n";
    for (const SimReport &r : reports) {
        out << r.workload << ',' << r.policy << ','
            << reportStatusName(r.status) << ',' << r.instructions
            << ',' << fmt("%.1f", ticksToNs(r.simTicks)) << ','
            << fmt("%.4f", r.ipc) << ','
            << (std::isinf(r.lifetimeYears)
                    ? std::string("inf")
                    : fmt("%.3f", r.lifetimeYears))
            << ',' << fmt("%.4f", r.avgBankUtilization) << ','
            << fmt("%.5f", r.drainTimeFraction) << ','
            << fmt("%.3f", r.mpki) << ',' << r.llcDemandReads << ','
            << r.llcDemandWrites << ',' << r.llcMisses << ','
            << r.writebacksToMem << ',' << r.eagerSent << ','
            << r.eagerWasted << ',' << r.memReads << ','
            << r.forwardedReads << ',' << r.issuedNormalWrites << ','
            << r.issuedSlowWrites << ',' << r.issuedEagerNormal << ','
            << r.issuedEagerSlow << ',' << r.cancelledWrites << ','
            << r.pausedWrites << ',' << r.drainEntries << ','
            << fmt("%.2f", r.avgReadLatencyNs) << ','
            << fmt("%.3e", r.readEnergyPj.value()) << ','
            << fmt("%.3e", r.writeEnergyPj.value()) << ','
            << fmt("%.3e", r.totalEnergyPj.value()) << ','
            << r.quotaPeriods
            << ',' << r.quotaSlowOnlyPeriods << ','
            << r.writeRetries << ',' << r.transientWriteFailures
            << ',' << r.permanentFaults << ',' << r.faultRepairsUsed
            << ',' << r.retiredLines << ',' << r.deadLines << ','
            << fmt("%.1f", ticksToNs(r.firstFaultTick)) << ','
            << fmt("%.1f", ticksToNs(r.firstUncorrectableTick)) << ','
            << fmt("%.6f", r.effectiveCapacityFraction) << '\n';
    }
    return out.str();
}

std::string
reportsToTable(const std::vector<SimReport> &reports,
               const std::vector<std::string> &columns)
{
    // Collect all cells, then size the columns.
    std::vector<std::vector<std::string>> rows;
    rows.push_back(columns);
    for (const SimReport &r : reports) {
        std::vector<std::string> row;
        for (const std::string &col : columns)
            row.push_back(columnValue(r, col));
        rows.push_back(std::move(row));
    }

    std::vector<std::size_t> widths(columns.size(), 0);
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t c = 0; c < rows[i].size(); ++c) {
            out << rows[i][c];
            if (c + 1 < rows[i].size()) {
                out << std::string(widths[c] - rows[i][c].size() + 2,
                                   ' ');
            }
        }
        out << '\n';
        if (i == 0) {
            std::size_t total = 0;
            for (std::size_t c = 0; c < widths.size(); ++c)
                total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
            out << std::string(total, '-') << '\n';
        }
    }
    return out.str();
}

} // namespace mellowsim
