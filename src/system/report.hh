/**
 * @file
 * Per-run metrics and table/CSV rendering.
 *
 * A SimReport carries every quantity the paper's figures plot; the
 * bench binaries assemble reports into the same rows/series as the
 * corresponding figure or table. The fingerprint, CSV and table
 * renderers below are loops over one field table in report.cc, which
 * gives each field its fingerprint key, CSV column and CSV format.
 */

#ifndef MELLOWSIM_SYSTEM_REPORT_HH
#define MELLOWSIM_SYSTEM_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/** How a simulation run ended. */
enum class ReportStatus
{
    /** The workload ran to completion. */
    Ok,
    /**
     * Fault injection drove effective capacity down to the configured
     * floor before the workload finished: the run stopped gracefully
     * at end-of-life with the metrics measured up to that point.
     */
    CapacityExhausted,
};

/** Printable name of a report status ("ok", "capacity-exhausted"). */
[[nodiscard]] const char *reportStatusName(ReportStatus status);

/** Everything measured in one simulation run. */
struct SimReport
{
    std::string workload;
    std::string policy;

    /** How the run ended (see ReportStatus). */
    ReportStatus status = ReportStatus::Ok;

    std::uint64_t instructions = 0;
    Tick simTicks = 0;

    // Headline metrics.
    double ipc = 0.0;
    double lifetimeYears = 0.0;
    double avgBankUtilization = 0.0;
    double drainTimeFraction = 0.0;
    double mpki = 0.0;

    // LLC-side request breakdown (Figure 14).
    std::uint64_t llcDemandReads = 0;
    std::uint64_t llcDemandWrites = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t writebacksToMem = 0;
    std::uint64_t eagerSent = 0;
    std::uint64_t eagerWasted = 0;

    // Controller-side issue breakdown (Figure 15).
    std::uint64_t memReads = 0;
    std::uint64_t forwardedReads = 0;
    std::uint64_t issuedNormalWrites = 0;
    std::uint64_t issuedSlowWrites = 0;
    std::uint64_t issuedEagerNormal = 0;
    std::uint64_t issuedEagerSlow = 0;
    std::uint64_t cancelledWrites = 0;
    std::uint64_t pausedWrites = 0;
    std::uint64_t drainEntries = 0;
    double avgReadLatencyNs = 0.0;

    // Energy (Figure 16).
    Picojoules readEnergyPj;
    Picojoules writeEnergyPj;
    Picojoules totalEnergyPj;

    // Wear Quota activity.
    std::uint64_t quotaPeriods = 0;
    std::uint64_t quotaSlowOnlyPeriods = 0;

    // Fault injection (all zero when the fault layer is off).
    std::uint64_t writeRetries = 0;          ///< verify-failure reissues
    std::uint64_t transientWriteFailures = 0;
    std::uint64_t permanentFaults = 0;
    std::uint64_t faultRepairsUsed = 0;      ///< ECP entries consumed
    std::uint64_t retiredLines = 0;
    std::uint64_t deadLines = 0;             ///< uncorrectable lines
    Tick firstFaultTick = 0;                 ///< 0 = never
    Tick firstUncorrectableTick = 0;         ///< 0 = never
    /** Fraction of lines still reliable (1.0 with faults off). */
    double effectiveCapacityFraction = 1.0;

    /**
     * All issued write attempts (demand + eager). Issue counters are
     * per attempt, so cancelled attempts and their retries are
     * already included.
     */
    [[nodiscard]] std::uint64_t
    totalBankWrites() const
    {
        return issuedNormalWrites + issuedSlowWrites +
               issuedEagerNormal + issuedEagerSlow;
    }

    /** All requests issued to banks (Figure 15's y-axis). */
    [[nodiscard]] std::uint64_t
    totalBankRequests() const
    {
        return memReads + totalBankWrites();
    }
};

/**
 * Exhaustive textual fingerprint of a report: every field, one
 * "name value" line each, doubles at full (%.17g) precision, plus
 * "capacityFloorReached 0|1" derived from the status. Two reports
 * fingerprint identically iff every measured quantity is
 * byte-identical — the currency of the determinism audits
 * (tools/determinism_check and its golden file).
 */
std::string reportFingerprint(const SimReport &r);

/** Render a fixed-precision CSV row set; first row is the header. */
std::string reportsToCsv(const std::vector<SimReport> &reports);

/**
 * Render reports as an aligned text table of the chosen columns. A
 * column is any reportsToCsv() header name and prints as in the CSV;
 * an unknown name is fatal, even with no reports.
 */
std::string reportsToTable(const std::vector<SimReport> &reports,
                           const std::vector<std::string> &columns);

} // namespace mellowsim

#endif // MELLOWSIM_SYSTEM_REPORT_HH
