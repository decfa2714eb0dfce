#include "system/report.hh"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <variant>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/** A Tick field: raw ticks in the fingerprint, nanoseconds in CSV. */
struct Ticks
{
    Tick ticks;
};

/** One field's value as read off a report. */
using Value = std::variant<std::string_view, std::uint64_t, double, Ticks>;

template <typename T>
Value
toValue(const T &member)
{
    return member;
}

/** Energies are the report's one exit from the typed domain. */
Value
toValue(Picojoules energyPj)
{
    return energyPj.value();
}

/**
 * One SimReport field: its fingerprint key (the member name), its
 * CSV / table column (nullptr: fingerprint only), the CSV format of a
 * double or Tick value, and its accessor.
 */
struct Field
{
    const char *key;
    const char *column;
    const char *format;
    Value (*get)(const SimReport &);
};

#define FIELD(member, column, format)                                     \
    Field{#member, column, format,                                        \
          [](const SimReport &r) { return toValue(r.member); }}
#define TICK_FIELD(member, column)                                        \
    Field{#member, column, "%.1f",                                        \
          [](const SimReport &r) { return Value(Ticks{r.member}); }}

/** Every report field, in fingerprint (and CSV column) order. */
const Field kFields[] = {
    FIELD(workload, "workload", nullptr),
    FIELD(policy, "policy", nullptr),
    {"status", "status", nullptr,
     [](const SimReport &r) { return Value(reportStatusName(r.status)); }},
    {"capacityFloorReached", nullptr, nullptr,
     [](const SimReport &r) {
         return Value(std::uint64_t{
             r.status == ReportStatus::CapacityExhausted});
     }},
    FIELD(instructions, "instructions", nullptr),
    TICK_FIELD(simTicks, "sim_ns"),
    FIELD(ipc, "ipc", "%.4f"),
    FIELD(lifetimeYears, "lifetime_years", "%.3f"),
    FIELD(avgBankUtilization, "bank_utilization", "%.4f"),
    FIELD(drainTimeFraction, "drain_fraction", "%.5f"),
    FIELD(mpki, "mpki", "%.3f"),
    FIELD(llcDemandReads, "llc_demand_reads", nullptr),
    FIELD(llcDemandWrites, "llc_demand_writes", nullptr),
    FIELD(llcMisses, "llc_misses", nullptr),
    FIELD(writebacksToMem, "writebacks_to_mem", nullptr),
    FIELD(eagerSent, "eager_sent", nullptr),
    FIELD(eagerWasted, "eager_wasted", nullptr),
    FIELD(memReads, "mem_reads", nullptr),
    FIELD(forwardedReads, "forwarded_reads", nullptr),
    FIELD(issuedNormalWrites, "normal_writes", nullptr),
    FIELD(issuedSlowWrites, "slow_writes", nullptr),
    FIELD(issuedEagerNormal, "eager_normal", nullptr),
    FIELD(issuedEagerSlow, "eager_slow", nullptr),
    FIELD(cancelledWrites, "cancelled_writes", nullptr),
    FIELD(pausedWrites, "paused_writes", nullptr),
    FIELD(drainEntries, "drain_entries", nullptr),
    FIELD(avgReadLatencyNs, "avg_read_latency_ns", "%.2f"),
    FIELD(readEnergyPj, "read_energy_pj", "%.3e"),
    FIELD(writeEnergyPj, "write_energy_pj", "%.3e"),
    FIELD(totalEnergyPj, "total_energy_pj", "%.3e"),
    FIELD(quotaPeriods, "quota_periods", nullptr),
    FIELD(quotaSlowOnlyPeriods, "quota_slow_only", nullptr),
    FIELD(writeRetries, "write_retries", nullptr),
    FIELD(transientWriteFailures, "transient_failures", nullptr),
    FIELD(permanentFaults, "permanent_faults", nullptr),
    FIELD(faultRepairsUsed, "fault_repairs", nullptr),
    FIELD(retiredLines, "retired_lines", nullptr),
    FIELD(deadLines, "dead_lines", nullptr),
    TICK_FIELD(firstFaultTick, "first_fault_ns"),
    TICK_FIELD(firstUncorrectableTick, "first_ue_ns"),
    FIELD(effectiveCapacityFraction, "effective_capacity", "%.6f"),
};

#undef FIELD
#undef TICK_FIELD

std::string
printed(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

/** Fingerprint text: exact values, doubles at full precision. */
std::string
exactText(const Value &v)
{
    if (const auto *text = std::get_if<std::string_view>(&v))
        return std::string(*text);
    if (const auto *real = std::get_if<double>(&v))
        return printed("%.17g", *real);
    if (const auto *t = std::get_if<Ticks>(&v))
        return std::to_string(t->ticks);
    return std::to_string(std::get<std::uint64_t>(v));
}

/** CSV / table text: doubles and Ticks in the field's format. */
std::string
cellText(const Field &field, const SimReport &r)
{
    const Value v = field.get(r);
    if (const auto *real = std::get_if<double>(&v))
        return printed(field.format, *real);
    if (const auto *t = std::get_if<Ticks>(&v))
        return printed(field.format, ticksToNs(t->ticks));
    return exactText(v);
}

/** The field rendered under CSV / table column @p column. */
const Field &
columnField(const std::string &column)
{
    for (const Field &f : kFields) {
        if (f.column != nullptr && column == f.column)
            return f;
    }
    fatal("unknown report column '%s'", column.c_str());
}

/** A header row of column names, then one row of cells per report. */
std::vector<std::vector<std::string>>
cellRows(const std::vector<const Field *> &fields,
         const std::vector<SimReport> &reports)
{
    std::vector<std::vector<std::string>> rows(1);
    for (const Field *f : fields)
        rows[0].emplace_back(f->column);
    for (const SimReport &r : reports) {
        std::vector<std::string> &row = rows.emplace_back();
        for (const Field *f : fields)
            row.push_back(cellText(*f, r));
    }
    return rows;
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
reportFingerprint(const SimReport &r)
{
    std::string out;
    for (const Field &f : kFields)
        out += std::string(f.key) + ' ' + exactText(f.get(r)) + '\n';
    return out;
}

std::string
reportsToCsv(const std::vector<SimReport> &reports)
{
    std::vector<const Field *> fields;
    for (const Field &f : kFields) {
        if (f.column != nullptr)
            fields.push_back(&f);
    }
    std::string out;
    for (const auto &row : cellRows(fields, reports)) {
        for (std::size_t c = 0; c < row.size(); ++c)
            out += (c == 0 ? "" : ",") + row[c];
        out += '\n';
    }
    return out;
}

std::string
reportsToTable(const std::vector<SimReport> &reports,
               const std::vector<std::string> &columns)
{
    std::vector<const Field *> fields;
    for (const std::string &column : columns)
        fields.push_back(&columnField(column));
    const auto rows = cellRows(fields, reports);

    std::vector<std::size_t> widths(columns.size(), 0);
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::string out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (std::size_t c = 0; c < rows[i].size(); ++c) {
            out += rows[i][c];
            if (c + 1 < rows[i].size())
                out.append(widths[c] - rows[i][c].size() + 2, ' ');
        }
        out += '\n';
        if (i == 0) {
            std::size_t total = 0;
            for (std::size_t c = 0; c < widths.size(); ++c)
                total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
            out.append(total, '-');
            out += '\n';
        }
    }
    return out;
}

} // namespace mellowsim
