#include "config/device_config.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>

#include "energy/energy_model.hh"
#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

#ifndef MELLOWSIM_DEFAULT_CONFIG_DIR
#define MELLOWSIM_DEFAULT_CONFIG_DIR "configs"
#endif

/** Shortest round-trip decimal form of a double (config emit). */
std::string
fmtDouble(double v)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    panic_if(ec != std::errc(), "double formatting failed");
    return std::string(buf, end);
}

/** Ticks back to the nanoseconds a config file spells them in. */
double
nanosecondsOf(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kNanosecond);
}

/**
 * One schema row: a key a device file may carry, whether binding
 * requires it, and the inclusive range of its value in the unit the
 * file spells it in. A flag or word key has no range (NaN bounds):
 * its accessor and the cell-name lookup reject bad text. A key
 * without a row is fatal. Every count the binder narrows to
 * `unsigned` has a max far below 2^32, so the casts are exact.
 */
struct KeyRow
{
    const char *key;
    bool required;
    double min = std::numeric_limits<double>::quiet_NaN();
    double max = std::numeric_limits<double>::quiet_NaN();
};

constexpr KeyRow kKeys[] = {
    // Interface
    {"CLK", true, 10, 10000},                   // MHz
    {"RATE", false, 1, 8},
    {"BusWidth", false, 8, 1024},               // bits
    // Timing (Table II), ns
    {"tRCD", true, 1, 10000},
    {"tCAS", true, 0.1, 1000},
    {"tWP", true, 1, 100000},
    {"tFAW", true, 1, 10000},
    {"tBurst", true, 0.5, 1000},
    // Geometry
    {"CHANNELS", true, 1, 16},
    {"RANKS", true, 1, 16},
    {"BANKS", true, 1, 64},                     // per rank
    {"ROWS", true, 1, 67108864},                // per bank
    {"RowBytes", true, 64, 1048576},
    {"RowBufferBytes", true, 64, 65536},
    {"InterleaveBytes", false, 64, 1048576},
    {"CapacityBytes", true, 1048576, 1099511627776.0},
    {"PageScramble", false},
    {"PageBytes", false, 512, 65536},
    // Endurance (Equation 2)
    {"BaseEndurance", true, 1e3, 1e12},         // writes
    {"ExpoFactor", true, 0, 6},
    // Energy (Tables V/VI), pJ unless noted
    {"Cell", false},
    {"CellEnergyPj", false, 0.001, 1000},
    {"PeripheralWritePj", false, 1, 100000},
    {"PeripheralSlowWritePj", false, 1, 100000},
    {"BitsPerWrite", false, 64, 4096},
    {"SlowCellEnergyFactor", false, 1, 10},
    {"BufferReadPj", false, 1, 100000},
    {"RowHitReadPj", false, 0.1, 100000},
    // Controller provisioning
    {"ReadQueueSize", false, 1, 1024},
    {"WriteQueueSize", false, 1, 1024},
    {"EagerQueueSize", false, 0, 1024},
    {"DrainLowThreshold", false, 0, 1024},
    {"BusLeadBursts", false, 0, 256},
    {"ForwardLatencyNs", false, 0.1, 1000},
    {"RecentReadWindowNs", false, 1, 100000},
    {"MaxWriteCancellations", false, 0, 64},
    {"LevelingEfficiency", false, 0.1, 1},
};

/**
 * What a constraint row sees: the bound device, its controller, and
 * ROWS, the one key binding folds into CapacityBytes instead of
 * keeping. Absent optional keys already hold their defaults.
 */
struct Bound
{
    const DeviceConfig &dev;
    const MemControllerConfig &c;
    std::uint64_t rows;
};

/**
 * One cross-field rule: its family, its id, the key whose line a
 * violation names, the predicate that must hold, and why. The key
 * pass has bounded every value, so the integer arithmetic below
 * cannot overflow.
 */
struct Constraint
{
    const char *family;
    const char *id;
    const char *anchor;
    bool (*holds)(const Bound &);
    const char *message;
};

constexpr Constraint kConstraints[] = {
    // Timing inequalities, in integer ticks
    {"timing-inequality", "tburst-transfers-line", "tBurst",
     [](const Bound &b) {
         const NvmTimingParams &t = b.c.timing;
         return t.tBurst * b.dev.dataRate * b.dev.busWidthBits ==
                b.c.energy.bitsPerWrite * t.tCK;
     },
     "tBurst must be BitsPerWrite/BusWidth beats of tCK at the data "
     "rate: one line per burst"},
    {"timing-inequality", "faw-covers-spacing", "tFAW",
     [](const Bound &b) {
         return b.c.timing.tFAW >= 4 * b.c.timing.tCK;
     },
     "tFAW must cover four activate issue slots (4 x tCK)"},
    {"timing-inequality", "faw-covers-burst", "tFAW",
     [](const Bound &b) { return b.c.timing.tFAW >= b.c.timing.tBurst; },
     "a four-activate window shorter than one burst is unsatisfiable"},
    {"timing-inequality", "rcd-covers-cas", "tRCD",
     [](const Bound &b) { return b.c.timing.tRCD >= b.c.timing.tCAS; },
     "row activation (tRCD) cannot be faster than a column access "
     "(tCAS)"},
    {"timing-inequality", "wp-dominates-cas", "tWP",
     [](const Bound &b) { return b.c.timing.tWP >= b.c.timing.tCAS; },
     "a write pulse (tWP) cannot be faster than a column access "
     "(tCAS)"},
    {"timing-inequality", "forward-beats-array", "ForwardLatencyNs",
     [](const Bound &b) {
         return b.c.forwardLatency < b.c.timing.tRCD;
     },
     "write-queue forwarding must beat an array activate "
     "(ForwardLatencyNs < tRCD)"},

    // Geometry and capacity arithmetic, in bytes. A bank count that
    // is not a power of two cannot meet the capacity product with a
    // power-of-two capacity, so it is named first.
    {"geometry-arithmetic", "pow2-banks", "BANKS",
     [](const Bound &b) {
         return std::has_single_bit(b.c.geometry.numBanks) &&
                std::has_single_bit(b.c.geometry.banksPerRank());
     },
     "BANKS and RANKS must be powers of two (the address map shifts "
     "and masks)"},
    {"geometry-arithmetic", "capacity-product", "CapacityBytes",
     [](const Bound &b) {
         const MemGeometry &g = b.c.geometry;
         return std::uint64_t{b.dev.numChannels} * g.numBanks * b.rows *
                    g.rowBytes ==
                g.capacityBytes;
     },
     "CHANNELS*RANKS*BANKS*ROWS*RowBytes must equal CapacityBytes"},
    {"geometry-arithmetic", "rowbuffer-divides-row", "RowBufferBytes",
     [](const Bound &b) {
         return b.c.geometry.rowBytes % b.c.geometry.rowBufferBytes == 0;
     },
     "the row must be a whole number of row-buffer widths"},
    {"geometry-arithmetic", "interleave-row-aligned", "InterleaveBytes",
     [](const Bound &b) {
         const MemGeometry &g = b.c.geometry;
         return g.interleaveBytes % g.rowBytes == 0 ||
                g.rowBytes % g.interleaveBytes == 0;
     },
     "the channel interleave granularity must align with the row"},
    {"geometry-arithmetic", "pow2-geometry", "RowBytes",
     [](const Bound &b) {
         const MemGeometry &g = b.c.geometry;
         return std::has_single_bit(g.rowBytes) &&
                std::has_single_bit(g.rowBufferBytes) &&
                std::has_single_bit(g.interleaveBytes) &&
                std::has_single_bit(g.pageBytes) &&
                std::has_single_bit(g.capacityBytes);
     },
     "byte geometries must be powers of two (the address map shifts "
     "and masks)"},

    // Energy sanity versus the Table VI linear model
    {"energy-model", "slow-peripheral-cheaper", "PeripheralSlowWritePj",
     [](const Bound &b) {
         return b.c.energy.peripheralSlowWritePj <=
                b.c.energy.peripheralWritePj;
     },
     "Table VI: slow writes relax the charge pumps, so peripheral "
     "energy must not rise"},
    {"energy-model", "slow-write-net-cost", "SlowCellEnergyFactor",
     [](const Bound &b) {
         const EnergyModel model(b.c.energy);
         return model.writeEnergyPj(true) >= model.writeEnergyPj(false);
     },
     "Table VI: a slow write must cost at least as much energy as a "
     "normal write"},
    {"energy-model", "buffer-read-dominates-hit", "BufferReadPj",
     [](const Bound &b) {
         return b.c.energy.bufferReadPj >= b.c.energy.rowHitReadPj;
     },
     "a full row-buffer fill must cost at least a row-hit read"},
    {"energy-model", "line-bits", "BitsPerWrite",
     [](const Bound &b) {
         return b.c.energy.bitsPerWrite == kBlockSize * 8;
     },
     "the energy model is calibrated per 64-byte (512-bit) line write"},
    {"energy-model", "buffer-read-per-byte", "BufferReadPj",
     [](const Bound &b) {
         const Picojoules perByte =
             b.c.energy.bufferReadPj /
             static_cast<double>(b.c.geometry.rowBufferBytes);
         return perByte >= Picojoules(0.1) && perByte <= Picojoules(16);
     },
     "BufferReadPj implies an implausible sense energy per row-buffer "
     "byte (outside [0.1, 16] pJ)"},

    // Controller provisioning
    {"controller-sanity", "drain-hysteresis", "DrainLowThreshold",
     [](const Bound &b) {
         return b.c.drainLowThreshold < b.c.writeQueueSize;
     },
     "the drain-low threshold must sit below WriteQueueSize (the "
     "drain-high threshold), or a drain never ends"},
    {"controller-sanity", "eager-within-queue", "EagerQueueSize",
     [](const Bound &b) {
         return b.c.eagerQueueSize <= b.c.writeQueueSize;
     },
     "eager entries share write-queue provisioning and cannot exceed "
     "it"},
    {"controller-sanity", "cancellations-bounded",
     "MaxWriteCancellations",
     [](const Bound &b) {
         return b.c.maxWriteCancellations <= b.c.writeQueueSize;
     },
     "more cancellations than write-queue entries can never be "
     "exercised"},

    // Equation 2: E = E0 * (t / tWP)^C
    {"pulse-monotonicity", "eq2-gains-endurance", "ExpoFactor",
     [](const Bound &b) { return b.c.endurance.expoFactor > 0; },
     "Equation 2 must gain endurance with a slower pulse "
     "(ExpoFactor > 0), or slow writes buy no lifetime"},
};

/**
 * The one way a device file fails a rule: file:line of the key's
 * winning assignment (the file alone when the key is absent), the key
 * and its value, and the rule.
 */
[[noreturn]] void
reject(const ConfigFile &cfg, const std::string &key,
       const std::string &rule, const std::string &why)
{
    const ConfigEntry *entry = cfg.find(key);
    const std::string where =
        entry != nullptr ? entry->file + ":" + std::to_string(entry->line)
                         : cfg.source();
    const std::string subject =
        entry != nullptr ? key + " " + entry->value : key;
    fatal("config %s: %s breaks [%s]: %s", where.c_str(),
          subject.c_str(), rule.c_str(), why.c_str());
}

/**
 * The key pass: every key known, every required key present, every
 * number in range (NaN fails too). Runs before binding narrows any
 * value.
 */
void
checkKeys(const ConfigFile &cfg)
{
    for (const ConfigEntry &entry : cfg.entries()) {
        const bool known = std::any_of(
            std::begin(kKeys), std::end(kKeys),
            [&](const KeyRow &row) { return entry.key == row.key; });
        if (!known)
            reject(cfg, entry.key, "unknown-key",
                   "no device key has this name");
    }
    for (const KeyRow &row : kKeys) {
        if (!cfg.has(row.key)) {
            if (row.required)
                reject(cfg, row.key, "missing-key",
                       "the binding requires this key");
            continue;
        }
        if (std::isnan(row.min))
            continue;
        const double v = cfg.ratio(row.key);
        if (!(v >= row.min && v <= row.max))
            reject(cfg, row.key, "range",
                   logFormat("outside [%g, %g]", row.min, row.max));
    }
}

/** The Table V cell a file names (CellC when it names none). */
CellType
cellTypeOf(const ConfigFile &cfg)
{
    const std::string name = cfg.wordOr("Cell", "CellC");
    for (CellType cell : kAllCellTypes) {
        if (cellTypeName(cell) == name)
            return cell;
    }
    reject(cfg, "Cell", "range", "expected one of CellA..CellE");
}

} // namespace

std::string
deviceConfigDir()
{
    const char *env = std::getenv("MELLOWSIM_CONFIG_DIR");
    if (env != nullptr && *env != '\0')
        return env;
    return MELLOWSIM_DEFAULT_CONFIG_DIR;
}

std::vector<std::string>
deviceConfigNames()
{
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(deviceConfigDir(), ec)) {
        if (entry.path().extension() == ".config")
            names.push_back(entry.path().stem().string());
    }
    // Directory iteration order is filesystem-dependent; every
    // consumer (device_zoo, bench sweeps) needs a stable order.
    std::sort(names.begin(), names.end());
    return names;
}

DeviceConfig
loadDeviceConfig(const std::string &nameOrPath)
{
    namespace fs = std::filesystem;
    std::string path = nameOrPath;
    std::string name = nameOrPath;
    if (nameOrPath.find('/') == std::string::npos &&
        fs::path(nameOrPath).extension() != ".config") {
        path = deviceConfigDir() + "/" + nameOrPath + ".config";
    } else {
        name = fs::path(nameOrPath).stem().string();
    }
    return bindDeviceConfig(ConfigFile::parseFile(path), name);
}

DeviceConfig
bindDeviceConfig(const ConfigFile &cfg, const std::string &name)
{
    checkKeys(cfg);

    DeviceConfig dev;
    dev.name = name;
    MemControllerConfig &c = dev.controller;

    // --- Interface ---------------------------------------------------
    c.timing.tCK = clockPeriodTicks(cfg.megahertz("CLK"));
    dev.dataRate = static_cast<unsigned>(cfg.countOr("RATE", 1));
    dev.busWidthBits = cfg.has("BusWidth") ? cfg.bits("BusWidth") : 64;

    // --- Timing ------------------------------------------------------
    c.timing.tRCD = cfg.nanoseconds("tRCD");
    c.timing.tCAS = cfg.nanoseconds("tCAS");
    c.timing.tWP = cfg.nanoseconds("tWP");
    c.timing.tFAW = cfg.nanoseconds("tFAW");
    c.timing.tBurst = cfg.nanoseconds("tBurst");

    // --- Geometry ----------------------------------------------------
    dev.numChannels = static_cast<unsigned>(cfg.count("CHANNELS"));
    const auto ranks = cfg.count("RANKS");
    const auto banksPerRank = cfg.count("BANKS");
    const auto rows = cfg.count("ROWS");
    c.geometry.numRanks = static_cast<unsigned>(ranks);
    c.geometry.numBanks = static_cast<unsigned>(banksPerRank * ranks);
    c.geometry.rowBytes = cfg.bytes("RowBytes");
    c.geometry.rowBufferBytes = cfg.bytes("RowBufferBytes");
    c.geometry.interleaveBytes =
        cfg.has("InterleaveBytes") ? cfg.bytes("InterleaveBytes")
                                   : c.geometry.rowBytes;
    c.geometry.capacityBytes = cfg.bytes("CapacityBytes");
    c.geometry.pageScramble = cfg.flagOr("PageScramble", true);
    c.geometry.pageBytes = cfg.has("PageBytes") ? cfg.bytes("PageBytes")
                                                : c.geometry.pageBytes;

    // --- Endurance (Equation 2) --------------------------------------
    // The endurance baseline is the normal write pulse by definition:
    // Endurance(tWP) = E0.
    c.endurance.baseWriteLatency = c.timing.tWP;
    c.endurance.baseEndurance = cfg.ratio("BaseEndurance");
    c.endurance.expoFactor = cfg.ratio("ExpoFactor");

    // --- Energy (Tables V/VI) ----------------------------------------
    c.energy.cell = cellTypeOf(cfg);
    if (cfg.has("CellEnergyPj"))
        c.energy.cellEnergyOverridePj = cfg.picojoules("CellEnergyPj");
    c.energy.peripheralWritePj = cfg.picojoulesOr(
        "PeripheralWritePj", c.energy.peripheralWritePj);
    c.energy.peripheralSlowWritePj = cfg.picojoulesOr(
        "PeripheralSlowWritePj", c.energy.peripheralSlowWritePj);
    if (cfg.has("BitsPerWrite"))
        c.energy.bitsPerWrite = cfg.bits("BitsPerWrite");
    c.energy.slowCellEnergyFactor =
        cfg.ratioOr("SlowCellEnergyFactor", c.energy.slowCellEnergyFactor);
    c.energy.bufferReadPj =
        cfg.picojoulesOr("BufferReadPj", c.energy.bufferReadPj);
    c.energy.rowHitReadPj =
        cfg.picojoulesOr("RowHitReadPj", c.energy.rowHitReadPj);

    // --- Controller provisioning -------------------------------------
    c.readQueueSize = static_cast<unsigned>(
        cfg.countOr("ReadQueueSize", c.readQueueSize));
    c.writeQueueSize = static_cast<unsigned>(
        cfg.countOr("WriteQueueSize", c.writeQueueSize));
    c.eagerQueueSize = static_cast<unsigned>(
        cfg.countOr("EagerQueueSize", c.eagerQueueSize));
    c.drainLowThreshold = static_cast<unsigned>(
        cfg.countOr("DrainLowThreshold", c.drainLowThreshold));
    c.busLeadBursts = static_cast<unsigned>(
        cfg.countOr("BusLeadBursts", c.busLeadBursts));
    c.forwardLatency =
        cfg.nanosecondsOr("ForwardLatencyNs", c.forwardLatency);
    c.recentReadWindow =
        cfg.nanosecondsOr("RecentReadWindowNs", c.recentReadWindow);
    c.maxWriteCancellations = static_cast<unsigned>(
        cfg.countOr("MaxWriteCancellations", c.maxWriteCancellations));
    c.levelingEfficiency =
        cfg.ratioOr("LevelingEfficiency", c.levelingEfficiency);

    const Bound bound{dev, c, rows};
    for (const Constraint &rule : kConstraints) {
        if (!rule.holds(bound))
            reject(cfg, rule.anchor,
                   std::string(rule.family) + ": " + rule.id,
                   rule.message);
    }
    return dev;
}

std::vector<std::string>
deviceConfigRuleFamilies()
{
    std::vector<std::string> families = {"unknown-key", "missing-key",
                                         "range"};
    // kConstraints keeps each family's rows together.
    for (const Constraint &rule : kConstraints) {
        if (families.back() != rule.family)
            families.emplace_back(rule.family);
    }
    return families;
}

std::string
emitDeviceConfig(const DeviceConfig &device)
{
    const MemControllerConfig &c = device.controller;
    const MemGeometry &g = c.geometry;
    std::uint64_t rows = g.capacityBytes / device.numChannels /
                         g.numBanks / g.rowBytes;

    std::ostringstream out;
    out << "; mellowsim device config: " << device.name
        << " (canonical emit)\n";

    out << "CLK "
        << fmtDouble(static_cast<double>(kMicrosecond) /
                     static_cast<double>(c.timing.tCK))
        << "\n";
    out << "RATE " << device.dataRate << "\n";
    out << "BusWidth " << device.busWidthBits << "\n";

    out << "tRCD " << fmtDouble(nanosecondsOf(c.timing.tRCD)) << "\n";
    out << "tCAS " << fmtDouble(nanosecondsOf(c.timing.tCAS)) << "\n";
    out << "tWP " << fmtDouble(nanosecondsOf(c.timing.tWP)) << "\n";
    out << "tFAW " << fmtDouble(nanosecondsOf(c.timing.tFAW)) << "\n";
    out << "tBurst " << fmtDouble(nanosecondsOf(c.timing.tBurst))
        << "\n";

    out << "CHANNELS " << device.numChannels << "\n";
    out << "RANKS " << g.numRanks << "\n";
    out << "BANKS " << g.banksPerRank() << "\n";
    out << "ROWS " << rows << "\n";
    out << "RowBytes " << g.rowBytes << "\n";
    out << "RowBufferBytes " << g.rowBufferBytes << "\n";
    out << "InterleaveBytes " << g.interleaveBytes << "\n";
    out << "CapacityBytes " << g.capacityBytes << "\n";
    out << "PageScramble " << (g.pageScramble ? "true" : "false")
        << "\n";
    out << "PageBytes " << g.pageBytes << "\n";

    out << "BaseEndurance " << fmtDouble(c.endurance.baseEndurance)
        << "\n";
    out << "ExpoFactor " << fmtDouble(c.endurance.expoFactor) << "\n";

    out << "Cell " << cellTypeName(c.energy.cell) << "\n";
    if (c.energy.cellEnergyOverridePj) {
        out << "CellEnergyPj "
            << fmtDouble(c.energy.cellEnergyOverridePj->value()) << "\n";
    }
    out << "PeripheralWritePj "
        << fmtDouble(c.energy.peripheralWritePj.value()) << "\n";
    out << "PeripheralSlowWritePj "
        << fmtDouble(c.energy.peripheralSlowWritePj.value()) << "\n";
    out << "BitsPerWrite " << c.energy.bitsPerWrite << "\n";
    out << "SlowCellEnergyFactor "
        << fmtDouble(c.energy.slowCellEnergyFactor) << "\n";
    out << "BufferReadPj " << fmtDouble(c.energy.bufferReadPj.value())
        << "\n";
    out << "RowHitReadPj " << fmtDouble(c.energy.rowHitReadPj.value())
        << "\n";

    out << "ReadQueueSize " << c.readQueueSize << "\n";
    out << "WriteQueueSize " << c.writeQueueSize << "\n";
    out << "EagerQueueSize " << c.eagerQueueSize << "\n";
    out << "DrainLowThreshold " << c.drainLowThreshold << "\n";
    out << "BusLeadBursts " << c.busLeadBursts << "\n";
    out << "ForwardLatencyNs " << fmtDouble(nanosecondsOf(c.forwardLatency))
        << "\n";
    out << "RecentReadWindowNs "
        << fmtDouble(nanosecondsOf(c.recentReadWindow)) << "\n";
    out << "MaxWriteCancellations " << c.maxWriteCancellations << "\n";
    out << "LevelingEfficiency " << fmtDouble(c.levelingEfficiency)
        << "\n";

    return out.str();
}

bool
deviceConfigsEqual(const DeviceConfig &a, const DeviceConfig &b)
{
    const MemControllerConfig &ca = a.controller;
    const MemControllerConfig &cb = b.controller;
    return a.numChannels == b.numChannels &&
           a.dataRate == b.dataRate &&
           a.busWidthBits == b.busWidthBits &&
           ca.timing.tCK == cb.timing.tCK &&
           ca.timing.tRCD == cb.timing.tRCD &&
           ca.timing.tCAS == cb.timing.tCAS &&
           ca.timing.tWP == cb.timing.tWP &&
           ca.timing.tFAW == cb.timing.tFAW &&
           ca.timing.tBurst == cb.timing.tBurst &&
           ca.geometry.numBanks == cb.geometry.numBanks &&
           ca.geometry.numRanks == cb.geometry.numRanks &&
           ca.geometry.capacityBytes == cb.geometry.capacityBytes &&
           ca.geometry.rowBufferBytes == cb.geometry.rowBufferBytes &&
           ca.geometry.rowBytes == cb.geometry.rowBytes &&
           ca.geometry.interleaveBytes == cb.geometry.interleaveBytes &&
           ca.geometry.pageScramble == cb.geometry.pageScramble &&
           ca.geometry.pageBytes == cb.geometry.pageBytes &&
           ca.endurance.baseWriteLatency ==
               cb.endurance.baseWriteLatency &&
           ca.endurance.baseEndurance == cb.endurance.baseEndurance &&
           ca.endurance.expoFactor == cb.endurance.expoFactor &&
           ca.energy.cell == cb.energy.cell &&
           ca.energy.cellEnergyOverridePj ==
               cb.energy.cellEnergyOverridePj &&
           ca.energy.peripheralWritePj == cb.energy.peripheralWritePj &&
           ca.energy.peripheralSlowWritePj ==
               cb.energy.peripheralSlowWritePj &&
           ca.energy.bitsPerWrite == cb.energy.bitsPerWrite &&
           ca.energy.slowCellEnergyFactor ==
               cb.energy.slowCellEnergyFactor &&
           ca.energy.bufferReadPj == cb.energy.bufferReadPj &&
           ca.energy.rowHitReadPj == cb.energy.rowHitReadPj &&
           ca.readQueueSize == cb.readQueueSize &&
           ca.writeQueueSize == cb.writeQueueSize &&
           ca.eagerQueueSize == cb.eagerQueueSize &&
           ca.drainLowThreshold == cb.drainLowThreshold &&
           ca.busLeadBursts == cb.busLeadBursts &&
           ca.forwardLatency == cb.forwardLatency &&
           ca.recentReadWindow == cb.recentReadWindow &&
           ca.maxWriteCancellations == cb.maxWriteCancellations &&
           ca.levelingEfficiency == cb.levelingEfficiency;
}

} // namespace mellowsim
