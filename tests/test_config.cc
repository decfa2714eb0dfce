/**
 * @file
 * Tests for the NVMain-style config parser and the device binding.
 *
 * Two oracles anchor the device-config subsystem:
 *
 *  - Round-trip: parse -> bind -> emit -> parse -> bind is
 *    field-identical for every shipped device config, so the
 *    emitted canonical text is a faithful serialisation and a config
 *    can be archived, diffed and reloaded without drift.
 *
 *  - Fidelity: configs/reram_paper.config binds to exactly the
 *    compiled-in defaults, so running any bench with
 *    `--device reram_paper` reproduces the paper figures
 *    byte-for-byte (fig11 is the CI gate).
 *
 * The rule table is pinned from both sides: every fixture under
 * tests/config_fixtures/ that breaks a rule fails to load with a
 * message naming it, and every rule family the binder reports has
 * such a fixture, so a rule that stops firing fails a test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "config/config_file.hh"
#include "config/device_config.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

using namespace mellowsim;

// --- Parser semantics ------------------------------------------------

TEST(ConfigFile, CommentLeadersAreStripped)
{
    ConfigFile cfg = ConfigFile::parseString(
        "; leading comment\n"
        "CLK 400 ; NVMain-style trailing comment\n"
        "tRCD 120 // C++-style trailing comment\n"
        "# hash comment line\n"
        "tWP 150\n");
    EXPECT_TRUE(cfg.has("CLK"));
    EXPECT_DOUBLE_EQ(cfg.megahertz("CLK").value(), 400.0);
    EXPECT_EQ(cfg.nanoseconds("tRCD"), 120 * kNanosecond);
    EXPECT_EQ(cfg.nanoseconds("tWP"), 150 * kNanosecond);
    EXPECT_EQ(cfg.entries().size(), 3u);
}

TEST(ConfigFile, LaterAssignmentWinsKeepingFirstSeenPosition)
{
    ConfigFile cfg = ConfigFile::parseString(
        "CLK 200\n"
        "tRCD 120\n"
        "CLK 400\n");
    EXPECT_DOUBLE_EQ(cfg.megahertz("CLK").value(), 400.0);
    // The override updated the value in place: CLK still emits before
    // tRCD, so emit() is stable under specialisation.
    EXPECT_EQ(cfg.emit(), "CLK 400\ntRCD 120\n");
}

TEST(ConfigFile, UnitNamedAccessorsConvert)
{
    ConfigFile cfg = ConfigFile::parseString(
        "tCAS 2.5\n"
        "Energy 197.6\n"
        "Queue 32\n"
        "Expo 2.5\n"
        "Scramble true\n"
        "Cell CellC\n"
        "Row 16384\n"
        "Bus 64\n");
    // 2.5 ns is 2500 ticks: the accessor, not the call site, owns the
    // ns -> Tick scale factor.
    EXPECT_EQ(cfg.nanoseconds("tCAS"), Tick(2500));
    EXPECT_DOUBLE_EQ(cfg.picojoules("Energy").value(), 197.6);
    EXPECT_EQ(cfg.count("Queue"), 32u);
    EXPECT_DOUBLE_EQ(cfg.ratio("Expo"), 2.5);
    EXPECT_TRUE(cfg.flag("Scramble"));
    EXPECT_EQ(cfg.word("Cell"), "CellC");
    EXPECT_EQ(cfg.bytes("Row"), 16384u);
    EXPECT_EQ(cfg.bits("Bus"), 64u);
}

TEST(ConfigFile, DefaultedAccessorsFallBackWhenAbsent)
{
    ConfigFile cfg = ConfigFile::parseString("CLK 400\n");
    EXPECT_EQ(cfg.countOr("Missing", 7), 7u);
    EXPECT_DOUBLE_EQ(cfg.ratioOr("Missing", 0.9), 0.9);
    EXPECT_FALSE(cfg.flagOr("Missing", false));
    EXPECT_EQ(cfg.wordOr("Missing", "CellC"), "CellC");
    EXPECT_EQ(cfg.nanosecondsOr("Missing", Tick(123)), Tick(123));
    EXPECT_DOUBLE_EQ(
        cfg.picojoulesOr("Missing", Picojoules(1.5)).value(), 1.5);
}

TEST(ConfigFile, CountRejectsWhatNoIntegerHolds)
{
    ConfigFile cfg = ConfigFile::parseString(
        "Huge 1e30\nHalf 2.5\nNegative -1\nNotANumber nan\n");
    EXPECT_THROW((void)cfg.count("Huge"), FatalError);
    EXPECT_THROW((void)cfg.count("Half"), FatalError);
    EXPECT_THROW((void)cfg.count("Negative"), FatalError);
    EXPECT_THROW((void)cfg.count("NotANumber"), FatalError);
}

// --- Shipped device zoo ----------------------------------------------

TEST(DeviceConfig, ZooShipsAtLeastThreeDevices)
{
    const auto names = deviceConfigNames();
    ASSERT_GE(names.size(), 3u);
    // The paper point must always be present: it is the fidelity
    // anchor every figure bench defaults to.
    EXPECT_NE(std::find(names.begin(), names.end(),
                        std::string("reram_paper")),
              names.end());
}

TEST(DeviceConfig, RoundTripIsFieldIdenticalForEveryShippedConfig)
{
    for (const std::string &name : deviceConfigNames()) {
        const DeviceConfig bound = loadDeviceConfig(name);
        EXPECT_EQ(bound.name, name);

        const std::string text = emitDeviceConfig(bound);
        const ConfigFile reparsed =
            ConfigFile::parseString(text, name + " (emitted)");
        const DeviceConfig rebound = bindDeviceConfig(reparsed, name);

        EXPECT_TRUE(deviceConfigsEqual(bound, rebound)) << name;
        // The canonical text is a fixed point: emitting the rebound
        // device reproduces it byte-for-byte.
        EXPECT_EQ(emitDeviceConfig(rebound), text) << name;
    }
}

TEST(DeviceConfig, PaperConfigBindsToCompiledInDefaults)
{
    // The fidelity oracle: the shipped paper datasheet is the
    // compiled-in configuration, field for field, so --device
    // reram_paper cannot change any figure.
    const DeviceConfig paper = loadDeviceConfig("reram_paper");
    EXPECT_TRUE(deviceConfigsEqual(paper, DeviceConfig{}));
}

TEST(DeviceConfig, DevicesAreDistinctTechnologyPoints)
{
    // The zoo is only useful if the devices actually differ.
    const auto names = deviceConfigNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_FALSE(deviceConfigsEqual(loadDeviceConfig(names[i]),
                                            loadDeviceConfig(names[j])))
                << names[i] << " vs " << names[j];
}

// --- The rule table ---------------------------------------------------

namespace
{

std::string
fixturePath(const std::string &fixture)
{
    return std::string(MELLOWSIM_CONFIG_FIXTURE_DIR) + "/" + fixture +
           ".config";
}

/** The FatalError text @p load raises ("" if it binds). */
template <typename Load>
std::string
fatalText(Load load)
{
    try {
        (void)load();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

std::string
loadFatalText(const std::string &fixture)
{
    return fatalText([&] { return loadDeviceConfig(fixturePath(fixture)); });
}

/** reram_paper with @p overrides appended (later assignments win). */
std::string
fatalTextOverPaper(const std::string &overrides)
{
    return fatalText([&] {
        return bindDeviceConfig(
            ConfigFile::parseString("INCLUDE reram_paper.config\n" +
                                        overrides,
                                    "override", deviceConfigDir()),
            "override");
    });
}

/** 1-based line of @p key's assignment in @p fixture (0 if absent). */
int
lineOf(const std::string &fixture, const std::string &key)
{
    std::ifstream in(fixturePath(fixture));
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
        if (line.rfind(key + " ", 0) == 0 || line == key)
            return n;
    }
    return 0;
}

/**
 * One rejecting fixture: the rule family it breaks, the key its
 * message names, and the text that names the rule. The parser
 * families (parse-error, unit-mismatch) keep the parser's own text.
 */
struct Rejection
{
    const char *fixture;
    const char *family;
    const char *key;
    const char *rule;
};

const Rejection kRejections[] = {
    {"fail_parse_error", "parse-error", "Garbage", "has no value"},
    {"fail_unit_mismatch", "unit-mismatch", "tWP",
     "'150ns' is not a number"},
    {"fail_unknown_key", "unknown-key", "FrobnicationLevel",
     "[unknown-key]"},
    {"fail_missing_key", "missing-key", "tFAW", "[missing-key]"},
    {"fail_range", "range", "LevelingEfficiency", "[range]"},
    {"fail_timing_inequality", "timing-inequality", "tBurst",
     "[timing-inequality: tburst-transfers-line]"},
    {"fail_geometry_arithmetic", "geometry-arithmetic", "CapacityBytes",
     "[geometry-arithmetic: capacity-product]"},
    {"fail_energy_model", "energy-model", "PeripheralSlowWritePj",
     "[energy-model: slow-peripheral-cheaper]"},
    {"fail_controller_sanity", "controller-sanity", "DrainLowThreshold",
     "[controller-sanity: drain-hysteresis]"},
    {"fail_pulse_monotonicity", "pulse-monotonicity", "ExpoFactor",
     "[pulse-monotonicity: eq2-gains-endurance]"},
};

/** A rule family as a test parameter. */
struct Family
{
    std::string name;
};

std::vector<Family>
tableFamilies()
{
    std::vector<Family> families;
    for (const std::string &name : deviceConfigRuleFamilies())
        families.push_back({name});
    return families;
}

// ctest names each instance by the printed parameter: its family.
void
PrintTo(const Rejection &r, std::ostream *os)
{
    *os << r.family;
}

void
PrintTo(const Family &f, std::ostream *os)
{
    *os << f.name;
}

/**
 * A second fixture of a family the table already covers; ctest names
 * the table's instances by family, so it runs as its own test.
 */
const Rejection kPow2Banks = {"fail_pow2_banks", "geometry-arithmetic",
                              "BANKS", "[geometry-arithmetic: pow2-banks]"};

void
expectFailsNamingItsRule(const Rejection &r)
{
    const std::string text = loadFatalText(r.fixture);
    ASSERT_FALSE(text.empty()) << r.fixture << " loaded cleanly";
    EXPECT_NE(text.find(r.rule), std::string::npos) << text;
    EXPECT_NE(text.find(r.key), std::string::npos) << text;

    // The message points at the key's line, or at the file alone
    // when the key is absent.
    const int line = lineOf(r.fixture, r.key);
    const std::string where =
        fixturePath(r.fixture) +
        (line > 0 ? ":" + std::to_string(line) + ":" : ":");
    EXPECT_NE(text.find(where), std::string::npos)
        << "expected '" << where << "' in: " << text;
}

} // namespace

class RejectedFixture : public ::testing::TestWithParam<Rejection>
{
};

TEST_P(RejectedFixture, FailsNamingItsRule)
{
    expectFailsNamingItsRule(GetParam());
}

TEST(ConfigFixtures, Pow2BanksFailsNamingItsRule)
{
    expectFailsNamingItsRule(kPow2Banks);
}

INSTANTIATE_TEST_SUITE_P(ConfigFixtures, RejectedFixture,
                         ::testing::ValuesIn(kRejections));

class RuleFamilyCoverage : public ::testing::TestWithParam<Family>
{
};

TEST_P(RuleFamilyCoverage, HasAFixtureThatTripsIt)
{
    const std::string &family = GetParam().name;
    const auto *it = std::find_if(
        std::begin(kRejections), std::end(kRejections),
        [&](const Rejection &r) { return family == r.family; });
    ASSERT_NE(it, std::end(kRejections))
        << "no fixture breaks rule family " << family;
    EXPECT_NE(loadFatalText(it->fixture).find("[" + family),
              std::string::npos)
        << it->fixture << " does not trip " << family;
}

INSTANTIATE_TEST_SUITE_P(RuleFamilies, RuleFamilyCoverage,
                         ::testing::ValuesIn(tableFamilies()));

// parse-error and unit-mismatch have no row in the binder's table, so
// RuleFamilyCoverage cannot see them. These pin that the parser
// itself rejects their fixtures, before any table rule runs.
TEST(ParserFamilies, ParseErrorFixtureFailsInTheParser)
{
    const std::string text = fatalText(
        [] { return ConfigFile::parseFile(fixturePath("fail_parse_error")); });
    EXPECT_NE(text.find(fixturePath("fail_parse_error") +
                        ":38: key 'Garbage' has no value"),
              std::string::npos)
        << text;
}

TEST(ParserFamilies, UnitMismatchFixtureFailsItsTypedRead)
{
    const ConfigFile cfg =
        ConfigFile::parseFile(fixturePath("fail_unit_mismatch"));
    const std::string text =
        fatalText([&] { return cfg.nanoseconds("tWP"); });
    EXPECT_NE(text.find("key 'tWP': '150ns' is not a number"),
              std::string::npos)
        << text;
}

TEST(ConfigRules, EveryShippedConfigIsClean)
{
    // Loading runs the whole table, so a shipped device that breaks
    // any rule shows here with the rule's own message.
    for (const std::string &name : deviceConfigNames())
        EXPECT_EQ(fatalText([&] { return loadDeviceConfig(name); }), "")
            << name;
}

TEST(ConfigFixtures, PassControlBindsAsThePaperConfig)
{
    EXPECT_TRUE(deviceConfigsEqual(
        loadDeviceConfig(fixturePath("pass_control")),
        loadDeviceConfig("reram_paper")));
}

TEST(ConfigRules, DrainLowAtTheWriteQueueSizeFailsInTheBinder)
{
    // The controller drains down to DrainLowThreshold once the write
    // queue is full, so the threshold must sit strictly below it.
    const std::string text =
        fatalTextOverPaper("WriteQueueSize 32\nDrainLowThreshold 32\n");
    EXPECT_NE(text.find("override:3: DrainLowThreshold 32 breaks "
                        "[controller-sanity: drain-hysteresis]"),
              std::string::npos)
        << text;
    EXPECT_TRUE(fatalTextOverPaper("DrainLowThreshold 31\n").empty());
}

TEST(ConfigRules, CountTooWideForUnsignedIsARangeError)
{
    // 2^32 + 32 would narrow to 32 if binding cast before checking.
    const std::string text =
        fatalTextOverPaper("ReadQueueSize 4294967328\n");
    EXPECT_NE(text.find("ReadQueueSize 4294967328 breaks [range]"),
              std::string::npos)
        << text;
}

TEST(ConfigRules, EveryConstraintRowFires)
{
    // Each override breaks exactly one row of an otherwise clean
    // paper config, so a row whose predicate went dead fails here.
    const std::pair<const char *, const char *> kBreaks[] = {
        {"tBurst 15\n", "[timing-inequality: tburst-transfers-line]"},
        {"tFAW 9\n", "[timing-inequality: faw-covers-spacing]"},
        {"tFAW 15\n", "[timing-inequality: faw-covers-burst]"},
        {"tRCD 2\n", "[timing-inequality: rcd-covers-cas]"},
        {"tWP 2\n", "[timing-inequality: wp-dominates-cas]"},
        {"ForwardLatencyNs 120\n",
         "[timing-inequality: forward-beats-array]"},
        {"BANKS 6\n", "[geometry-arithmetic: pow2-banks]"},
        {"RANKS 3\n", "[geometry-arithmetic: pow2-banks]"},
        {"ROWS 9999\n", "[geometry-arithmetic: capacity-product]"},
        {"RowBufferBytes 768\n",
         "[geometry-arithmetic: rowbuffer-divides-row]"},
        {"InterleaveBytes 24576\n",
         "[geometry-arithmetic: interleave-row-aligned]"},
        {"PageBytes 6144\n", "[geometry-arithmetic: pow2-geometry]"},
        {"PeripheralSlowWritePj 500\n",
         "[energy-model: slow-peripheral-cheaper]"},
        {"SlowCellEnergyFactor 1\nPeripheralSlowWritePj 100\n",
         "[energy-model: slow-write-net-cost]"},
        {"RowHitReadPj 2000\n", "[energy-model: buffer-read-dominates-hit]"},
        {"BitsPerWrite 1024\ntBurst 40\n", "[energy-model: line-bits]"},
        {"BufferReadPj 20000\n", "[energy-model: buffer-read-per-byte]"},
        {"DrainLowThreshold 32\n", "[controller-sanity: drain-hysteresis]"},
        {"EagerQueueSize 33\n", "[controller-sanity: eager-within-queue]"},
        {"MaxWriteCancellations 33\n",
         "[controller-sanity: cancellations-bounded]"},
        {"ExpoFactor 0\n", "[pulse-monotonicity: eq2-gains-endurance]"},
    };
    for (const auto &[overrides, rule] : kBreaks) {
        const std::string text = fatalTextOverPaper(overrides);
        EXPECT_NE(text.find(rule), std::string::npos)
            << overrides << "-> " << text;
    }
}
