/**
 * @file
 * Datasheet device configs: binding `KEY value` files into the
 * strong-typed simulator configuration, and the shipped device zoo.
 *
 * A device file (configs/<name>.config, NVMain-style format — see
 * config_file.hh) describes one memory technology point: interface
 * clocking, geometry, timing, the Equation-2 endurance parameters and
 * the Table-V/VI energy model, plus the per-channel controller
 * provisioning. bindDeviceConfig() turns a parsed file into a
 * DeviceConfig through unit-named conversions only; the inverse,
 * emitDeviceConfig(), serialises a DeviceConfig back to canonical
 * config text, and the two compose into the round-trip oracle pinned
 * by tests/test_config.cc.
 *
 * Binding checks every load against one rule table: a row per key
 * (unknown keys, required keys, inclusive ranges) and a row per
 * cross-field constraint (timing inequalities, geometry arithmetic,
 * Table-VI energy sanity, controller provisioning, Equation 2). A
 * violation is fatal and names the file:line, the key and the rule;
 * DESIGN.md §14 lists the rules.
 */

#ifndef MELLOWSIM_CONFIG_DEVICE_CONFIG_HH
#define MELLOWSIM_CONFIG_DEVICE_CONFIG_HH

#include <string>
#include <vector>

#include "config/config_file.hh"
#include "nvm/controller.hh"

namespace mellowsim
{

/** One device technology point, fully bound to typed parameters. */
struct DeviceConfig
{
    /** Registry name (file stem), e.g. "reram_paper". */
    std::string name = "reram_paper";

    /** Memory channels in the system. */
    unsigned numChannels = 1;

    /** Bus transfers per clock (1 = SDR, 2 = DDR). */
    unsigned dataRate = 1;

    /** Data bus width in bits (the JEDEC-style 64 by default). */
    unsigned busWidthBits = 64;

    /**
     * Per-channel controller configuration: geometry, timing,
     * endurance, energy and queue provisioning. Policy fields
     * (WritePolicyConfig, quota, fault injection) are NOT device
     * properties and keep their defaults — a device file describes
     * hardware, not the experiment run on it.
     */
    MemControllerConfig controller;
};

/**
 * The directory device files are resolved from: $MELLOWSIM_CONFIG_DIR
 * when set, otherwise the repository's configs/ directory baked in at
 * build time.
 */
[[nodiscard]] std::string deviceConfigDir();

/** Registry names of every *.config in deviceConfigDir(), sorted. */
[[nodiscard]] std::vector<std::string> deviceConfigNames();

/**
 * Load and bind a device: @p nameOrPath is a registry name
 * ("reram_paper") or an explicit path to a .config file.
 */
[[nodiscard]] DeviceConfig loadDeviceConfig(
    const std::string &nameOrPath);

/**
 * Bind an already-parsed config file, checking it against the rule
 * table first (see file comment); any violation is fatal().
 */
[[nodiscard]] DeviceConfig bindDeviceConfig(const ConfigFile &cfg,
                                            const std::string &name);

/**
 * The rule families binding enforces, in table order: the key pass
 * (unknown-key, missing-key, range), then each cross-field family.
 */
[[nodiscard]] std::vector<std::string> deviceConfigRuleFamilies();

/**
 * Canonical config text for a bound device: every schema key, one per
 * line, in the order of the binder's key table. parse -> bind -> emit ->
 * parse -> bind is field-identical (the round-trip oracle).
 */
[[nodiscard]] std::string emitDeviceConfig(const DeviceConfig &device);

/** Field-by-field equality of two bound devices (test oracle). */
[[nodiscard]] bool deviceConfigsEqual(const DeviceConfig &a,
                                      const DeviceConfig &b);

} // namespace mellowsim

#endif // MELLOWSIM_CONFIG_DEVICE_CONFIG_HH
