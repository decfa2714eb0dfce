/**
 * @file
 * NVMain-style `KEY value` device-config parser.
 *
 * The format is the one NVMain ships its datasheet configs in (the
 * ISSCC-2012 ReRAM macro config is the exemplar):
 *
 *     ; comment until end of line
 *     CLK 400          ; interface clock, MHz
 *     tRCD 120
 *     INCLUDE base.config
 *
 *  - `;` starts a comment (anywhere on a line); `#` and `//` are
 *    accepted as comment leaders too.
 *  - `INCLUDE <path>` splices another file, resolved relative to the
 *    including file; include cycles and runaway depth are fatal.
 *  - Later assignments override earlier ones (including values pulled
 *    in via INCLUDE), which is how a derived device file specialises
 *    a base: the winning assignment keeps the key's original
 *    first-seen position, so emit() is stable under overrides.
 *
 * Values leave the parser ONLY through unit-named typed accessors
 * (nanoseconds() -> Tick, megahertz() -> Megahertz, picojoules() ->
 * Picojoules, ...): there is deliberately no `double get(key)` — the
 * unit a key is read in is visible at every call site, which is what
 * keeps a mis-scaled datasheet number a local, reviewable mistake
 * instead of a silently-wrong simulation (DESIGN.md §14).
 */

#ifndef MELLOWSIM_CONFIG_CONFIG_FILE_HH
#define MELLOWSIM_CONFIG_CONFIG_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/** One key's final binding, with the provenance of the winning line. */
struct ConfigEntry
{
    std::string key;
    std::string value;  ///< raw text, comment and whitespace stripped
    std::string file;   ///< file of the winning assignment
    int line = 0;       ///< 1-based line of the winning assignment
};

/** See file comment. */
class ConfigFile
{
  public:
    /** Parse @p path (and its INCLUDEs); any error is fatal(). */
    [[nodiscard]] static ConfigFile parseFile(const std::string &path);

    /** Parse in-memory text (INCLUDE resolves relative to @p dir). */
    [[nodiscard]] static ConfigFile
    parseString(const std::string &text,
                const std::string &name = "<string>",
                const std::string &dir = ".");

    [[nodiscard]] bool has(const std::string &key) const;

    /** The binding of @p key, or nullptr when the file lacks it. */
    [[nodiscard]] const ConfigEntry *find(const std::string &key) const;

    /** All bindings, in first-seen key order (emit order). */
    [[nodiscard]] const std::vector<ConfigEntry> &entries() const
    {
        return _entries;
    }

    // --- Unit-named typed accessors (the only value exits) ----------
    /** A dimensionless non-negative integer (queue sizes, ranks). */
    [[nodiscard]] std::uint64_t count(const std::string &key) const;

    /** A dimensionless real factor (ExpoFactor, efficiency). */
    [[nodiscard]] double ratio(const std::string &key) const;

    /** A boolean: true/false (also 1/0, on/off). */
    [[nodiscard]] bool flag(const std::string &key) const;

    /** A bare identifier (cell type names and the like). */
    [[nodiscard]] std::string word(const std::string &key) const;

    /** A duration given in nanoseconds, as simulator ticks. */
    [[nodiscard]] Tick nanoseconds(const std::string &key) const;

    /** A clock frequency given in megahertz. */
    [[nodiscard]] Megahertz megahertz(const std::string &key) const;

    /** An energy given in picojoules. */
    [[nodiscard]] Picojoules picojoules(const std::string &key) const;

    /** A size given in bytes. */
    [[nodiscard]] std::uint64_t bytes(const std::string &key) const;

    /** A width given in bits. */
    [[nodiscard]] unsigned bits(const std::string &key) const;

    // --- Defaulted variants (absent key -> fallback) ----------------
    [[nodiscard]] std::uint64_t countOr(const std::string &key,
                                        std::uint64_t fallback) const;
    [[nodiscard]] double ratioOr(const std::string &key,
                                 double fallback) const;
    [[nodiscard]] bool flagOr(const std::string &key,
                              bool fallback) const;
    [[nodiscard]] std::string wordOr(const std::string &key,
                                     const std::string &fallback) const;
    [[nodiscard]] Tick nanosecondsOr(const std::string &key,
                                     Tick fallback) const;
    [[nodiscard]] Picojoules picojoulesOr(const std::string &key,
                                          Picojoules fallback) const;

    /**
     * Canonical `KEY value` text: one binding per line, first-seen
     * key order, overrides already folded in. parse(emit()) is
     * field-identical to the source config (the round-trip oracle in
     * tests/test_config.cc pins this for every shipped device).
     */
    [[nodiscard]] std::string emit() const;

    /** The name parse was invoked with (diagnostics). */
    [[nodiscard]] const std::string &source() const { return _source; }

  private:
    [[nodiscard]] const ConfigEntry &require(
        const std::string &key) const;
    [[nodiscard]] double numeric(const std::string &key) const;

    void parseLines(const std::string &text, const std::string &name,
                    const std::string &dir, int depth);

    std::string _source;
    std::vector<ConfigEntry> _entries;
};

} // namespace mellowsim

#endif // MELLOWSIM_CONFIG_CONFIG_FILE_HH
