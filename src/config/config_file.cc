#include "config/config_file.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/** INCLUDE nesting bound (a cycle would otherwise recurse forever). */
constexpr int kMaxIncludeDepth = 16;

std::string
stripComment(const std::string &line)
{
    // `;` anywhere; `#` only as the first non-blank character (so a
    // value can never contain one anyway); `//` anywhere.
    std::string out = line;
    if (auto pos = out.find(';'); pos != std::string::npos)
        out.erase(pos);
    if (auto pos = out.find("//"); pos != std::string::npos)
        out.erase(pos);
    std::size_t first = out.find_first_not_of(" \t\r");
    if (first != std::string::npos && out[first] == '#')
        out.clear();
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::string
dirOf(const std::string &path)
{
    std::size_t pos = path.find_last_of('/');
    return pos == std::string::npos ? std::string(".")
                                    : path.substr(0, pos);
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "config: cannot open '%s'", path.c_str());
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

bool
validKey(const std::string &key)
{
    if (key.empty())
        return false;
    if (std::isdigit(static_cast<unsigned char>(key[0])) != 0)
        return false;
    for (char c : key) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 &&
            c != '_')
            return false;
    }
    return true;
}

} // namespace

ConfigFile
ConfigFile::parseFile(const std::string &path)
{
    ConfigFile cfg;
    cfg._source = path;
    cfg.parseLines(readWholeFile(path), path, dirOf(path), 0);
    return cfg;
}

ConfigFile
ConfigFile::parseString(const std::string &text, const std::string &name,
                        const std::string &dir)
{
    ConfigFile cfg;
    cfg._source = name;
    cfg.parseLines(text, name, dir, 0);
    return cfg;
}

void
ConfigFile::parseLines(const std::string &text, const std::string &name,
                       const std::string &dir, int depth)
{
    fatal_if(depth > kMaxIncludeDepth,
             "config %s: INCLUDE nesting exceeds %d (cycle?)",
             name.c_str(), kMaxIncludeDepth);

    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        std::string line = trim(stripComment(raw));
        if (line.empty())
            continue;

        std::size_t split = line.find_first_of(" \t");
        std::string key = line.substr(0, split);
        std::string value =
            split == std::string::npos ? "" : trim(line.substr(split));
        fatal_if(!validKey(key), "config %s:%d: bad key '%s'",
                 name.c_str(), lineno, key.c_str());
        fatal_if(value.empty(), "config %s:%d: key '%s' has no value",
                 name.c_str(), lineno, key.c_str());

        if (key == "INCLUDE") {
            std::string sub = value[0] == '/' ? value
                                              : dir + "/" + value;
            parseLines(readWholeFile(sub), sub, dirOf(sub), depth + 1);
            continue;
        }

        bool found = false;
        for (ConfigEntry &entry : _entries) {
            if (entry.key == key) {
                // Override: keep the first-seen position, record the
                // winning assignment's provenance.
                entry.value = value;
                entry.file = name;
                entry.line = lineno;
                found = true;
                break;
            }
        }
        if (!found)
            _entries.push_back({key, value, name, lineno});
    }
}

bool
ConfigFile::has(const std::string &key) const
{
    return find(key) != nullptr;
}

const ConfigEntry *
ConfigFile::find(const std::string &key) const
{
    for (const ConfigEntry &entry : _entries) {
        if (entry.key == key)
            return &entry;
    }
    return nullptr;
}

const ConfigEntry &
ConfigFile::require(const std::string &key) const
{
    const ConfigEntry *entry = find(key);
    fatal_if(entry == nullptr, "config %s: missing required key '%s'",
             _source.c_str(), key.c_str());
    return *entry;
}

double
ConfigFile::numeric(const std::string &key) const
{
    const ConfigEntry &entry = require(key);
    errno = 0;
    char *end = nullptr;
    double parsed = std::strtod(entry.value.c_str(), &end);
    fatal_if(end == entry.value.c_str() || *end != '\0' || errno != 0,
             "config %s:%d: key '%s': '%s' is not a number",
             entry.file.c_str(), entry.line, key.c_str(),
             entry.value.c_str());
    return parsed;
}

std::uint64_t
ConfigFile::count(const std::string &key) const
{
    const ConfigEntry &entry = require(key);
    double parsed = numeric(key);
    // 2^64 and beyond would make the integer cast below undefined.
    fatal_if(parsed < 0 || !(parsed < 0x1p64) ||
                 parsed != static_cast<double>(
                               static_cast<std::uint64_t>(parsed)),
             "config %s:%d: key '%s': '%s' is not a non-negative "
             "integer",
             entry.file.c_str(), entry.line, key.c_str(),
             entry.value.c_str());
    return static_cast<std::uint64_t>(parsed);
}

double
ConfigFile::ratio(const std::string &key) const
{
    return numeric(key);
}

bool
ConfigFile::flag(const std::string &key) const
{
    const ConfigEntry &entry = require(key);
    const std::string &v = entry.value;
    if (v == "true" || v == "1" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "off")
        return false;
    fatal("config %s:%d: key '%s': '%s' is not a boolean",
          entry.file.c_str(), entry.line, key.c_str(), v.c_str());
}

std::string
ConfigFile::word(const std::string &key) const
{
    return require(key).value;
}

Tick
ConfigFile::nanoseconds(const std::string &key) const
{
    double ns = numeric(key);
    const ConfigEntry &entry = require(key);
    fatal_if(ns < 0, "config %s:%d: key '%s': negative duration",
             entry.file.c_str(), entry.line, key.c_str());
    return ticksFromNanoseconds(ns);
}

Megahertz
ConfigFile::megahertz(const std::string &key) const
{
    double mhz = numeric(key);
    const ConfigEntry &entry = require(key);
    fatal_if(mhz <= 0, "config %s:%d: key '%s': clock must be > 0 MHz",
             entry.file.c_str(), entry.line, key.c_str());
    return Megahertz(mhz);
}

Picojoules
ConfigFile::picojoules(const std::string &key) const
{
    double pj = numeric(key);
    const ConfigEntry &entry = require(key);
    fatal_if(pj < 0, "config %s:%d: key '%s': negative energy",
             entry.file.c_str(), entry.line, key.c_str());
    return Picojoules(pj);
}

std::uint64_t
ConfigFile::bytes(const std::string &key) const
{
    return count(key);
}

unsigned
ConfigFile::bits(const std::string &key) const
{
    std::uint64_t v = count(key);
    const ConfigEntry &entry = require(key);
    fatal_if(v == 0 || v > 4096,
             "config %s:%d: key '%s': implausible bit width %llu",
             entry.file.c_str(), entry.line, key.c_str(),
             static_cast<unsigned long long>(v));
    return static_cast<unsigned>(v);
}

std::uint64_t
ConfigFile::countOr(const std::string &key, std::uint64_t fallback) const
{
    return has(key) ? count(key) : fallback;
}

double
ConfigFile::ratioOr(const std::string &key, double fallback) const
{
    return has(key) ? ratio(key) : fallback;
}

bool
ConfigFile::flagOr(const std::string &key, bool fallback) const
{
    return has(key) ? flag(key) : fallback;
}

std::string
ConfigFile::wordOr(const std::string &key,
                   const std::string &fallback) const
{
    return has(key) ? word(key) : fallback;
}

Tick
ConfigFile::nanosecondsOr(const std::string &key, Tick fallback) const
{
    return has(key) ? nanoseconds(key) : fallback;
}

Picojoules
ConfigFile::picojoulesOr(const std::string &key,
                         Picojoules fallback) const
{
    return has(key) ? picojoules(key) : fallback;
}

std::string
ConfigFile::emit() const
{
    std::ostringstream out;
    for (const ConfigEntry &entry : _entries)
        out << entry.key << " " << entry.value << "\n";
    return out.str();
}

} // namespace mellowsim
