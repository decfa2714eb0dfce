#include "workload/trace_workload.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/** Strip leading whitespace and trailing comment/whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string line = raw;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos)
        line.erase(hash);
    std::size_t begin = line.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos)
        return "";
    std::size_t end = line.find_last_not_of(" \t\r\n");
    return line.substr(begin, end - begin + 1);
}

} // namespace

TraceWorkload::TraceWorkload(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open trace file '%s'", path.c_str());

    std::string raw;
    std::uint64_t line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        std::istringstream fields(line);
        std::uint64_t gap = 0;
        std::string kind;
        std::string addr_text;
        if (!(fields >> gap >> kind >> addr_text)) {
            fatal("trace '%s' line %llu: expected '<gap> <R|W|D> "
                  "<addr>', got '%s'",
                  path.c_str(),
                  static_cast<unsigned long long>(line_no),
                  line.c_str());
        }
        fatal_if(gap > 0xFFFFFFFFull,
                 "trace '%s' line %llu: gap too large", path.c_str(),
                 static_cast<unsigned long long>(line_no));

        Op op;
        op.gap = static_cast<std::uint32_t>(gap);
        if (kind == "R" || kind == "r") {
            op.isWrite = false;
        } else if (kind == "W" || kind == "w") {
            op.isWrite = true;
        } else if (kind == "D" || kind == "d") {
            op.isWrite = false;
            op.dependsOnPrev = true;
        } else if (kind == "X" || kind == "x") {
            // Dependent store: the write half of a read-modify-write.
            op.isWrite = true;
            op.dependsOnPrev = true;
        } else {
            fatal("trace '%s' line %llu: unknown op kind '%s'",
                  path.c_str(),
                  static_cast<unsigned long long>(line_no),
                  kind.c_str());
        }

        // strtoull wraps "-1" to 2^64 - 1 and saturates on overflow;
        // both are bad input, not addresses.
        char *end = nullptr;
        errno = 0;
        op.addr = std::strtoull(addr_text.c_str(), &end, 16);
        fatal_if(end == addr_text.c_str() || *end != '\0' ||
                     addr_text.find('-') != std::string::npos ||
                     errno == ERANGE,
                 "trace '%s' line %llu: bad address '%s'", path.c_str(),
                 static_cast<unsigned long long>(line_no),
                 addr_text.c_str());

        _ops.push_back(op);
    }
    fatal_if(_ops.empty(), "trace file '%s' contains no operations",
             path.c_str());
    _info.name = path;
}

TraceWorkload::TraceWorkload(std::vector<Op> ops, std::string name)
    : _ops(std::move(ops))
{
    fatal_if(_ops.empty(), "trace workload needs >= 1 operation");
    _info.name = std::move(name);
}

Op
TraceWorkload::next()
{
    Op op = _ops[_pos];
    if (++_pos == _ops.size()) {
        _pos = 0;
        ++_cycles;
    }
    return op;
}

void
writeTrace(const std::string &path, Workload &workload,
           std::uint64_t numOps)
{
    fatal_if(numOps == 0, "cannot record an empty trace");
    std::ofstream out(path);
    fatal_if(!out, "cannot write trace file '%s'", path.c_str());

    out << "# mellowsim trace: " << workload.info().name << "\n";
    out << "# <gap> <R|W|D> <hex-address>\n";
    for (std::uint64_t i = 0; i < numOps; ++i) {
        Op op = workload.next();
        char kind = op.isWrite ? (op.dependsOnPrev ? 'X' : 'W')
                               : (op.dependsOnPrev ? 'D' : 'R');
        out << op.gap << ' ' << kind << ' ' << std::hex << "0x"
            << op.addr << std::dec << '\n';
    }
    fatal_if(!out.good(), "error while writing trace file '%s'",
             path.c_str());
}

WorkloadPtr
makeTraceWorkload(const std::string &path)
{
    return std::make_unique<TraceWorkload>(path);
}

} // namespace mellowsim
