// analyze-expect: nondeterminism
// Range-for over an unordered member declared in the directly
// included header (retry_table.hh): the first match depends on the
// hash table's iteration order.
#include "nvm/retry_table.hh"

std::uint64_t
RetryTable::oldestRetry()
{
    for (const auto &[line, retries] : _pending) {
        if (retries > 0)
            return line;
    }
    return 0;
}
