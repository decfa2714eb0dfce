// analyze-expect: value-escape
// The escape goes through a subscript: the receiver is an element of
// a container of strong bank indices.
#include "sim/strong_types.hh"

#include <vector>

unsigned long
leakVictimOrder(const std::vector<BankId> &victimOrder, unsigned i)
{
    return victimOrder[i].value();
}
