// analyze-expect: value-escape
// The escape goes through an `auto` local: its type is the strong
// return type of the call that initialises it.
#include "sim/strong_types.hh"

BankId victimBank(unsigned long seed);

unsigned long
leakVictimIndex(unsigned long seed)
{
    auto victim = victimBank(seed);
    return victim.value();
}
