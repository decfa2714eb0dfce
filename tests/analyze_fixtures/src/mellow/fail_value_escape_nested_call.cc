// analyze-expect: value-escape
// The escape goes through a call whose argument list nests another
// call: the receiver is still the outer call's strong return type.
#include "sim/strong_types.hh"

BankId bankOfLine(LineIndex line);
LineIndex lineOfSeed(unsigned long seed);

unsigned long
leakNestedBankIndex(unsigned long seed)
{
    return bankOfLine(lineOfSeed(seed)).value();
}
