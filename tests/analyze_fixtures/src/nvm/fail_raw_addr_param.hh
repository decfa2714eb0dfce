// analyze-expect: raw-addr-param
// A converted module's header taking raw integers where the strong
// address-space types and the Tick alias belong.
#pragma once

#include <cstdint>

class BankTable
{
  public:
    void touch(std::uint64_t bank);
    void expire(std::uint64_t now);
};
