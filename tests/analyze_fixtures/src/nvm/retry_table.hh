// Helper header for fail_nondeterminism_header.cc: the unordered
// container is declared here, not in the file that iterates it.
#pragma once

#include <cstdint>
#include <unordered_map>

class RetryTable
{
  public:
    std::uint64_t oldestRetry();

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> _pending;
};
