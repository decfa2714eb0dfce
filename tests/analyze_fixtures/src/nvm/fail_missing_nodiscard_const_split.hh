// analyze-expect: missing-nodiscard
// The gem5-style split declaration of a const accessor whose return
// type starts with `const`.
#pragma once

#include <string>

class RetryLog
{
  public:
    const std::string &
    lastReason() const;
};
