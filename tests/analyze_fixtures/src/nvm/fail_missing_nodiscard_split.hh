// analyze-expect: missing-nodiscard
// The gem5-style split declaration: the return type alone on the line
// above the accessor's name.
#pragma once

#include <string>

class WriteLog
{
  public:
    std::string
    summary() const;
};
