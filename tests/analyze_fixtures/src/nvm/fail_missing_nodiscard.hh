// analyze-expect: missing-nodiscard
// A const accessor in a converted module's header whose result can be
// dropped silently.
#pragma once

class WriteCounter
{
  public:
    unsigned count() const { return _count; }

  private:
    unsigned _count = 0;
};
