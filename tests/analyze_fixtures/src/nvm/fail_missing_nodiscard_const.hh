// analyze-expect: missing-nodiscard
// One-line const accessors whose return type starts with `const`
// (or a specifier before it) drop their result silently too.
#pragma once

#include <vector>

class RetryBook
{
  public:
    const int &limit() const;
    const std::vector<int> &delays() const { return _delays; }
    static const RetryBook &shared() const;

  private:
    std::vector<int> _delays;
};
