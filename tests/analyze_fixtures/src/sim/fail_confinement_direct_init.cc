// analyze-expect: confinement-global
// A direct-initialised namespace-scope global: `T name(args);` is a
// variable, not a function declaration, when every argument is a
// value. pass_control.cc holds the function-declaration controls.
#include <vector>

namespace
{

std::vector<int> g_pendingWays(4);

} // namespace
