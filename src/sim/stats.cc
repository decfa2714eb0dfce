#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace mellowsim
{
namespace stats
{

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values) {
        panic_if(v <= 0.0, "geoMean of non-positive value %f", v);
        acc += std::log(v);
    }
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace stats
} // namespace mellowsim
