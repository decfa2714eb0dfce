#include "nvm/memory_system.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

/**
 * The controller configuration channel @p c gets: capacity split
 * evenly, fault seed perturbed so channels never share weak-line
 * draws.
 */
MemControllerConfig
perChannelConfig(const MemControllerConfig &channel, unsigned numChannels,
                 unsigned c)
{
    MemControllerConfig per_channel = channel;
    per_channel.geometry.capacityBytes =
        channel.geometry.capacityBytes / numChannels;
    // Channels must not share weak-line draws.
    per_channel.fault.seed +=
        0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(c);
    return per_channel;
}

} // namespace

MemorySystem::MemorySystem(EventQueue &eventq,
                           const MemorySystemConfig &config)
    : _config(config),
      _interleave(config.channel.geometry, config.numChannels)
{
    for (unsigned c = 0; c < config.numChannels; ++c) {
        _channels.push_back(std::make_unique<MemoryController>(
            eventq,
            perChannelConfig(config.channel, config.numChannels, c)));
    }
    if (config.channel.fault.capacityFloorFraction > 0.0) {
        for (const auto &c : _channels)
            _hasCapacityFloor |= c->faultModel() != nullptr;
    }
}

void
MemorySystem::read(LogicalAddr addr, ReadCallback onComplete)
{
    _channels[channelOf(addr)]->read(localAddr(addr),
                                     std::move(onComplete));
}

void
MemorySystem::writeback(LogicalAddr addr)
{
    _channels[channelOf(addr)]->writeback(localAddr(addr));
}

bool
MemorySystem::eagerWrite(LogicalAddr addr)
{
    return _channels[channelOf(addr)]->eagerWrite(localAddr(addr));
}

bool
MemorySystem::eagerQueueHasSpace() const
{
    for (const auto &c : _channels) {
        if (c->eagerQueueHasSpace())
            return true;
    }
    return false;
}

MemoryController &
MemorySystem::channel(ChannelId idx)
{
    return *_channels[idx];
}

const MemoryController &
MemorySystem::channel(ChannelId idx) const
{
    return *_channels[idx];
}

void
MemorySystem::finalize()
{
    for (auto &c : _channels)
        c->finalize();
}

double
MemorySystem::lifetimeYears(Tick simTime) const
{
    double min_years = std::numeric_limits<double>::infinity();
    for (const auto &c : _channels) {
        min_years = std::min(min_years,
                             c->wearTracker().lifetimeYears(simTime));
    }
    return min_years;
}

double
MemorySystem::effectiveCapacityFraction() const
{
    double min_frac = 1.0;
    for (const auto &c : _channels) {
        if (const FaultModel *fm = c->faultModel())
            min_frac =
                std::min(min_frac, fm->effectiveCapacityFraction());
    }
    return min_frac;
}

bool
MemorySystem::capacityFloorReached() const
{
    if (!_hasCapacityFloor)
        return false;
    const double floor = _config.channel.fault.capacityFloorFraction;
    for (const auto &c : _channels) {
        const FaultModel *fm = c->faultModel();
        if (fm != nullptr && fm->effectiveCapacityFraction() <= floor)
            return true;
    }
    return false;
}

double
MemorySystem::avgBankUtilization() const
{
    double sum = 0.0;
    for (const auto &c : _channels)
        sum += c->avgBankUtilization();
    return sum / static_cast<double>(_channels.size());
}

double
MemorySystem::drainTimeFraction() const
{
    double sum = 0.0;
    for (const auto &c : _channels)
        sum += c->drainTimeFraction();
    return sum / static_cast<double>(_channels.size());
}

} // namespace mellowsim
