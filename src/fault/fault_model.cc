#include "fault/fault_model.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace mellowsim
{

namespace
{

/** Draw-index salts keeping the per-line hash streams disjoint. */
constexpr std::uint64_t kEnduranceSalt = 0xE14D;
constexpr std::uint64_t kTransientSalt = 0x7247;

constexpr double kTwoPi = 6.283185307179586476925286766559;

} // namespace

FaultModel::FaultModel(const FaultConfig &config)
    : _config(config), _delegates(config.numBanks, nullptr),
      _sparesUsed(config.numBanks, 0), _bankRetries(config.numBanks, 0)
{
    fatal_if(config.numBanks == 0, "fault model needs >= 1 bank");
    fatal_if(config.blocksPerBank == 0,
             "fault model needs >= 1 block per bank");
    fatal_if(config.enduranceSigma < 0.0,
             "endurance sigma must be >= 0 (got %f)",
             config.enduranceSigma);
    fatal_if(config.enduranceScale <= 0.0,
             "endurance scale must be positive (got %f)",
             config.enduranceScale);
    fatal_if(config.transientFailProb < 0.0 ||
                 config.transientFailProb >= 1.0,
             "transient failure probability must be in [0, 1) (got %f)",
             config.transientFailProb);
    fatal_if(config.retrySlowFactor < 1.0,
             "retry slow factor must be >= 1.0 (got %f)",
             config.retrySlowFactor);
}

std::uint64_t
FaultModel::lineKey(BankId bank, DeviceAddr line) const
{
    // Lines per bank including the spare pool; keys never collide
    // across banks.
    std::uint64_t stride =
        _config.blocksPerBank + _config.spareLinesPerBank;
    panic_if(line.value() >= stride,
             "line %llu out of range (stride %llu)",
             static_cast<unsigned long long>(line.value()),
             static_cast<unsigned long long>(stride));
    return static_cast<std::uint64_t>(bank.value()) * stride +
           line.value();
}

double
FaultModel::hashUniform(std::uint64_t key, std::uint64_t draw,
                        std::uint64_t salt) const
{
    // A fresh xorshift128+ seeded from the hash: splitmix64 inside
    // the Rng constructor provides the avalanche; one draw is enough.
    Rng rng(_config.seed ^ (key * 0x9E3779B97F4A7C15ull) ^
            (draw * 0xC2B2AE3D27D4EB4Full) ^
            (salt * 0x165667B19E3779F9ull));
    return rng.nextDouble();
}

double
FaultModel::drawEndurance(std::uint64_t key, std::uint64_t draw) const
{
    if (_config.enduranceSigma == 0.0)
        return _config.enduranceScale;
    // Box-Muller on two hash uniforms -> standard normal -> lognormal
    // factor with median 1.
    double u1 = hashUniform(key, draw, kEnduranceSalt);
    double u2 = hashUniform(key, draw + 1, kEnduranceSalt);
    u1 = std::max(u1, 1e-12); // log(0) guard
    double n = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(kTwoPi * u2);
    return _config.enduranceScale *
           std::exp(_config.enduranceSigma * n);
}

FaultModel::LineState &
FaultModel::touch(BankId bank, DeviceAddr line)
{
    std::uint64_t key = lineKey(bank, line);
    auto [it, inserted] = _lines.try_emplace(key);
    if (inserted) {
        it->second.endurance = drawEndurance(key, 0);
        ++_stats.linesTouched;
    }
    return it->second;
}

DeviceAddr
FaultModel::remap(BankId bank, LeveledAddr block) const
{
    // Follow the retirement chain; each hop was remapped to a freshly
    // allocated spare, so the chain is acyclic by construction.
    std::uint64_t stride =
        _config.blocksPerBank + _config.spareLinesPerBank;
    std::uint64_t cur = block.value();
    std::uint64_t key =
        static_cast<std::uint64_t>(bank.value()) * stride + cur;
    for (auto it = _remap.find(key); it != _remap.end();
         it = _remap.find(key)) {
        cur = it->second;
        key = static_cast<std::uint64_t>(bank.value()) * stride + cur;
    }
    return DeviceAddr(cur);
}

void
FaultModel::setRemapDelegate(BankId bank, FaultRemapDelegate *delegate)
{
    _delegates[bank] = delegate;
}

void
FaultModel::noteWriteIssued(BankId bank, DeviceAddr line)
{
    auto it = _lines.find(lineKey(bank, line));
    if (it != _lines.end() && it->second.retired)
        ++_writesToRetiredLines;
}

WriteVerdict
FaultModel::escalate(BankId bank, DeviceAddr line,
                     LineState &state, Tick now)
{
    // Retired lines must never see traffic (the controller remaps at
    // issue); reaching here would double-retire and corrupt the
    // indirection table, so fail fast instead.
    // mlint: allow(value-escape): panic-message formatting.
    panic_if(state.retired,
             "escalating a fault on already-retired line %llu of "
             "bank %u",
             static_cast<unsigned long long>(line.value()),
             bank.value());
    ++_stats.permanentFaults;
    if (_stats.firstFaultTick == 0)
        _stats.firstFaultTick = now;

    if (state.repairsUsed < _config.repairEntriesPerLine) {
        // ECP: route the stuck cell to a replacement cell. The line
        // continues with the replacement's own endurance draw added
        // on top of the exhausted budget.
        ++state.repairsUsed;
        ++_stats.repairsUsed;
        _maxRepairsOnLine =
            std::max<std::uint64_t>(_maxRepairsOnLine,
                                    state.repairsUsed);
        state.endurance +=
            drawEndurance(lineKey(bank, line), state.repairsUsed + 1);
        return WriteVerdict::Ok;
    }

    if (FaultRemapDelegate *delegate = _delegates[bank];
        delegate != nullptr) {
        // Unified remap path: the leveler's programmable decoder owns
        // the indirection; it reroutes the block's logical occupant
        // to one of its own spare slots (or reports exhaustion, which
        // falls through to the uncorrectable branch below).
        // mlint: allow(value-escape): the delegate seam is raw block
        // numbers by contract (see FaultRemapDelegate).
        if (auto spare = delegate->retirePhysical(line.value())) {
            state.retired = true;
            ++_stats.retiredLines;
            ++_delegateRetiredLines;
            ++_sparesUsed[bank];
            // Fresh endurance draw for the spare.
            touch(bank, DeviceAddr(*spare));
            _capacityTrace.push_back(
                {now, _stats.retiredLines, _stats.deadLines});
            return WriteVerdict::Retired;
        }
    } else if (_sparesUsed[bank] < _config.spareLinesPerBank) {
        // Retire the line; all future traffic is redirected to a
        // fresh bank-local spare through the indirection table.
        state.retired = true;
        ++_stats.retiredLines;
        std::uint64_t spare =
            _config.blocksPerBank + _sparesUsed[bank]++;
        _remap[lineKey(bank, line)] = spare;
        // Fresh endurance draw for the spare.
        touch(bank, DeviceAddr(spare));
        _capacityTrace.push_back(
            {now, _stats.retiredLines, _stats.deadLines});
        return WriteVerdict::Retired;
    }

    // Out of spares: the line can no longer store data reliably but
    // stays in service so the simulation degrades instead of dying.
    state.dead = true;
    ++_stats.deadLines;
    if (_stats.firstUncorrectableTick == 0)
        _stats.firstUncorrectableTick = now;
    _capacityTrace.push_back(
        {now, _stats.retiredLines, _stats.deadLines});
    return WriteVerdict::Uncorrectable;
}

WriteVerdict
FaultModel::verifyWrite(BankId bankId, DeviceAddr deviceLine,
                        double wearUnits, PulseFactor pulseFactor,
                        unsigned retriesSoFar, Tick now)
{
    const BankId bank = bankId;
    const DeviceAddr line = deviceLine;
    LineState &state = touch(bank, line);
    if (state.dead) {
        // Already uncorrectable; count degraded-mode traffic but stop
        // escalating (the data loss was recorded once).
        ++_stats.writesToDeadLines;
        ++state.writes;
        state.wear += wearUnits;
        return WriteVerdict::Ok;
    }

    state.wear += wearUnits;
    ++state.writes;

    if (_config.transientFailProb > 0.0) {
        // PulseFactor is >= 1 by construction, so dividing by it only
        // ever shrinks the failure probability.
        double p = _config.transientFailProb / pulseFactor;
        if (hashUniform(lineKey(bank, line), state.writes,
                        kTransientSalt) < p) {
            ++_stats.transientFailures;
            if (retriesSoFar < _config.maxRetries) {
                ++_stats.retriesRequested;
                ++_bankRetries[bank];
                return WriteVerdict::Retry;
            }
            // Retries exhausted: the cell would not switch even with
            // the slowest pulse — treat it as permanently stuck.
            return escalate(bank, line, state, now);
        }
    }

    if (state.wear >= state.endurance)
        return escalate(bank, line, state, now);
    return WriteVerdict::Ok;
}

void
FaultModel::noteMaintenanceWrite(BankId bank, DeviceAddr line,
                                 double wearUnits, Tick now)
{
    LineState &state = touch(bank, line);
    ++state.writes;
    state.wear += wearUnits;
    if (state.dead) {
        // Already uncorrectable; count degraded-mode traffic but stop
        // escalating (the data loss was recorded once).
        ++_stats.writesToDeadLines;
        return;
    }
    // No verification/retry stage: a migration copy that lands on a
    // worn-out cell escalates straight to repair/retire/dead, and the
    // verdict has no requester to flow back to.
    if (state.wear >= state.endurance)
        (void)escalate(bank, line, state, now);
}

double
FaultModel::lineEndurance(BankId bank, DeviceAddr line)
{
    return touch(bank, line).endurance;
}

bool
FaultModel::lineRetired(BankId bank, DeviceAddr line) const
{
    auto it = _lines.find(lineKey(bank, line));
    return it != _lines.end() && it->second.retired;
}

std::uint64_t
FaultModel::sparesUsed(BankId bank) const
{
    return _sparesUsed[bank];
}

std::uint64_t
FaultModel::retriesForBank(BankId bank) const
{
    return _bankRetries[bank];
}

double
FaultModel::effectiveCapacityFraction() const
{
    double total = static_cast<double>(_config.numBanks) *
                   static_cast<double>(_config.blocksPerBank);
    return 1.0 - static_cast<double>(_stats.deadLines) / total;
}

bool
FaultModel::remapTableValid() const
{
    std::uint64_t stride =
        _config.blocksPerBank + _config.spareLinesPerBank;
    std::unordered_set<std::uint64_t> targets;
    // mlint: allow(nondeterminism): order-independent validity check
    // over the remap table; every path through it returns the same
    // verdict regardless of iteration order.
    for (const auto &[key, spare] : _remap) {
        unsigned bank = static_cast<unsigned>(key / stride);
        // Targets must be distinct spare slots of the same bank.
        if (spare < _config.blocksPerBank ||
            spare >= _config.blocksPerBank + _config.spareLinesPerBank)
            return false;
        std::uint64_t target_key =
            static_cast<std::uint64_t>(bank) * stride + spare;
        if (!targets.insert(target_key).second)
            return false;
        // Every source must actually be retired.
        auto it = _lines.find(key);
        if (it == _lines.end() || !it->second.retired)
            return false;
    }
    // Unified-remap banks keep the stacked table empty; their own
    // decoder must stay bijective instead.
    for (const FaultRemapDelegate *delegate : _delegates) {
        if (delegate != nullptr && !delegate->remapValid())
            return false;
    }
    return true;
}

std::uint64_t
FaultModel::maxSparesUsed() const
{
    std::uint64_t m = 0;
    for (std::uint64_t used : _sparesUsed)
        m = std::max(m, used);
    return m;
}

} // namespace mellowsim
