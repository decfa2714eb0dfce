#include "cpu/core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mellowsim
{

TraceCore::TraceCore(EventQueue &eventq, const CoreConfig &config,
                     Workload &workload, Hierarchy &hierarchy)
    : _eventq(eventq), _config(config), _workload(workload),
      _hierarchy(hierarchy), _window(config.robSize)
{
    fatal_if(config.clockPeriod == 0, "core clock period must be > 0");
    fatal_if(config.issueWidth == 0, "core issue width must be >= 1");
    fatal_if(config.robSize == 0, "core ROB size must be >= 1");
    fatal_if(config.maxOutstanding == 0, "core needs >= 1 MSHR");
    _hierarchy.setRetryCallback([this] {
        if (_waitingRetry) {
            _waitingRetry = false;
            process();
        }
    });
}

void
TraceCore::start(std::uint64_t instrLimit)
{
    panic_if(_started, "core started twice");
    fatal_if(instrLimit == 0, "instruction limit must be positive");
    _started = true;
    _instrLimit = instrLimit;
    _eventq.scheduleIn(0, [this] { process(); });
}

double
TraceCore::ipc() const
{
    panic_if(!_done, "ipc() before the run finished");
    if (_finishTick == 0)
        return 0.0;
    double cycles = static_cast<double>(_finishTick) /
                    static_cast<double>(_config.clockPeriod);
    return static_cast<double>(_stats.instructions) / cycles;
}

void
TraceCore::advanceDispatch(std::uint64_t instructions)
{
    _subTicks += instructions * _config.clockPeriod;
    _dispatchTick += _subTicks / _config.issueWidth;
    _subTicks %= _config.issueWidth;
}

void
TraceCore::pruneRetired()
{
    while (!_window.empty()) {
        const LoadEntry &front = _window.front();
        if (front.complete == MaxTick || front.complete > _dispatchTick)
            break;
        _window.pop_front();
    }
}

void
TraceCore::onLoadComplete(std::uint64_t id)
{
    // A pending load never leaves the window (an id older than the
    // front wraps to a huge position). A load outside the window, or
    // one already complete, is unknown.
    std::uint64_t pos = _window.empty() ? 0 : id - _window.front().id;
    panic_if(pos >= _window.size() || _window.at(pos).complete != MaxTick,
             "completion for unknown load");
    _window.at(pos).complete = _eventq.curTick();
    --_pendingLoads;
    if (id == _lastLoadId) {
        _lastLoadPending = false;
        _lastLoadComplete = _eventq.curTick();
    }
    resume();
}

void
TraceCore::onStoreComplete()
{
    panic_if(_pendingStores == 0, "store completion underflow");
    --_pendingStores;
    resume();
}

void
TraceCore::resume()
{
    if (_waitingCompletion) {
        _waitingCompletion = false;
        process();
    }
}

void
TraceCore::process()
{
    while (!_done) {
        if (!_currentOpValid) {
            _currentOp = _workload.next();
            _currentOpValid = true;
            _gapAccounted = false;
        }
        if (!_gapAccounted) {
            advanceDispatch(_currentOp.gap + 1);
            _seq += _currentOp.gap + 1;
            _gapAccounted = true;
        }

        // Reorder-buffer limit: the oldest unfinished load must be
        // within robSize instructions of the dispatch point.
        pruneRetired();
        while (!_window.empty() &&
               _seq - _window.front().seq >= _config.robSize) {
            const LoadEntry &front = _window.front();
            if (front.complete == MaxTick) {
                ++_stats.robStalls;
                _waitingCompletion = true;
                return;
            }
            _dispatchTick = std::max(_dispatchTick, front.complete);
            _window.pop_front();
        }

        // Dependence: a chasing *load* cannot even compute its address
        // before the previous load returns, so it stalls dispatch.
        // A dependent store (the RMW write half) does not: the OoO
        // core runs ahead while the store waits in the store buffer,
        // and the cache model's MSHR merge applies the dirtying to
        // the same fill, so no dispatch stall is modelled.
        if (_currentOp.dependsOnPrev && !_currentOp.isWrite) {
            if (_lastLoadPending) {
                ++_stats.depStalls;
                _waitingCompletion = true;
                return;
            }
            _dispatchTick = std::max(_dispatchTick, _lastLoadComplete);
        }

        // Miss-level parallelism limit.
        if (_pendingLoads + _pendingStores >=
            _config.maxOutstanding) {
            ++_stats.mshrStalls;
            _waitingCompletion = true;
            return;
        }

        // Never issue into the hierarchy ahead of simulated time.
        Tick now = _eventq.curTick();
        if (_dispatchTick > now) {
            _eventq.schedule(_dispatchTick, [this] { process(); });
            return;
        }

        // Issue the memory operation.
        ++_stats.memOps;
        if (_currentOp.isWrite) {
            ++_stats.stores;
            // A workload op enters the logical address space here.
            AccessTicket t = _hierarchy.access(
                LogicalAddr(_currentOp.addr), true,
                [this] { onStoreComplete(); });
            if (t.outcome == AccessOutcome::Blocked) {
                _waitingRetry = true;
                return; // retry the same op when poked
            }
            if (t.outcome == AccessOutcome::Miss)
                ++_pendingStores;
            // Hits retire through the store buffer: no tracking.
        } else {
            ++_stats.loads;
            std::uint64_t id = _nextLoadId++;
            AccessTicket t = _hierarchy.access(
                LogicalAddr(_currentOp.addr), false,
                [this, id] { onLoadComplete(id); });
            if (t.outcome == AccessOutcome::Blocked) {
                --_nextLoadId;
                _waitingRetry = true;
                return;
            }
            LoadEntry entry;
            entry.id = id;
            entry.seq = _seq;
            entry.complete = t.outcome == AccessOutcome::Hit
                                 ? now + t.latency
                                 : MaxTick;
            _window.push_back(entry);
            _lastLoadId = id;
            if (t.outcome == AccessOutcome::Hit) {
                _lastLoadPending = false;
                _lastLoadComplete = entry.complete;
            } else {
                _lastLoadPending = true;
                ++_pendingLoads;
            }
        }
        _currentOpValid = false;

        if (_seq >= _instrLimit) {
            _done = true;
            _finishTick = std::max(_dispatchTick, now);
            _stats.instructions = _seq;
        }
    }
}

} // namespace mellowsim
