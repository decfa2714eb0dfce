// analyze-expect: none
// The sanctioned spellings, the sync.hh wrappers, must stay clean
// under the raw-sync rule that rejects the raw primitives next door.
// Without this control a blanket-matching regex could pass the
// fail_raw_sync_* fixtures vacuously.
#include "sim/sync.hh"

namespace
{

mellowsim::sync::Mutex g_tableMutex;

} // namespace

void
touchTable()
{
    mellowsim::sync::LockGuard guard(g_tableMutex);
}

void
drainWorkers(mellowsim::sync::ThreadGroup &workers,
             mellowsim::sync::TicketCounter &next)
{
    (void)next.take();
    workers.joinAll();
}
