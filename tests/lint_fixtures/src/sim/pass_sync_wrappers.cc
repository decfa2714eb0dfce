// mellow_lint fixture: the sanctioned spellings — the sync.hh
// wrappers — must stay clean under the same src/-scoped rules
// that reject the raw primitives next door. Without this control a
// blanket-matching regex could pass the WILL_FAIL sibling vacuously.
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
