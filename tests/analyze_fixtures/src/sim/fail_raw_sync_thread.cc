// analyze-expect: raw-sync
// A worker spawned on a raw std::thread instead of through
// sync::ThreadGroup: the confinement analysis cannot see which state
// it shares with its parent.
#include <thread>

void
runInBackground(void (*work)())
{
    std::thread worker(work);
    worker.join();
}
