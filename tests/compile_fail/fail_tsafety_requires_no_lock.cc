// Calling a MELLOW_REQUIRES(_mutex) function without holding the lock
// must be rejected by Clang's thread-safety analysis (-Wthread-safety
// as an error, as in the thread-safety preset). Only registered when
// the test compiler is Clang; elsewhere the annotations are no-ops.
#include "sim/sync.hh"

using namespace mellowsim;

class Tally
{
  public:
    void
    pump()
    {
        drainLocked(); // _mutex not held here
    }

  private:
    void drainLocked() MELLOW_REQUIRES(_mutex) { ++_drained; }

    sync::Mutex _mutex;
    unsigned long _drained MELLOW_GUARDED_BY(_mutex) = 0;
};

int
main()
{
    Tally s;
    s.pump();
    return 0;
}
