// analyze-expect: none
// Every enqueue here ends the path that reaches it: a branch that
// hands the request off and returns (on one line or several), and a
// loop left by break right after the hand-off. The writes and reads
// after those branches only run while the request is still here.
#include "nvm/queues.hh"

void recordStashedLine(LineIndex line);

void
parkOrReset(RequestQueue &queue, MemRequest req, bool park)
{
    if (park) { queue.push(std::move(req)); return; }
    req.addr = LogicalAddr(0);
}

void
parkOrRecord(RequestQueue &queue, MemRequest req, bool park)
{
    if (park) {
        queue.pushFront(std::move(req));
        return;
    } else if (req.bank == BankId(0)) {
        recordStashedLine(req.line);
    }
    recordStashedLine(req.line);
}

void
parkWhenFree(RequestQueue &queue, MemRequest req, int tries)
{
    for (int i = 0; i < tries; ++i) {
        recordStashedLine(req.line);
        if (i + 1 == tries) {
            queue.push(std::move(req));
            break;
        }
    }
}
