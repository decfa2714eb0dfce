// analyze-expect: request-lifetime
// The loop body reads the request before the enqueue, so the next
// iteration reads it after an earlier one moved it into the queue.
#include "nvm/queues.hh"

void recordStashedLine(LineIndex line);

void
stashEach(RequestQueue &queue, MemRequest req, int copies)
{
    for (int i = 0; i < copies; ++i) {
        recordStashedLine(req.line);
        queue.push(std::move(req));
    }
}
