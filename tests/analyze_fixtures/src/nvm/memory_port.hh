// Fixture seam header: the blessed cache -> memory-system port
// (mirrors src/nvm/memory_port.hh; analyzed textually, never
// compiled).
#pragma once

#include "nvm/queues.hh"

class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;
    virtual bool writeback(MemRequest req) = 0;
    [[nodiscard]] virtual bool eagerQueueHasSpace() const = 0;
};
