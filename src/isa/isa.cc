#include "isa/isa.hh"

#include "common/logging.hh"

namespace slip
{

void
detail::badOpcode(size_t idx)
{
    SLIP_PANIC("bad opcode ", idx);
}

} // namespace slip
