#include "exec_context.hh"

namespace tss
{

constinit thread_local ExecContext execCtx;

} // namespace tss
