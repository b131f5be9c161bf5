/**
 * @file
 * The tss-serve wire protocol: length-prefixed frames over a local
 * stream socket.
 *
 * Frame layout (little-endian):
 *
 *     u32 payload length | u8 type | payload bytes
 *
 * Client -> server:
 *   Hello    payload = tenant name; opens (or reuses) a tenant
 *   Submit   payload = task program in the trace text format
 *            (trace/trace_io.hh) — the same format saveTrace writes,
 *            so captured workloads replay against the server as-is
 *   Stats    empty; asks for a StatsReport
 *   Shutdown empty; asks the server to drain and exit
 *   Trace    empty; asks for the tenant's most recent job trace
 *            (requires --job-traces on the daemon)
 *
 * Server -> client:
 *   HelloOk  payload = "<tenant-id> <carve-base> <carve-end>"
 *   Accepted payload = "<job-id>"
 *   Busy     empty; admission queue full — backpressure, retry
 *   Error    payload = human-readable reason (bad frame, bad tenant)
 *   Done     empty; drain finished (answer to Shutdown)
 *   Report   payload = ServiceReport JSON (answer to Stats)
 *   TraceData payload = Chrome trace-event JSON of the tenant's most
 *            recently completed job, with wall-clock serve-stage
 *            slices spliced in (answer to Trace)
 *
 * A Submit is answered Accepted before it is parsed: the service's
 * parse stage runs trace_io's non-fatal parseTraceText later, and a
 * malformed program is rejected there, never by fatal() — a
 * misbehaving tenant must not take the daemon down. The rejection
 * counts in the tenant's `rejected_parse`, and the Report carries
 * the parser's line-numbered reason as `last_parse_error`. Error
 * answers only frames the server cannot act on (bad frame, bad
 * tenant).
 */

#ifndef TSS_SERVE_PROTOCOL_HH
#define TSS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "trace/task_trace.hh"
#include "trace/trace_io.hh"

namespace tss::serve
{

enum class MsgType : std::uint8_t {
    // client -> server
    Hello = 1,
    Submit = 2,
    Stats = 3,
    Shutdown = 4,
    Trace = 5,
    // server -> client
    HelloOk = 64,
    Accepted = 65,
    Busy = 66,
    Error = 67,
    Done = 68,
    Report = 69,
    TraceData = 70,
};

struct Frame
{
    MsgType type = MsgType::Error;
    std::string payload;
};

/**
 * Read one frame from @p fd (blocking, restarts on EINTR). False on
 * EOF or a malformed prefix; the connection should then be dropped.
 * Payloads above @p max_payload (default 64 MiB) are rejected rather
 * than allocated.
 */
bool readFrame(int fd, Frame &frame,
               std::uint32_t max_payload = 64u << 20);

/** Write one frame to @p fd; false on any write error. */
bool writeFrame(int fd, const Frame &frame);

/**
 * Parse a Submit payload: trace_io's parser, which returns false on
 * malformed input instead of calling fatal() — servers reject, they
 * do not die.
 */
using tss::parseTraceText;

/** Serialize @p trace to the Submit payload text. */
std::string formatTraceText(const TaskTrace &trace);

} // namespace tss::serve

#endif // TSS_SERVE_PROTOCOL_HH
