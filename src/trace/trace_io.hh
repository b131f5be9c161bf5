/**
 * @file
 * Plain-text serialization of task traces, so workloads can be
 * generated once and replayed, inspected, or diffed. The one parser
 * of the format: batch tools read files with readTrace/loadTrace,
 * and tss-serve reads Submit payloads with parseTraceText.
 *
 * Format (line oriented, whitespace-separated fields; blank lines and
 * lines starting with '#' are skipped):
 *   trace [<name>]
 *   kernel <id> <name>                      ids count up from 0
 *   task <kernel-id> <runtime-cycles> <num-operands>
 *   op <in|out|inout|scalar> <addr-hex> <bytes>
 *
 * Numbers are unsigned and must parse whole (addresses in hex without
 * a prefix, the rest in decimal). A task names a declared kernel and
 * is followed by exactly <num-operands> op lines; a line with missing
 * or extra fields is malformed.
 */

#ifndef TSS_TRACE_TRACE_IO_HH
#define TSS_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "trace/task_trace.hh"

namespace tss
{

/** Write @p trace to @p os in the text format. */
void writeTrace(std::ostream &os, const TaskTrace &trace);

/**
 * Parse @p text into @p out. On malformed input return false, leave
 * @p out untouched and, when @p error is non-null, describe the first
 * offending line ("line 3: task names undeclared kernel 3: ...").
 */
bool parseTraceText(std::string_view text, TaskTrace &out,
                    std::string *error = nullptr);

/**
 * Parse a trace from @p is.
 * @throws none; calls fatal() naming the offending line on malformed
 * input.
 */
TaskTrace readTrace(std::istream &is);

/** Convenience file wrappers. */
void saveTrace(const std::string &path, const TaskTrace &trace);
TaskTrace loadTrace(const std::string &path);

} // namespace tss

#endif // TSS_TRACE_TRACE_IO_HH
