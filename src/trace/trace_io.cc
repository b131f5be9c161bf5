#include "trace_io.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "sim/logging.hh"

namespace tss
{

namespace
{

/** The fields of one line; a full array means "too many". */
using Fields = std::array<std::string_view, 5>;

/** Split @p line at blanks into @p f; returns the fields stored. */
std::size_t
splitFields(std::string_view line, Fields &f)
{
    constexpr std::string_view blanks = " \t\r";
    std::size_t n = 0;
    std::size_t begin = line.find_first_not_of(blanks);
    while (begin != std::string_view::npos && n < f.size()) {
        std::size_t end =
            std::min(line.find_first_of(blanks, begin), line.size());
        f[n++] = line.substr(begin, end - begin);
        begin = line.find_first_not_of(blanks, end);
    }
    return n;
}

/** Parse all of @p s as an unsigned number in @p base. */
template <typename T>
bool
parseNumber(std::string_view s, T &out, int base = 10)
{
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, out, base);
    return ec == std::errc() && ptr == end;
}

bool
dirFromName(std::string_view s, Dir &out)
{
    for (Dir d : {Dir::In, Dir::Out, Dir::InOut, Dir::Scalar}) {
        if (s == dirName(d)) {
            out = d;
            return true;
        }
    }
    return false;
}

} // namespace

void
writeTrace(std::ostream &os, const TaskTrace &trace)
{
    os << "trace " << trace.name << "\n";
    for (std::size_t k = 0; k < trace.kernelNames.size(); ++k)
        os << "kernel " << k << " " << trace.kernelNames[k] << "\n";
    for (const auto &task : trace.tasks) {
        os << "task " << task.kernel << " " << task.runtime << " "
           << task.operands.size() << "\n";
        for (const auto &op : task.operands) {
            os << "op " << dirName(op.dir) << " " << std::hex
               << op.addr << std::dec << " " << op.bytes << "\n";
        }
    }
}

bool
parseTraceText(std::string_view text, TaskTrace &out, std::string *error)
{
    TaskTrace trace;
    std::size_t line_no = 0;
    std::string_view line;
    // The task whose op lines are still due, and how many are.
    std::size_t task_line_no = 0;
    std::string_view task_line;
    std::uint64_t ops_due = 0;

    auto fail = [&](const std::string &why) {
        if (error) {
            *error = "line " + std::to_string(line_no) + ": " + why +
                ": '" + std::string(line) + "'";
        }
        return false;
    };

    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t eol = std::min(text.find('\n', pos), text.size());
        line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++line_no;
        Fields f;
        std::size_t n = splitFields(line, f);
        if (n == 0 || f[0][0] == '#')
            continue;
        std::string_view tag = f[0];
        if (ops_due > 0 && tag != "op") {
            return fail("expected " + std::to_string(ops_due) +
                        " more op line(s) for the task at line " +
                        std::to_string(task_line_no));
        }
        if (tag == "op") {
            TraceOperand op;
            if (ops_due == 0)
                return fail("op line outside a task's operand list");
            if (n != 4 || !dirFromName(f[1], op.dir) ||
                !parseNumber(f[2], op.addr, 16) ||
                !parseNumber(f[3], op.bytes)) {
                return fail("expected 'op <in|out|inout|scalar> "
                            "<addr-hex> <bytes>'");
            }
            trace.tasks.back().operands.push_back(op);
            --ops_due;
        } else if (tag == "task") {
            TraceTask task;
            if (n != 4 || !parseNumber(f[1], task.kernel) ||
                !parseNumber(f[2], task.runtime) ||
                !parseNumber(f[3], ops_due)) {
                return fail("expected 'task <kernel-id> "
                            "<runtime-cycles> <num-operands>'");
            }
            if (task.kernel >= trace.kernelNames.size()) {
                return fail("task names undeclared kernel " +
                            std::to_string(task.kernel));
            }
            // The count is outside input: reserve at most what the
            // TRS layout holds (19), so a huge count fails on its
            // missing op lines instead of in the allocator.
            task.operands.reserve(std::min<std::uint64_t>(ops_due, 19));
            trace.tasks.push_back(std::move(task));
            task_line_no = line_no;
            task_line = line;
        } else if (tag == "kernel") {
            std::size_t id = 0;
            if (n != 3 || !parseNumber(f[1], id))
                return fail("expected 'kernel <id> <name>'");
            if (id != trace.kernelNames.size()) {
                return fail("kernel id " + std::to_string(id) +
                            " out of sequence, expected " +
                            std::to_string(trace.kernelNames.size()));
            }
            trace.kernelNames.emplace_back(f[2]);
        } else if (tag == "trace") {
            if (n > 2)
                return fail("expected 'trace [<name>]'");
            trace.name = n == 2 ? std::string(f[1]) : std::string();
        } else {
            return fail("unknown tag '" + std::string(tag) + "'");
        }
    }
    if (ops_due > 0) {
        line_no = task_line_no;
        line = task_line;
        return fail("trace ends " + std::to_string(ops_due) +
                    " op line(s) short of this task");
    }
    out = std::move(trace);
    return true;
}

TaskTrace
readTrace(std::istream &is)
{
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    TaskTrace trace;
    std::string error;
    if (!parseTraceText(text, trace, &error))
        fatal("malformed trace, %s", error.c_str());
    return trace;
}

void
saveTrace(const std::string &path, const TaskTrace &trace)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    writeTrace(os, trace);
}

TaskTrace
loadTrace(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s' for reading", path.c_str());
    return readTrace(is);
}

} // namespace tss
