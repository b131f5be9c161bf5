#include "logging.hh"

#include <cstdio>
#include <cstdlib>

namespace tss
{

namespace
{

void
vreport(const char *prefix, const char *fmt, va_list args)
{
    std::fprintf(stderr, "%s: ", prefix);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
panicAssert(const char *cond, const char *file, int line,
            const char *fmt, ...)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d",
                 cond, file, line);
    if (fmt && fmt[0] != '\0') {
        std::fprintf(stderr, ": ");
        va_list args;
        va_start(args, fmt);
        std::vfprintf(stderr, fmt, args);
        va_end(args);
    }
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

} // namespace tss
