#include "protocol.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <unistd.h>

namespace tss::serve
{

namespace
{

bool
readFull(int fd, void *buf, std::size_t len)
{
    auto *p = static_cast<char *>(buf);
    while (len > 0) {
        ssize_t n = ::read(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFull(int fd, const void *buf, std::size_t len)
{
    const auto *p = static_cast<const char *>(buf);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool
readFrame(int fd, Frame &frame, std::uint32_t max_payload)
{
    unsigned char header[5];
    if (!readFull(fd, header, sizeof(header)))
        return false;
    std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
        static_cast<std::uint32_t>(header[1]) << 8 |
        static_cast<std::uint32_t>(header[2]) << 16 |
        static_cast<std::uint32_t>(header[3]) << 24;
    if (len > max_payload)
        return false;
    frame.type = static_cast<MsgType>(header[4]);
    frame.payload.resize(len);
    return len == 0 || readFull(fd, frame.payload.data(), len);
}

bool
writeFrame(int fd, const Frame &frame)
{
    auto len = static_cast<std::uint32_t>(frame.payload.size());
    unsigned char header[5] = {
        static_cast<unsigned char>(len & 0xff),
        static_cast<unsigned char>(len >> 8 & 0xff),
        static_cast<unsigned char>(len >> 16 & 0xff),
        static_cast<unsigned char>(len >> 24 & 0xff),
        static_cast<unsigned char>(frame.type),
    };
    return writeFull(fd, header, sizeof(header)) &&
        (len == 0 ||
         writeFull(fd, frame.payload.data(), frame.payload.size()));
}

std::string
formatTraceText(const TaskTrace &trace)
{
    std::ostringstream os;
    writeTrace(os, trace);
    return os.str();
}

} // namespace tss::serve
