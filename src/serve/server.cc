#include "server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "sim/logging.hh"

namespace tss::serve
{

SocketServer::SocketServer(TraceService &svc, std::string socket_path)
    : service(svc), socketPath(std::move(socket_path))
{}

SocketServer::~SocketServer()
{
    stop();
}

bool
SocketServer::start()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        warn("tss-serve: socket path '%s' too long",
             socketPath.c_str());
        return false;
    }
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        warn("tss-serve: socket(): %s", std::strerror(errno));
        return false;
    }
    ::unlink(socketPath.c_str()); // stale socket from a dead server
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listenFd, 16) < 0) {
        warn("tss-serve: bind/listen on '%s': %s", socketPath.c_str(),
             std::strerror(errno));
        ::close(listenFd);
        listenFd = -1;
        return false;
    }
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
SocketServer::acceptLoop()
{
    // Read the listener once: stop() resets listenFd concurrently,
    // and closing the socket is what unblocks accept().
    const int listener = listenFd;
    for (;;) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed by stop()
        }
        std::list<Connection> finished;
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (stopping) {
                ::close(fd);
                return;
            }
            // Reap the connections that ended since the last accept,
            // so a long-running daemon holds no thread per past
            // client.
            for (auto it = connections.begin(); it != connections.end();) {
                auto next = std::next(it);
                if (it->fd < 0)
                    finished.splice(finished.end(), connections, it);
                it = next;
            }
            Connection &conn = connections.emplace_back();
            conn.fd = fd;
            conn.handler =
                std::thread([this, &conn] { serveConnection(conn); });
        }
        for (Connection &done : finished)
            done.handler.join();
    }
}

void
SocketServer::closeConnection(Connection &conn)
{
    int fd;
    {
        std::lock_guard<std::mutex> lock(mtx);
        fd = conn.fd;
        conn.fd = -1;
    }
    ::close(fd);
}

std::size_t
SocketServer::liveConnections() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return static_cast<std::size_t>(
        std::count_if(connections.begin(), connections.end(),
                      [](const Connection &c) { return c.fd >= 0; }));
}

std::size_t
SocketServer::heldHandlers() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return connections.size();
}

void
SocketServer::serveConnection(Connection &conn)
{
    // Only this handler resets conn.fd, so it may read it unlocked.
    const int fd = conn.fd;
    bool have_tenant = false;
    TenantId tenant = 0;

    Frame frame;
    while (readFrame(fd, frame)) {
        Frame reply;
        switch (frame.type) {
        case MsgType::Hello: {
            tenant = service.openTenant(
                frame.payload.empty() ? "anonymous" : frame.payload);
            have_tenant = true;
            std::ostringstream os;
            os << tenant << " " << service.carveBaseOf(tenant) << " "
               << service.carveEndOf(tenant);
            reply = {MsgType::HelloOk, os.str()};
            break;
        }
        case MsgType::Submit: {
            if (!have_tenant) {
                reply = {MsgType::Error, "Submit before Hello"};
                break;
            }
            SubmitResult r =
                service.submitText(tenant, std::move(frame.payload));
            switch (r.status) {
            case SubmitStatus::Accepted:
                reply = {MsgType::Accepted, std::to_string(r.job)};
                break;
            case SubmitStatus::Busy:
                reply = {MsgType::Busy, ""};
                break;
            case SubmitStatus::Closed:
                reply = {MsgType::Error, "service is draining"};
                break;
            case SubmitStatus::Invalid:
                reply = {MsgType::Error, "unknown tenant"};
                break;
            }
            break;
        }
        case MsgType::Stats:
            reply = {MsgType::Report, toJson(service.report())};
            break;
        case MsgType::Trace: {
            if (!have_tenant) {
                reply = {MsgType::Error, "Trace before Hello"};
                break;
            }
            std::string trace = service.lastTraceJson(tenant);
            if (trace.empty()) {
                reply = {MsgType::Error,
                         "no trace recorded (run the daemon with "
                         "--job-traces and complete a job first)"};
                break;
            }
            reply = {MsgType::TraceData, std::move(trace)};
            break;
        }
        case MsgType::Shutdown:
            service.drain();
            // Complete the Done handshake BEFORE waking
            // waitShutdown(): stop() severs every live connection,
            // and severing this one ahead of the reply write made
            // the write raise SIGPIPE and killed the daemon whenever
            // the main thread won the race (seen under load on a
            // 1-core host). Write first, then signal shutdown and
            // leave the read loop.
            writeFrame(fd, {MsgType::Done, ""});
            {
                std::lock_guard<std::mutex> lock(mtx);
                shutdownRequested = true;
            }
            shutdownCv.notify_all();
            closeConnection(conn);
            return;
        default:
            reply = {MsgType::Error, "unknown message type"};
            break;
        }
        if (!writeFrame(fd, reply))
            break;
    }
    closeConnection(conn);
}

void
SocketServer::waitShutdown()
{
    std::unique_lock<std::mutex> lock(mtx);
    shutdownCv.wait(lock, [this] { return shutdownRequested; });
}

void
SocketServer::stop()
{
    std::list<Connection> to_join;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (stopping)
            return;
        stopping = true;
        // Sever live connections so their handler threads unblock
        // out of readFrame(). Finished ones already closed their fd.
        for (const Connection &c : connections) {
            if (c.fd >= 0)
                ::shutdown(c.fd, SHUT_RDWR);
        }
        to_join.swap(connections);
    }
    if (listenFd >= 0) {
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        listenFd = -1;
    }
    if (acceptor.joinable())
        acceptor.join();
    for (Connection &c : to_join)
        c.handler.join();
    ::unlink(socketPath.c_str());
}

} // namespace tss::serve
