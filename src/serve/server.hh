/**
 * @file
 * The socket front of tss-serve: an AF_UNIX stream listener that
 * speaks the framed protocol (serve/protocol.hh) and forwards every
 * request to a TraceService. One thread per connection — tenants are
 * long-lived streaming clients, not a thundering herd, and the real
 * concurrency lives in the service's stage pools.
 */

#ifndef TSS_SERVE_SERVER_HH
#define TSS_SERVE_SERVER_HH

#include <condition_variable>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "serve/service.hh"

namespace tss::serve
{

class SocketServer
{
  public:
    /** @p service must outlive the server. */
    SocketServer(TraceService &service, std::string socket_path);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind, listen and start the accept loop. False (with a warn) on
     * any socket error — e.g. a stale socket file that is actually a
     * live server.
     */
    bool start();

    /**
     * Block until a client asked for Shutdown and the service drain
     * completed.
     */
    void waitShutdown();

    /** Stop accepting, sever live connections, join all threads. */
    void stop();

    const std::string &path() const { return socketPath; }

    /** Connections whose handler is still serving (for tests). */
    std::size_t liveConnections() const;

    /**
     * Handler threads not yet joined, live or finished (for tests).
     * Finished handlers are joined as new connections arrive.
     */
    std::size_t heldHandlers() const;

  private:
    /**
     * One accepted connection. `fd` is reset to -1, under mtx, by
     * the handler just before it closes the socket, so stop() never
     * shuts down a descriptor number that may already belong to
     * another socket; a connection with fd -1 is finished and its
     * thread joins without blocking.
     */
    struct Connection
    {
        int fd = -1;
        std::thread handler;
    };

    void acceptLoop();
    void serveConnection(Connection &conn);
    /// Mark @p conn finished under mtx, then close its socket.
    void closeConnection(Connection &conn);

    TraceService &service;
    std::string socketPath;
    int listenFd = -1;
    std::thread acceptor;

    mutable std::mutex mtx;
    std::condition_variable shutdownCv;
    bool shutdownRequested = false;
    bool stopping = false;
    std::list<Connection> connections; ///< under mtx
};

} // namespace tss::serve

#endif // TSS_SERVE_SERVER_HH
