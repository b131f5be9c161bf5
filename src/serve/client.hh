/**
 * @file
 * Client side of the tss-serve protocol: used by the CI smoke load
 * generator, the serve tests, and anything else that wants to stream
 * task programs at a running daemon. Synchronous request/response —
 * one outstanding request per connection.
 */

#ifndef TSS_SERVE_CLIENT_HH
#define TSS_SERVE_CLIENT_HH

#include <cstdint>
#include <string>

#include "serve/service.hh"
#include "trace/task_trace.hh"

namespace tss::serve
{

class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to a server's AF_UNIX socket. */
    bool connect(const std::string &socket_path);

    /**
     * Open (or create) the named tenant; fills the tenant id and the
     * carve this tenant's programs will be rebased into.
     */
    bool hello(const std::string &tenant_name, TenantId &id,
               std::uint64_t &carve_base, std::uint64_t &carve_end);

    /**
     * Submit one task program. Accepted fills @p job; Busy means the
     * admission queue bounced it (retry later); anything else is a
     * protocol or server error.
     */
    SubmitStatus submit(const TaskTrace &trace, JobId &job);

    /** Fetch the ServiceReport JSON. */
    bool stats(std::string &json);

    /**
     * Fetch the Chrome trace JSON of this tenant's most recently
     * completed job. False when the daemon runs without --job-traces
     * or no job of this tenant has finished yet.
     */
    bool trace(std::string &json);

    /** Ask the server to drain and exit; true once Done arrives. */
    bool shutdown();

    void close();

  private:
    int fd = -1;
};

} // namespace tss::serve

#endif // TSS_SERVE_CLIENT_HH
