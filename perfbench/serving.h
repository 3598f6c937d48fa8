// Bench-side helpers for the workloads that talk to server::Server: the
// request mix, the answer digests checked against core::CubeExplorer, and
// a server-plus-client pair started the way a user starts one.

#ifndef RDFCUBE_PERFBENCH_SERVING_H_
#define RDFCUBE_PERFBENCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/status.h"
#include "core/explorer.h"
#include "perfbench/common.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

namespace server = rdfcube::server;

/// The `i`-th point lookup of the rotation containers, contained,
/// complements, partial (min_degree 0.5) at `target`.
server::Request PointRequest(std::size_t i, qb::ObsId target);

/// A page scan of kPageLimit records; `limit` 0 asks for the server cap.
server::Request ScanRequest(uint32_t limit = kPageLimit);

/// Name of the Span around a client call of `op`: "server.client.<op>".
const char* ClientSpan(server::Op op);

/// Order-independent digest of a point response's ids (and degrees).
uint64_t AnswerDigest(const server::Response& resp);

/// The digest CubeExplorer's answer to `req` must match.
uint64_t ExpectedDigest(const core::CubeExplorer& explorer,
                        const server::Request& req);

/// Sorted record keys of a scan response; `distinct` is false when a record
/// repeats.
std::vector<uint64_t> PageKeys(const server::Response& resp, bool* distinct);

/// True when every key of `page` (sorted) is in `all` (sorted).
bool PageWithin(const std::vector<uint64_t>& page,
                const std::vector<uint64_t>& all);

/// \brief A server with default ServerOptions and one default Client
/// connected to it. Stop() drains the server; the destructor stops it too.
class ServerHandle {
 public:
  /// Starts the server over `snapshot` and connects (a ping).
  rdfcube::Status Start(server::SnapshotPtr snapshot);
  void Stop();
  server::Server& server() { return *server_; }
  server::Client& client() { return *client_; }

 private:
  std::unique_ptr<server::Server> server_;
  std::unique_ptr<server::Client> client_;
};

/// True when `resp` is an OK response with code kOk.
bool Succeeded(const rdfcube::Result<server::Response>& resp);

}  // namespace perfbench

#endif  // RDFCUBE_PERFBENCH_SERVING_H_
