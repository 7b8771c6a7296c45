// Backend seam between the TCP frontier and whatever fulfils submits.
//
// TcpServer's poll thread does not care whether a submit runs on the local
// gateway's worker pool or is proxied to another machine; it only needs
// to (a) offer the decoded request somewhere, (b) be told when the reply
// is ready, and (c) encode a WireResponse. WireFrontend is that contract.
// (b) travels in the request itself: the server sets
// WireRequest::notify_ready, and the backend calls it once the
// completion's Ready() holds; the server then confirms with Ready() and
// takes the reply. A frontend that wraps another forwards the request,
// and with it the notify, unchanged.
// Two implementations exist:
//
//   GatewayFrontend   the single-machine backend — wraps gateway::Gateway
//                     and renders OnlineResponse into wire terms (timings
//                     in µs, latent checksum) on the worker's CPU lane,
//                     in the completion callback that then notifies.
//                     This is flashps_served.
//   fed::FedGateway   the federated front tier (src/fed) — routes each
//                     request to a fleet node over the wire protocol and
//                     passes the node's WireResponse through verbatim, so
//                     checksums survive machine hops untouched; it
//                     notifies once a dispatcher resolves the ticket.
#ifndef FLASHPS_SRC_NET_FRONTEND_H_
#define FLASHPS_SRC_NET_FRONTEND_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/gateway/gateway.h"
#include "src/net/wire.h"
#include "src/runtime/online_server.h"

namespace flashps::net {

// One accepted submit's eventual reply. The server's poll thread calls
// Ready() (which never blocks) after every poll() return, so one slow
// backend cannot wedge the sockets or any other pending completion. The
// backend must call the request's notify_ready once Ready() holds (or
// return a completion that is already Ready()): the poll thread sleeps
// until a socket or a notify wakes it.
class WireCompletion {
 public:
  virtual ~WireCompletion() = default;
  // Non-blocking readiness probe.
  virtual bool Ready() = 0;
  // The reply, rendered in wire terms. Call at most once, and only after
  // Ready() has returned true. Must not throw: backend failures become a
  // status code in the response, not an exception.
  virtual WireResponse Take() = 0;
};

// Outcome of offering one decoded submit to the backend.
struct WireSubmission {
  gateway::SubmitStatus status = gateway::SubmitStatus::kRejectedShutdown;
  int worker_id = -1;
  int64_t estimated_wall_us = 0;
  // Non-null iff the submit was accepted and a reply will follow.
  std::unique_ptr<WireCompletion> completion;
  bool accepted() const { return completion != nullptr; }
};

// What a TcpServer needs from an asynchronous backend. Thread-safety
// contract: Submit and MetricsJson may be called concurrently (a server
// calls both from its poll thread, but a daemon reads MetricsJson from
// its own thread too).
class WireFrontend {
 public:
  virtual ~WireFrontend() = default;
  // Takes the whole decoded wire request: the local gateway only needs the
  // embedded OnlineRequest, but a federating frontend forwards engine_mode
  // and denoise_steps to the chosen node verbatim.
  virtual WireSubmission Submit(WireRequest request) = 0;
  virtual std::string MetricsJson() = 0;
};

// The single-machine backend: submits dispatch through gateway::Gateway;
// completions translate OnlineResponse into the wire reply exactly as the
// serving daemon has always answered (including the shutdown-race
// status), and each is Ready() from the moment its worker's completion
// callback has rendered it.
class GatewayFrontend : public WireFrontend {
 public:
  explicit GatewayFrontend(gateway::Gateway& gateway) : gateway_(&gateway) {}

  WireSubmission Submit(WireRequest request) override;
  std::string MetricsJson() override;

 private:
  gateway::Gateway* gateway_;
};

}  // namespace flashps::net

#endif  // FLASHPS_SRC_NET_FRONTEND_H_
