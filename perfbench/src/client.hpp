#pragma once

// The serving workload's open-loop client: one thread multiplexing a few
// connections, sending each planned request at its due time whatever the
// server does. Round trips are measured from the due time, not the send
// time, so a stall in the client or the server also delays the requests
// queued behind it, and the client reports how late it sent.

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace perfbench {

struct PlannedRequest {
  std::uint32_t app_index = 0;  ///< Index into ApplicationRegistry::all().
  double input_scale = 1.0;
  double due_ms = 0.0;  ///< Simulated ms after the anchor.
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 1;
  double time_scale = 1.0;  ///< Simulated ms per wall ms.
  double timeout_s = 60.0;  ///< Wall budget, counted from the anchor.
};

/// What happened to one request; indexed by its plan position (its tag).
struct RequestOutcome {
  bool answered = false;
  fifer::net::wire::Status status = fifer::net::wire::Status::kOk;
  bool violated_slo = false;
  double lag_ms = 0.0;  ///< Send instant minus due instant, wall ms.
  double rtt_ms = 0.0;  ///< Response parsed minus due instant, wall ms.
  double job_ms = 0.0;  ///< Server-side (completion - arrival), wall ms.
};

struct ClientReport {
  std::vector<RequestOutcome> requests;
  std::uint64_t sent = 0;
  std::uint64_t duplicates = 0;    ///< A second response for one tag.
  std::uint64_t unknown_tags = 0;  ///< A response for no planned request.
  std::uint64_t errors = 0;        ///< Connect, socket or framing failures.
};

/// Connects, waits for `wait_anchor` to name the wall instant of simulated
/// time 0 (nullopt aborts), replays `plan` against it, waits for every
/// response or the timeout, then sends one FIN frame per connection.
ClientReport run_open_loop(
    const std::vector<PlannedRequest>& plan, const ClientOptions& opts,
    const std::function<std::optional<std::chrono::steady_clock::time_point>()>&
        wait_anchor);

}  // namespace perfbench
