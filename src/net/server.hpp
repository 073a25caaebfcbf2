#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/slab.hpp"
#include "common/sync.hpp"
#include "net/connection.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace fifer::net {

/// Application-side callbacks of the server, invoked on the epoll thread
/// with no server lock held (so implementations may take the runtime state
/// lock — the live runtime's wall-driver lock, rank kRuntimeState —
/// freely).
class ServerHandler : public FrameHandler {
 public:
  /// The connection is gone (peer close, error, or slow-consumer drop). Any
  /// conn_id kept by the application is now dead; `respond` to it becomes a
  /// counted no-op.
  virtual void on_disconnect(std::uint64_t /*conn_id*/) {}
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned; read the bound port back via `port()`.
  std::uint16_t port = 0;
  int backlog = 128;
  std::size_t max_connections = 256;
  /// Wall budget for flushing buffered responses during shutdown().
  int drain_timeout_ms = 2000;
};

/// Monotonic counters, updated with relaxed atomics on the epoll thread and
/// snapshot-readable from anywhere (exact totals once the loop has joined).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t rejected_connections = 0;  ///< Over max_connections.
  std::uint64_t requests = 0;
  std::uint64_t fins = 0;
  std::uint64_t responses = 0;
  std::uint64_t dropped_responses = 0;  ///< respond() to a dead connection.
  std::uint64_t slow_consumer_drops = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// Epoll-based non-blocking TCP server for the wire protocol (DESIGN.md
/// §5h). Single epoll thread owns the listener and every `Connection`
/// (Slab-recycled slots — steady-state accept/read/dispatch touches no
/// allocator); the one cross-thread channel is `respond()`, which stages the
/// encoded-response parameters under the `net.server.pending` leaf lock
/// (rank kRuntimeLeaf: a completion fired by the wall driver responds with
/// the runtime state lock held, the one sanctioned 10 -> 20 nesting) and
/// wakes the loop through an eventfd.
///
/// Lifecycle: `listen()` binds synchronously (so the caller learns the port
/// — and EADDRINUSE — before any thread exists; early connections queue in
/// the SYN backlog), `start()` spawns the loop, `shutdown()` stops
/// accepting, flushes buffered responses within `drain_timeout_ms`, closes
/// every connection, and joins.
class Server {
 public:
  Server(ServerOptions opts, ServerHandler* handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen. False on failure (errno in `listen_errno()`,
  /// EADDRINUSE being the retryable case).
  bool listen();
  std::uint16_t port() const { return listener_.port(); }
  int listen_errno() const { return listener_.error(); }

  /// Spawns the epoll thread. Requires a successful listen().
  void start();

  /// Queues `resp` for delivery to `conn_id`'s socket. Thread-safe; callable
  /// under the runtime state lock. False when the server is not running.
  bool respond(std::uint64_t conn_id, const wire::Response& resp);

  /// Stops accepting new connections (existing ones keep being served).
  /// Thread-safe; the epoll thread closes the listener on its next pass.
  void stop_accepting();

  /// Graceful drain: stop accepting, flush every queued/buffered response
  /// (bounded by drain_timeout_ms), close all connections, join the loop.
  /// Idempotent.
  void shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  struct PendingResponse {
    std::uint64_t conn_id = 0;
    wire::Response resp;
  };

  void run_loop();
  void handle_accept();
  void handle_conn_event(std::uint64_t conn_id, bool readable, bool writable,
                         bool error);
  void drain_pending() FIFER_EXCLUDES(pending_mu_);
  void deliver(std::uint64_t conn_id, const wire::Response& resp);
  void drop_connection(SlabHandle<Connection> h, bool notify);
  bool any_pending_write() FIFER_EXCLUDES(pending_mu_);

  static SlabHandle<Connection> handle_of(std::uint64_t conn_id) {
    return SlabHandle<Connection>{static_cast<std::uint32_t>(conn_id >> 32),
                                  static_cast<std::uint32_t>(conn_id)};
  }
  static std::uint64_t id_of(SlabHandle<Connection> h) {
    return (static_cast<std::uint64_t>(h.index) << 32) | h.gen;
  }

  ServerOptions opts_;
  ServerHandler* handler_;
  Listener listener_;
  Poller poller_;
  std::thread loop_;

  // Epoll-thread-confined.
  Slab<Connection> conns_;
  std::vector<PendingResponse> staged_;  ///< Swap target for pending_.

  Mutex pending_mu_;
  std::vector<PendingResponse> pending_ FIFER_GUARDED_BY(pending_mu_);

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> accepting_{false};

  // Relaxed atomics so the epoll hot path stays lock-free and TSan-clean.
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> rejected_connections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> fins{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> dropped_responses{0};
    std::atomic<std::uint64_t> slow_consumer_drops{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
  };
  AtomicStats stats_;
};

}  // namespace fifer::net
