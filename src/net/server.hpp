// TCP serving front-end: a portable poll(2)-based event loop speaking
// newline-delimited requests.
//
// The server is protocol-agnostic transport: it owns sockets, framing, and
// flow control, and hands each complete request line to a caller-supplied
// RequestHandler that returns the bytes to send back (the engine plugs
// `engine::ServeHandler` in here, so the wire protocol is *exactly* the
// `dsml serve` stdin JSON-lines protocol — one request per line, one
// newline-terminated response per request). Keeping the transport below the
// engine keeps the layer DAG clean: net depends only on common.
//
// Per-connection state machine:
//
//     kReading ──complete line──▶ kDispatching ──response──▶ kWriting
//        ▲                                                      │
//        └───────────────── write buffer drained ───────────────┘
//     any state ──peer EOF / overlong line──▶ kDraining (flush, then close)
//     any state ──read/write error──────────▶ kClosing  (drop immediately)
//
// Flow control, all bounded:
//  - read buffer: a request line longer than `max_request_bytes` gets an
//    error response and the connection drains/closes (`net.overlong_lines`);
//  - write buffer: while a connection's pending output exceeds
//    `max_write_buffer_bytes` its socket is not polled for reading, so a
//    client that pipelines requests without reading responses stalls
//    itself, not the server;
//  - accept admission: at `max_connections` the listener either stops
//    accepting (backpressure into the kernel backlog) or, with
//    `shed_when_full`, accepts, answers one error line, and closes
//    (`net.shed`) so clients fail fast instead of queueing blind.
//
// Bounds compose with the engine: `max_request_bytes` refuses a line before
// the handler parses it, and at its 1 MiB default it binds before
// `engine::ServeHandler::kMaxRequestRows` does (fewer than 3000 compact
// rows fit in a line). Both refusals are error *responses*, so `net.*` sheds
// connections and lines while `engine.serve.errors` counts requests.
//
// Threading: run() is single-threaded (one poll loop; dispatch is inline).
// request_stop() may be called from any thread or from a signal handler —
// it is async-signal-safe (an atomic store plus a self-pipe write).
// Failpoints `net.accept` / `net.read` / `net.write` inject connection-level
// failures the loop must contain.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/socket.hpp"

namespace dsml::net {

/// Answers one request line (terminator stripped) with the exact bytes to
/// write back — normally one newline-terminated response, or "" for no
/// response (blank keep-alive lines). Must not throw for request-level
/// failures; anything it does throw is answered with a generic error line
/// so the loop survives.
using RequestHandler = std::function<std::string(std::string_view line)>;

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via Server::port()
  int backlog = 128;

  /// Adopt an already-listening socket instead of binding a new one
  /// (bind_address/port/backlog are then ignored). The fleet supervisor
  /// binds the listener itself and passes it to forked workers: the port
  /// survives a worker crash, so clients queue in the kernel backlog while
  /// the replacement respawns instead of getting connection-refused. The
  /// Server takes ownership of the descriptor.
  int adopted_fd = -1;

  /// Open-connection admission bound.
  std::size_t max_connections = 64;

  /// At capacity: accept, answer one error line, close (true) or leave the
  /// connection in the kernel backlog until a slot frees (false).
  bool shed_when_full = true;

  /// Longest accepted request line; beyond it the connection gets an error
  /// response and is drained/closed.
  std::size_t max_request_bytes = 1u << 20;

  /// Pending-output bound past which a connection stops being read.
  std::size_t max_write_buffer_bytes = 8u << 20;

  /// Close connections with no read/write activity for this long; 0 keeps
  /// the historical block-forever behaviour. Without it an idle client holds
  /// a max_connections slot indefinitely — a fleet health-checker that pings
  /// and forgets would eventually starve the worker of slots.
  std::uint32_t idle_timeout_ms = 0;
};

struct ServerSummary {
  std::uint64_t accepted = 0;       ///< connections admitted
  std::uint64_t shed = 0;           ///< connections refused at capacity
  std::uint64_t closed = 0;         ///< admitted connections finished
  std::uint64_t requests = 0;       ///< complete lines dispatched
  std::uint64_t accept_errors = 0;  ///< connections dropped during accept
  std::uint64_t read_errors = 0;    ///< connections dropped on read failure
  std::uint64_t write_errors = 0;   ///< connections dropped on write failure
  std::uint64_t overlong = 0;       ///< request lines over the byte bound
  std::uint64_t idle_closed = 0;    ///< connections closed by idle timeout
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run()).
  /// Throws IoError if the address cannot be bound.
  Server(ServerOptions options, RequestHandler handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return port_; }

  /// Runs the event loop until request_stop(). Open connections are closed
  /// when the loop exits. Throws IoError only for unrecoverable loop
  /// failures (poll itself failing) — per-connection errors never escape.
  void run();

  /// Stops run() from any thread or signal handler (async-signal-safe).
  void request_stop() noexcept;

  ServerSummary summary() const;

 private:
  struct Connection;

  void accept_ready();
  void read_ready(Connection& c);
  void write_ready(Connection& c);
  void dispatch_lines(Connection& c);
  void fail_overlong(Connection& c);

  ServerOptions options_;
  RequestHandler handler_;
  Fd listen_fd_;
  Fd stop_read_;
  Fd stop_write_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::vector<std::unique_ptr<Connection>> connections_;

  mutable std::mutex summary_mutex_;
  ServerSummary summary_;
};

}  // namespace dsml::net
