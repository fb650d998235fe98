// Net-layer tests: the poll(2) server event loop (framing, CRLF tolerance,
// concurrent connections, admission control with and without shedding,
// overlong-line rejection, async stop) and the net.* failpoints — a dropped
// accept/read/write must kill only its own connection while the loop keeps
// serving. Runs under the tsan label (server thread + many client threads)
// and the fault label (failpoint arming).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"

namespace dsml::net {
namespace {

/// A deterministic toy protocol: "<line>!" per request. Returning "" for
/// blank lines mirrors the engine handler's skip contract.
std::string echo_handler(std::string_view line) {
  if (line.empty()) return "";
  return std::string(line) + "!\n";
}

/// Runs `server` on a background thread for the duration of a test.
class ServerRunner {
 public:
  explicit ServerRunner(Server& server)
      : server_(server), thread_([this] { server_.run(); }) {}
  ~ServerRunner() {
    server_.request_stop();
    thread_.join();
  }

 private:
  Server& server_;
  std::thread thread_;
};

ServerOptions loopback(std::size_t max_connections = 64) {
  ServerOptions options;
  options.bind_address = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.max_connections = max_connections;
  return options;
}

TEST(NetServer, BindsEphemeralPortAndStops) {
  Server server(loopback(), echo_handler);
  EXPECT_GT(server.port(), 0);
  ServerRunner runner(server);
  // Destructor stops a server that never saw a connection.
}

TEST(NetServer, RoundTripsRequestsOnOneConnection) {
  Server server(loopback(), echo_handler);
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.request("hello"), "hello!");
  EXPECT_EQ(client.request("again"), "again!");
  client.shutdown_write();
  server.request_stop();
  const ServerSummary summary = server.summary();
  EXPECT_EQ(summary.accepted, 1u);
  EXPECT_EQ(summary.requests, 2u);
  EXPECT_EQ(summary.shed, 0u);
}

TEST(NetServer, StripsCrlfAndSkipsBlankLines) {
  Server server(loopback(), echo_handler);
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());
  // A CRLF-terminated request and an interleaved blank line: the blank
  // line produces no response, the \r never reaches the handler.
  client.send_line("crlf\r");
  client.send_line("");
  client.send_line("after");
  EXPECT_EQ(client.recv_line(), "crlf!");
  EXPECT_EQ(client.recv_line(), "after!");
}

TEST(NetServer, PipelinedRequestsAnswerInOrder) {
  Server server(loopback(), echo_handler);
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());
  // 'r', not "r": a string literal plus std::to_string trips GCC 12's
  // -Wrestrict false positive under -Werror.
  for (int i = 0; i < 8; ++i) client.send_line('r' + std::to_string(i));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.recv_line(), 'r' + std::to_string(i) + "!");
  }
}

TEST(NetServer, ServesManyConcurrentConnections) {
  Server server(loopback(/*max_connections=*/64), echo_handler);
  ServerRunner runner(server);
  constexpr int kClients = 32;
  constexpr int kRequests = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        LineClient client("127.0.0.1", server.port());
        for (int r = 0; r < kRequests; ++r) {
          std::string msg = "c";
          msg += std::to_string(c);
          msg += '-';
          msg += std::to_string(r);
          if (client.request(msg) != msg + "!") failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.request_stop();
  const ServerSummary summary = server.summary();
  EXPECT_EQ(summary.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(summary.requests,
            static_cast<std::uint64_t>(kClients) * kRequests);
}

TEST(NetServer, ShedsConnectionsAtCapacityWithErrorLine) {
  ServerOptions options = loopback(/*max_connections=*/1);
  options.shed_when_full = true;
  Server server(options, echo_handler);
  ServerRunner runner(server);
  LineClient first("127.0.0.1", server.port());
  EXPECT_EQ(first.request("keep"), "keep!");  // definitely admitted
  LineClient second("127.0.0.1", server.port());
  const std::string refusal = second.recv_line();
  EXPECT_NE(refusal.find("\"ok\":false"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("connection capacity"), std::string::npos)
      << refusal;
  EXPECT_NE(refusal.find("StateError"), std::string::npos) << refusal;
  // The admitted connection is unaffected by the shed.
  EXPECT_EQ(first.request("still"), "still!");
  server.request_stop();
  EXPECT_EQ(server.summary().shed, 1u);
}

TEST(NetServer, QueuesConnectionsAtCapacityWithoutShedding) {
  ServerOptions options = loopback(/*max_connections=*/1);
  options.shed_when_full = false;
  Server server(options, echo_handler);
  ServerRunner runner(server);
  auto first = std::make_unique<LineClient>("127.0.0.1", server.port());
  EXPECT_EQ(first->request("one"), "one!");
  // The second client sits in the kernel backlog until the slot frees: its
  // request is buffered, not answered, and never refused.
  LineClient second("127.0.0.1", server.port());
  second.send_line("two");
  first.reset();  // EOF on the admitted connection frees the slot
  EXPECT_EQ(second.recv_line(), "two!");
  server.request_stop();
  EXPECT_EQ(server.summary().shed, 0u);
  EXPECT_EQ(server.summary().accepted, 2u);
}

TEST(NetServer, RejectsOverlongRequestLinesAndCloses) {
  ServerOptions options = loopback();
  options.max_request_bytes = 64;
  Server server(options, echo_handler);
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());
  client.send_line(std::string(200, 'x'));
  const std::string response = client.recv_line();
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("exceeds"), std::string::npos) << response;
  EXPECT_NE(response.find("InvalidArgument"), std::string::npos) << response;
  // The connection is closed after the error line: framing after an
  // oversized line is untrustworthy.
  EXPECT_THROW(client.recv_line(), IoError);
  server.request_stop();
  EXPECT_EQ(server.summary().overlong, 1u);
}

TEST(NetServer, HandlerExceptionBecomesErrorLineAndLoopSurvives) {
  Server server(loopback(), [](std::string_view line) -> std::string {
    if (line == "boom") throw StateError("handler exploded");
    return echo_handler(line);
  });
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port());
  const std::string response = client.request("boom");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("handler exploded"), std::string::npos) << response;
  EXPECT_EQ(client.request("fine"), "fine!");
}

TEST(NetServer, StopUnblocksARunningServerFromAnotherThread) {
  Server server(loopback(), echo_handler);
  std::thread runner([&] { server.run(); });
  LineClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.request("live"), "live!");
  server.request_stop();
  runner.join();  // run() must return promptly even with a live connection
  EXPECT_GE(server.summary().closed, 1u);
}

TEST(NetServer, IdleTimeoutClosesOnlyIdleConnections) {
  ServerOptions options = loopback();
  options.idle_timeout_ms = 150;
  Server server(options, echo_handler);
  ServerRunner runner(server);
  LineClient idle("127.0.0.1", server.port());
  EXPECT_EQ(idle.request("warm"), "warm!");  // definitely admitted
  // Keep a second connection active across the idle deadline: activity
  // resets its clock, so only the silent one is reaped.
  LineClient active("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(active.request("tick"), "tick!");
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  EXPECT_THROW(idle.recv_line(), IoError);  // idle peer was closed
  EXPECT_EQ(active.request("still"), "still!");
  server.request_stop();
  EXPECT_EQ(server.summary().idle_closed, 1u);
}

TEST(NetClient, ReadDeadlineSurfacesAsIoErrorNotAHang) {
  // A server that never answers: the blank-line contract returns no bytes.
  Server server(loopback(), [](std::string_view) { return std::string(); });
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port(), ClientOptions{0, 200});
  client.send_line("anyone home?");
  try {
    client.recv_line();
    FAIL() << "expected a deadline IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
}

TEST(NetClient, ConnectDeadlineStillConnectsToALiveServer) {
  Server server(loopback(), echo_handler);
  ServerRunner runner(server);
  LineClient client("127.0.0.1", server.port(), ClientOptions{1000, 1000});
  EXPECT_EQ(client.request("deadline"), "deadline!");
}

TEST(NetClient, ConnectFailsLoudlyWhenNobodyAccepts) {
  // A listener that never accepts, with a minimal backlog: once the kernel
  // queue is full, further connects either time out (SYNs dropped) or are
  // refused — both must surface as IoError, never an indefinite hang.
  Fd listener = listen_tcp("127.0.0.1", 0, /*backlog=*/1);
  const std::uint16_t port = local_port(listener);
  std::vector<std::unique_ptr<LineClient>> fillers;
  bool threw = false;
  for (int i = 0; i < 8 && !threw; ++i) {
    try {
      fillers.push_back(std::make_unique<LineClient>(
          "127.0.0.1", port, ClientOptions{250, 250}));
    } catch (const IoError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

TEST(NetClient, ServerDeathMidResponseIsAFramingError) {
  // A raw peer that answers half a line and drops dead: the client must
  // report the truncated frame, not return partial bytes.
  Fd listener = listen_tcp("127.0.0.1", 0, /*backlog=*/4);
  const std::uint16_t port = local_port(listener);
  std::thread peer([&] {
    Fd conn(::accept(listener.get(), nullptr, nullptr));
    ASSERT_GE(conn.get(), 0);
    char buf[256];
    (void)::recv(conn.get(), buf, sizeof(buf), 0);
    const char partial[] = "{\"ok\":tru";  // no terminating newline
    (void)::send(conn.get(), partial, sizeof(partial) - 1, 0);
    // conn closes here: mid-response death.
  });
  LineClient client("127.0.0.1", port);
  client.send_line("hello?");
  try {
    client.recv_line();
    FAIL() << "expected a truncated-frame IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("before a full response"),
              std::string::npos)
        << e.what();
  }
  peer.join();
}

// ------------------------------------------------------------ failpoints --

TEST(NetFailpoints, InjectedAcceptFailureDropsOnlyThatConnection) {
  failpoint::ScopedFailpoints armed("net.accept=nth:1");
  Server server(loopback(), echo_handler);
  ServerRunner runner(server);
  LineClient dropped("127.0.0.1", server.port());
  dropped.send_line("never answered");
  EXPECT_THROW(dropped.recv_line(), IoError);  // dropped before admission
  LineClient served("127.0.0.1", server.port());
  EXPECT_EQ(served.request("ok"), "ok!");
  server.request_stop();
  const ServerSummary summary = server.summary();
  EXPECT_EQ(summary.accept_errors, 1u);
  EXPECT_EQ(summary.accepted, 1u);
}

TEST(NetFailpoints, InjectedReadFailureClosesConnectionLoopSurvives) {
  failpoint::ScopedFailpoints armed("net.read=nth:1");
  Server server(loopback(), echo_handler);
  ServerRunner runner(server);
  LineClient doomed("127.0.0.1", server.port());
  doomed.send_line("lost");
  EXPECT_THROW(doomed.recv_line(), IoError);
  LineClient served("127.0.0.1", server.port());
  EXPECT_EQ(served.request("ok"), "ok!");
  server.request_stop();
  EXPECT_EQ(server.summary().read_errors, 1u);
}

TEST(NetFailpoints, InjectedWriteFailureClosesConnectionLoopSurvives) {
  failpoint::ScopedFailpoints armed("net.write=nth:1");
  Server server(loopback(), echo_handler);
  ServerRunner runner(server);
  LineClient doomed("127.0.0.1", server.port());
  doomed.send_line("lost");
  EXPECT_THROW(doomed.recv_line(), IoError);
  LineClient served("127.0.0.1", server.port());
  EXPECT_EQ(served.request("ok"), "ok!");
  server.request_stop();
  EXPECT_EQ(server.summary().write_errors, 1u);
}

}  // namespace
}  // namespace dsml::net
