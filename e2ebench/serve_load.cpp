// The serve phase: a closed-loop client over loopback, and the same request
// stream sent straight into the PredictService for the traced run.

#include <poll.h>
#include <sys/socket.h>

#include <bit>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "aig/aiger.hpp"
#include "bench.hpp"
#include "features/features.hpp"
#include "net/frame.hpp"
#include "util/socket.hpp"

namespace e2e {

using aigml::aig::Aig;

namespace {

/// After the budget, how long outstanding requests may take before they
/// count as lost.
constexpr double kGraceSeconds = 10.0;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

const aigml::ml::GbdtModel& model_of(const Env& env, const std::string& name) {
  return name == "delay" ? env.delay : env.area;
}

/// One connection of the closed loop: at most one request outstanding.
/// Sends are non-blocking, so a large PREDICT frame never stalls the
/// client's other connections.
struct Conn {
  aigml::Socket socket;
  const std::vector<Request>* requests = nullptr;
  std::size_t next = 0;  ///< index of the next request to send
  std::size_t stride = 1;
  bool outstanding = false;
  std::uint32_t rid = 0;
  const Request* request = nullptr;
  Clock::time_point sent;
  std::string outbox;
  std::size_t out_off = 0;
  std::string inbox;
};

/// Writes as much of the outbox as the socket takes.
void flush(Conn& conn) {
  while (conn.out_off < conn.outbox.size()) {
    const ssize_t n = ::send(conn.socket.fd(), conn.outbox.data() + conn.out_off,
                             conn.outbox.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      throw std::runtime_error("send to the server failed");
    }
  }
}

}  // namespace

Stream make_stream(const Env& env, const std::vector<Aig>& states) {
  Stream stream;
  for (std::size_t i = 0; i < states.size(); ++i) {
    const aigml::features::FeatureVector f = aigml::features::extract(states[i]);
    for (const char* model : {"delay", "area"}) {
      Request r;
      r.model = model;
      r.row.assign(f.begin(), f.end());
      r.expected = model_of(env, r.model).predict(std::span<const double>(r.row));
      r.payload = aigml::net::make_features_payload(r.model, r.row);
      stream.features.push_back(std::move(r));
    }
    Request g;
    g.graph = true;
    g.model = i % 2 == 0 ? "delay" : "area";
    const std::string aag = aigml::aig::to_aiger_string(states[i]);
    g.parsed = aigml::aig::from_aiger_string(aag);
    g.expected = model_of(env, g.model).predict(g.parsed);
    g.payload = aigml::net::make_predict_payload(g.model, aag);
    stream.graphs.push_back(std::move(g));
  }
  return stream;
}

ServeReport run_serve(const Env& env, const std::vector<Request>& requests,
                      std::size_t connections, double seconds, Ledger& ledger) {
  ServeReport report;
  std::vector<Conn> conns(connections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    Conn& conn = conns[c];
    conn.socket = aigml::tcp_connect("127.0.0.1", env.server->port(), 5000);
    conn.requests = &requests;
    conn.next = c;
    conn.stride = connections;
  }

  std::uint32_t next_rid = 1;
  auto send_next = [&](Conn& conn) {
    const std::vector<Request>& requests = *conn.requests;
    conn.request = &requests[conn.next % requests.size()];
    conn.next += conn.stride;
    conn.rid = next_rid++;
    conn.outbox.clear();
    conn.out_off = 0;
    aigml::net::append_frame(conn.outbox,
                             conn.request->graph ? aigml::net::Opcode::kPredict
                                                 : aigml::net::Opcode::kFeatures,
                             conn.rid, conn.request->payload);
    conn.sent = Clock::now();
    conn.outstanding = true;
    flush(conn);
  };
  const Clock::time_point start = Clock::now();
  auto record = [&](Conn& conn, Clock::time_point at) {
    auto& sample = conn.request->graph ? report.graph : report.features;
    sample.rtt.push_back(seconds_between(conn.sent, at));
    sample.done_at.push_back(seconds_between(start, at));
    conn.outstanding = false;
  };
  // Reads whatever arrived and settles the outstanding request once its
  // whole response frame is in.
  auto receive = [&](Conn& conn) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(conn.socket.fd(), buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        conn.inbox.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) throw std::runtime_error("server closed the connection");
      break;
    }
    aigml::net::FrameHeader header;
    std::string error;
    const auto status = aigml::net::decode_header(conn.inbox, header, error, 0);
    if (status == aigml::net::DecodeStatus::kMalformed) throw std::runtime_error(error);
    if (status != aigml::net::DecodeStatus::kFrame ||
        conn.inbox.size() < aigml::net::kFrameHeaderBytes + header.payload_len) {
      return;
    }
    const Clock::time_point now = Clock::now();
    const std::string payload =
        conn.inbox.substr(aigml::net::kFrameHeaderBytes, header.payload_len);
    conn.inbox.erase(0, aigml::net::kFrameHeaderBytes + header.payload_len);
    if (!conn.outstanding || header.request_id != conn.rid) {
      throw std::runtime_error("response to a request that is not outstanding");
    }
    record(conn, now);
    const std::string what = conn.request->graph ? "PREDICT" : "FEATURES";
    switch (header.opcode) {
      case aigml::net::Opcode::kValue:
        if (same_bits(aigml::net::parse_value_payload(payload), conn.request->expected)) {
          ledger.ok();
        } else {
          ledger.fail(what + " reply differs from the local prediction");
        }
        break;
      case aigml::net::Opcode::kBusy:
        ++report.busy;
        ledger.fail(what + " answered BUSY");
        break;
      default:
        ++report.errors;
        ledger.fail(what + " answered " + (header.opcode == aigml::net::Opcode::kError
                                               ? "ERR: " + payload
                                               : std::string("an unexpected opcode")));
        break;
    }
  };

  std::vector<pollfd> fds(conns.size());
  for (;;) {
    const Clock::time_point now = Clock::now();
    const double elapsed = seconds_between(start, now);
    bool any = false;
    for (Conn& conn : conns) {
      if (!conn.outstanding && elapsed < seconds) send_next(conn);
      any = any || conn.outstanding;
    }
    if (!any) break;
    if (elapsed > seconds + kGraceSeconds) {
      for (Conn& conn : conns) {
        if (!conn.outstanding) continue;
        record(conn, now);
        ledger.fail("request lost: no reply within the grace period");
      }
      break;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      const bool pending = conns[c].out_off < conns[c].outbox.size();
      fds[c] = pollfd{conns[c].socket.fd(), short(POLLIN | (pending ? POLLOUT : 0)), 0};
    }
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents & POLLOUT) flush(conns[c]);
      if (fds[c].revents & ~POLLOUT) receive(conns[c]);
    }
  }
  report.seconds = seconds;
  return report;
}

ServiceReport run_service_direct(const Env& env, const std::vector<Request>& requests,
                                 std::size_t connections, double seconds, Ledger& ledger) {
  struct Done {
    std::size_t conn = 0;
    double value = 0.0;
    std::exception_ptr error;
    Clock::time_point at;
  };
  // Shared with the completion callbacks, which may outlive this frame when
  // a request never completes.
  struct Completions {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Done> done;
  };
  const auto completions = std::make_shared<Completions>();

  struct Logical {
    const std::vector<Request>* requests = nullptr;
    std::size_t next = 0;
    std::size_t stride = 1;
    const Request* request = nullptr;
    Clock::time_point sent;
  };
  std::vector<Logical> conns(connections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].requests = &requests;
    conns[c].next = c;
    conns[c].stride = connections;
  }
  auto submit = [&](std::size_t c) {
    Logical& conn = conns[c];
    conn.request = &(*conn.requests)[conn.next % conn.requests->size()];
    conn.next += conn.stride;
    auto callback = [completions, c](double value, std::exception_ptr error) {
      const Clock::time_point at = Clock::now();
      const std::lock_guard lock(completions->mutex);
      completions->done.push_back(Done{c, value, error, at});
      completions->cv.notify_one();
    };
    if (conn.request->graph) {
      Aig graph = conn.request->parsed;
      conn.sent = Clock::now();
      env.service->submit_async(conn.request->model, std::move(graph), callback);
    } else {
      std::vector<double> row = conn.request->row;
      conn.sent = Clock::now();
      env.service->submit_features_async(conn.request->model, std::move(row), callback);
    }
  };

  ServiceReport report;
  const Clock::time_point start = Clock::now();
  std::size_t outstanding = 0;
  for (std::size_t c = 0; c < conns.size(); ++c, ++outstanding) submit(c);
  while (outstanding > 0) {
    Done d;
    {
      std::unique_lock lock(completions->mutex);
      if (!completions->cv.wait_for(lock, std::chrono::duration<double>(kGraceSeconds),
                                    [&] { return !completions->done.empty(); })) {
        ledger.fail("PredictService: request lost, no completion within the grace period");
        break;
      }
      d = completions->done.front();
      completions->done.pop_front();
    }
    --outstanding;
    const Logical& conn = conns[d.conn];
    const double t = seconds_between(conn.sent, d.at);
    (conn.request->graph ? report.graph_service : report.features_service).push_back(t);
    if (d.error != nullptr) {
      ledger.fail("PredictService request failed");
    } else if (!same_bits(d.value, conn.request->expected)) {
      ledger.fail("PredictService value differs from the local prediction");
    } else {
      ledger.ok();
    }
    if (seconds_between(start, Clock::now()) < seconds) {
      submit(d.conn);
      ++outstanding;
    }
  }
  return report;
}

}  // namespace e2e
