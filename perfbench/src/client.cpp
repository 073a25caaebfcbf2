#include "client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>

#include "net/socket.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace net = fifer::net;
namespace wire = fifer::net::wire;

std::uint64_t to_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Conn {
  static constexpr std::size_t kBuf = 64 * 1024;

  net::Fd fd;
  bool dead = false;
  bool want_write = false;
  std::size_t rlen = 0;
  std::size_t wpos = 0;
  std::size_t wlen = 0;
  std::uint8_t rbuf[kBuf];
  std::uint8_t wbuf[kBuf];

  /// Appends one frame; false when the write buffer is full.
  bool queue(const std::uint8_t* data, std::size_t n) {
    if (wlen + n > kBuf && wpos > 0) {
      std::memmove(wbuf, wbuf + wpos, wlen - wpos);
      wlen -= wpos;
      wpos = 0;
    }
    if (wlen + n > kBuf) return false;
    std::memcpy(wbuf + wlen, data, n);
    wlen += n;
    return true;
  }

  /// Writes what the socket takes; false on a socket error.
  bool flush() {
    while (wpos < wlen) {
      const ssize_t n = ::write(fd.get(), wbuf + wpos, wlen - wpos);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      wpos += static_cast<std::size_t>(n);
    }
    wpos = wlen = 0;
    return true;
  }

  bool pending() const { return wpos < wlen; }
};

class Loop {
 public:
  Loop(const std::vector<PlannedRequest>& plan, const ClientOptions& opts)
      : plan_(plan), opts_(opts) {
    report_.requests.resize(plan.size());
  }

  ClientReport run(const std::function<std::optional<Clock::time_point>()>&
                       wait_anchor) {
    if (!poller_.valid() || !connect()) {
      ++report_.errors;
      return std::move(report_);
    }
    const std::optional<Clock::time_point> anchor = wait_anchor();
    if (!anchor) {
      ++report_.errors;
      send_fins();
      return std::move(report_);
    }
    anchor_ = *anchor;
    replay();
    send_fins();
    return std::move(report_);
  }

 private:
  bool connect() {
    const std::size_t n = std::max<std::size_t>(1, opts_.connections);
    for (std::size_t i = 0; i < n; ++i) {
      auto c = std::make_unique<Conn>();
      c->fd = net::connect_to(opts_.host, opts_.port);
      if (!c->fd || !poller_.add(c->fd.get(), i)) return false;
      conns_.push_back(std::move(c));
    }
    return true;
  }

  Clock::time_point due(std::size_t i) const {
    return anchor_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         plan_[i].due_ms * 1e6 / opts_.time_scale));
  }

  void replay() {
    const Clock::time_point deadline =
        anchor_ + std::chrono::nanoseconds(
                      static_cast<std::int64_t>(opts_.timeout_s * 1e9));
    net::Poller::Event events[64];
    std::size_t next = 0;
    while (Clock::now() < deadline) {
      while (next < plan_.size() && due(next) <= Clock::now()) send(next++);
      if (next == plan_.size() && answered_ == plan_.size()) return;
      if (!any_alive()) return;

      int timeout_ms = 20;
      if (next < plan_.size()) {
        const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
            due(next) - Clock::now());
        timeout_ms = static_cast<int>(std::clamp<std::int64_t>(until.count(), 0, 20));
      }
      const int n = poller_.wait(events, 64, timeout_ms);
      for (int i = 0; i < n; ++i) handle(events[i]);
      // Under a millisecond to the next send: epoll cannot wait that
      // precisely, so sleep to the due instant.
      if (n == 0 && timeout_ms == 0 && next < plan_.size()) {
        std::this_thread::sleep_until(due(next));
      }
    }
  }

  void send(std::size_t i) {
    Conn& c = *conns_[i % conns_.size()];
    if (c.dead) return;
    const Clock::time_point due_at = due(i);
    wire::Request req;
    req.app_index = plan_[i].app_index;
    req.input_scale = plan_[i].input_scale;
    req.tag = i;
    // The server's own RTT is then also counted from the due instant.
    req.client_send_ns = to_ns(due_at);
    std::uint8_t frame[wire::kMaxFrame];
    const std::size_t len = wire::encode_request(req, frame);
    report_.requests[i].lag_ms = ms_between(due_at, Clock::now());
    if (!c.queue(frame, len) || !c.flush()) return kill(c);
    ++report_.sent;
    arm_write(c, i % conns_.size());
  }

  void handle(const net::Poller::Event& ev) {
    if (ev.data == net::Poller::kWakeData) return;
    Conn& c = *conns_[static_cast<std::size_t>(ev.data)];
    if (c.dead) return;
    if (ev.readable && !read(c)) return kill(c);
    if (ev.writable && !c.flush()) return kill(c);
    if (ev.error && !ev.readable) return kill(c);
    arm_write(c, static_cast<std::size_t>(ev.data));
  }

  /// Parses every complete response frame; false when the connection is
  /// unusable (EOF, socket error, malformed frame).
  bool read(Conn& c) {
    for (;;) {
      const std::size_t room = Conn::kBuf - c.rlen;
      const ssize_t n = ::read(c.fd.get(), c.rbuf + c.rlen, room);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      c.rlen += static_cast<std::size_t>(n);
      const Clock::time_point now = Clock::now();
      std::size_t off = 0;
      while (c.rlen - off >= wire::kHeaderBytes) {
        const std::uint32_t payload = wire::get_u32(c.rbuf + off);
        if (payload == 0 || payload > wire::kMaxPayload) return false;
        if (c.rlen - off < wire::kHeaderBytes + payload) break;
        const std::uint8_t* p = c.rbuf + off + wire::kHeaderBytes;
        wire::Response resp;
        if (static_cast<wire::FrameType>(p[0]) != wire::FrameType::kResponse ||
            !wire::decode_response(p, payload, &resp)) {
          return false;
        }
        record(resp, now);
        off += wire::kHeaderBytes + payload;
      }
      std::memmove(c.rbuf, c.rbuf + off, c.rlen - off);
      c.rlen -= off;
      if (static_cast<std::size_t>(n) < room) return true;
    }
  }

  void record(const wire::Response& resp, Clock::time_point now) {
    if (resp.tag >= plan_.size()) {
      ++report_.unknown_tags;
      return;
    }
    RequestOutcome& o = report_.requests[resp.tag];
    if (o.answered) {
      ++report_.duplicates;
      return;
    }
    o.answered = true;
    ++answered_;
    o.status = resp.status;
    o.violated_slo = resp.violated_slo != 0;
    o.rtt_ms = ms_between(due(resp.tag), now);
    o.job_ms = (resp.completion_ms - resp.arrival_ms) / opts_.time_scale;
  }

  void arm_write(Conn& c, std::size_t id) {
    if (c.pending() == c.want_write) return;
    c.want_write = c.pending();
    poller_.modify(c.fd.get(), id, c.want_write);
  }

  void kill(Conn& c) {
    if (c.dead) return;
    ++report_.errors;
    poller_.remove(c.fd.get());
    c.fd.reset();
    c.dead = true;
  }

  bool any_alive() const {
    for (const auto& c : conns_) {
      if (!c->dead) return true;
    }
    return false;
  }

  /// One FIN per live connection (the server's drain signal), flushed
  /// within a short bound.
  void send_fins() {
    std::uint8_t frame[wire::kMaxFrame];
    const std::size_t len = wire::encode_fin(frame);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      if (c.dead) continue;
      if (!c.queue(frame, len)) kill(c);
    }
    const Clock::time_point until = Clock::now() + std::chrono::seconds(2);
    for (;;) {
      bool pending = false;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = *conns_[i];
        if (c.dead) continue;
        if (!c.flush()) kill(c);
        pending = pending || (!c.dead && c.pending());
      }
      if (!pending || Clock::now() >= until) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const std::vector<PlannedRequest>& plan_;
  const ClientOptions& opts_;
  ClientReport report_;
  net::Poller poller_;
  std::vector<std::unique_ptr<Conn>> conns_;
  Clock::time_point anchor_{};
  std::size_t answered_ = 0;
};

}  // namespace

ClientReport run_open_loop(
    const std::vector<PlannedRequest>& plan, const ClientOptions& opts,
    const std::function<std::optional<Clock::time_point>()>& wait_anchor) {
  return Loop(plan, opts).run(wait_anchor);
}

}  // namespace perfbench
