#include "tls_load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <deque>
#include <random>
#include <span>
#include <stdexcept>
#include <string>

#include "ssl/async/connection.hpp"
#include "ssl/async/transport.hpp"

namespace perfbench {

using phissl::ssl::async::ScriptedClient;
namespace detail = phissl::ssl::async::detail;

namespace {

constexpr std::uint64_t kTimerTag = ~std::uint64_t{0};
// A phase that makes no progress for this long is a hung server; the run
// fails rather than waiting out the driver's timeout.
constexpr std::uint64_t kStallNs = 30'000'000'000ULL;

struct Slot {
  std::optional<ScriptedClient> client;
  int fd = -1;
  std::size_t conn = 0;  // index into PhaseResult::conns
  int stage = 0;         // client flights emitted after the ClientHello
  bool connecting = true;
  bool want_out = true;
  std::vector<std::uint8_t> stash;
  std::size_t stash_off = 0;
};

void set_timer(int tfd, std::uint64_t at_ns) {
  itimerspec its{};
  // An absolute steady-clock deadline; 0 would disarm, so clamp to 1 ns.
  const std::uint64_t t = at_ns == 0 ? 1 : at_ns;
  its.it_value.tv_sec = static_cast<time_t>(t / 1'000'000'000ULL);
  its.it_value.tv_nsec = static_cast<long>(t % 1'000'000'000ULL);
  ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
}

}  // namespace

TlsLoad::TlsLoad(const phissl::rsa::Engine& engine, std::uint16_t port,
                 std::size_t identities, Tracer& tracer)
    : engine_(engine), port_(port), tracer_(tracer), identities_(identities) {}

PhaseResult TlsLoad::run(const PhaseSpec& spec) {
  PhaseResult res;
  res.conns.resize(spec.count);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (ep < 0 || tfd < 0) throw std::runtime_error("perfbench: epoll/timerfd");
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev);
  }

  const bool open_loop = spec.rate_per_s > 0.0;
  const std::size_t window = std::max<std::size_t>(1, spec.window);
  std::deque<Slot> slots;  // stable addresses while slots are added
  std::vector<std::size_t> free_slots;
  std::size_t opened = 0, settled = 0;

  std::mt19937_64 arrivals(detail::mix(spec.seed ^ 0xa881'4a11ULL));
  std::exponential_distribution<double> gap_s(open_loop ? spec.rate_per_s : 1.0);

  const std::uint64_t cpu0 = thread_cpu_ns();
  res.start_ns = now_ns();
  std::uint64_t next_sched = res.start_ns;
  std::uint64_t last_progress = res.start_ns;
  const std::size_t pool = identities_.size();
  const std::size_t base = next_index_;

  const auto set_interest = [&](std::size_t s, bool want_out) {
    Slot& sl = slots[s];
    if (sl.want_out == want_out) return;
    sl.want_out = want_out;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = s;
    ::epoll_ctl(ep, EPOLL_CTL_MOD, sl.fd, &ev);
  };

  const auto record_spans = [&](std::size_t idx) {
    const ConnStamps& c = res.conns[idx];
    const std::uint64_t id = base + idx + 1;
    tracer_.span("conn", c.sched, c.done, id);
    if (c.open > c.sched) tracer_.span("gen.late", c.sched, c.open, id, id);
    tracer_.span("connect", c.open, c.connected, id, id);
    if (c.out1 != 0) tracer_.span("flight1", c.connected, c.out1, id, id);
    if (c.out2 != 0) tracer_.span("flight2", c.out1, c.out2, id, id);
    const std::uint64_t echo_from = c.out2 != 0 ? c.out2 : c.out1;
    if (echo_from != 0) tracer_.span("echo", echo_from, c.done, id, id);
  };

  const auto teardown = [&](std::size_t s, bool ok) {
    Slot& sl = slots[s];
    ConnStamps& c = res.conns[sl.conn];
    c.done = now_ns();
    c.ok = ok;
    if (ok) {
      ++res.completed;
      c.resumed = sl.client->resumed();
      if (c.resumed) ++res.resumed;
      const std::size_t global = base + sl.conn;
      if (spec.bank_sessions && !c.resumed && sl.client->has_resumable()) {
        identities_[global % pool] = sl.client->resumable();
      }
    } else {
      ++res.failed;
    }
    if (spec.trace_chunk > 0) {
      tracer_.on = ((res.completed + res.failed) / spec.trace_chunk) % 2 == 1;
    }
    if (tracer_.on) record_spans(sl.conn);
    ::close(sl.fd);
    sl.fd = -1;
    sl.client.reset();
    sl.stash.clear();
    sl.stash_off = 0;
    ++settled;
    last_progress = c.done;
    free_slots.push_back(s);
  };

  const auto pump = [&](std::size_t s) {
    Slot& sl = slots[s];
    if (sl.fd < 0) return;
    ConnStamps& c = res.conns[sl.conn];
    if (sl.connecting) {
      int err = 0;
      socklen_t elen = sizeof(err);
      ::getsockopt(sl.fd, SOL_SOCKET, SO_ERROR, &err, &elen);
      if (err == EINPROGRESS || err == EALREADY) return;
      if (err != 0) return teardown(s, false);
      sl.connecting = false;
      c.connected = now_ns();
    }
    std::array<std::uint8_t, 16 * 1024> buf;
    bool received = false;
    for (;;) {
      const ssize_t n = ::recv(sl.fd, buf.data(), buf.size(), 0);
      if (n > 0) {
        sl.client->on_server_bytes(
            std::span<const std::uint8_t>(buf.data(), static_cast<std::size_t>(n)));
        received = true;
        continue;
      }
      if (n == 0) {
        if (!sl.client->done()) return teardown(s, false);
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return teardown(s, false);
    }
    if (sl.client->failed()) return teardown(s, false);
    if (received && !sl.client->done() && sl.client->output_pending() > 0) {
      // A new client flight: the server's previous flight was consumed.
      ++sl.stage;
      (sl.stage == 1 ? c.out1 : c.out2) = now_ns();
    }
    for (;;) {
      if (sl.stash_off >= sl.stash.size()) {
        sl.stash.clear();
        sl.stash_off = 0;
        if (sl.client->output_pending() == 0) break;
        sl.stash = sl.client->take_output();
      }
      const ssize_t n = ::send(sl.fd, sl.stash.data() + sl.stash_off,
                               sl.stash.size() - sl.stash_off, MSG_NOSIGNAL);
      if (n >= 0) {
        sl.stash_off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return teardown(s, false);
    }
    const bool flushed = sl.stash_off >= sl.stash.size() && sl.client->output_pending() == 0;
    if (sl.client->done() && flushed) return teardown(s, true);
    set_interest(s, !flushed);
  };

  const auto open_one = [&](std::uint64_t sched) {
    if (free_slots.empty()) {
      free_slots.push_back(slots.size());
      slots.emplace_back();
    }
    const std::size_t s = free_slots.back();
    free_slots.pop_back();
    Slot& sl = slots[s];
    const std::size_t idx = opened++;
    const std::size_t global = base + idx;
    ConnStamps& c = res.conns[idx];
    c.sched = sched;
    c.open = now_ns();
    sl.conn = idx;
    sl.stage = 0;
    sl.connecting = true;
    sl.want_out = true;
    std::optional<phissl::ssl::ResumableSession> resume;
    if (spec.offer_resumption) resume = identities_[global % pool];
    sl.client.emplace(engine_, detail::mix(spec.seed ^ detail::mix(global + 1)),
                      std::move(resume));
    sl.client->start();
    sl.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (sl.fd < 0) return teardown(s, false);
    const int one = 1;
    ::setsockopt(sl.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (::connect(sl.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      sl.connecting = false;
      c.connected = now_ns();
    } else if (errno != EINPROGRESS) {
      return teardown(s, false);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP;
    ev.data.u64 = s;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, sl.fd, &ev);
  };

  // Opens every connection that is due: arrivals whose scheduled time has
  // passed (open loop), or enough to refill the window (closed loop). Run
  // between pumps so a burst of socket events cannot delay an arrival.
  const auto open_due = [&] {
    if (!open_loop) {
      while (opened < spec.count && opened - settled < window) open_one(now_ns());
      return;
    }
    bool opened_any = false;
    while (opened < spec.count && now_ns() >= next_sched) {
      open_one(next_sched);
      next_sched += static_cast<std::uint64_t>(gap_s(arrivals) * 1e9);
      opened_any = true;
    }
    if (opened_any && opened < spec.count) set_timer(tfd, next_sched);
  };

  if (open_loop) set_timer(tfd, next_sched);
  std::array<epoll_event, 128> events;
  while (settled < spec.count) {
    open_due();
    const int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()), 1000);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      if (tag == kTimerTag) {
        std::uint64_t expirations = 0;
        (void)!::read(tfd, &expirations, sizeof expirations);
      } else {
        pump(static_cast<std::size_t>(tag));
      }
      open_due();
    }
    if (now_ns() - last_progress > kStallNs) break;
  }
  // A stalled phase leaves connections unsettled: count them failed.
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].fd >= 0) teardown(s, false);
  }
  res.failed += spec.count - opened;
  res.end_ns = now_ns();
  res.gen_cpu_ns = thread_cpu_ns() - cpu0;
  ::close(tfd);
  ::close(ep);
  next_index_ += spec.count;
  return res;
}

}  // namespace perfbench
