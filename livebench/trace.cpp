#include "trace.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <cstdio>

namespace livebench {

namespace {

bool g_tracing = false;
SocketCounters g_sockets;

}  // namespace

void set_socket_tracing(bool on) { g_tracing = on; }
SocketCounters socket_counters() { return g_sockets; }

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tkey\ttype\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%u\n", s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.key), s.type);
  }
  if (overflow_ != 0) {
    std::fprintf(f, "# %llu spans past capacity not kept\n",
                 static_cast<unsigned long long>(overflow_));
  }
  return std::fclose(f) == 0;
}

void TimedTransport::set_receiver(Receiver receiver) {
  receiver_ = std::move(receiver);
  if (!receiver_) {
    inner_.set_receiver(nullptr);
    return;
  }
  inner_.set_receiver(
      [this](bftbc::sim::NodeId from, const bftbc::rpc::Envelope& env) {
        const std::uint64_t c0 = thread_cpu_ns();
        const std::uint64_t t0 = now_ns();
        receiver_(from, env);
        const std::uint64_t t1 = now_ns();
        deliveries_.add(t1 - t0, thread_cpu_ns() - c0);
        if (log_ != nullptr) {
          log_->add({span_name_, t0, t1, op_key_ ? *op_key_ : from,
                     static_cast<std::uint32_t>(env.type)});
        }
      });
}

bftbc::sim::TimerId TimedScheduler::schedule(bftbc::sim::Time delay,
                                             std::function<void()> fn) {
  return inner_.schedule(delay, [this, fn = std::move(fn)] {
    const std::uint64_t c0 = thread_cpu_ns();
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    callbacks_.add(t1 - t0, thread_cpu_ns() - c0);
    if (log_ != nullptr) log_->add({span_name_, t0, t1, 0, 0});
  });
}

}  // namespace livebench

// Linker-wrapped libc entry points (-Wl,--wrap=<name>): every reference
// to <name> in the linked objects, bftbc_net's included, resolves to
// __wrap_<name>, and __real_<name> is the libc function.
extern "C" {
ssize_t __real_sendto(int, const void*, size_t, int, const sockaddr*,
                      socklen_t);
ssize_t __real_recvfrom(int, void*, size_t, int, sockaddr*, socklen_t*);
int __real_epoll_wait(int, epoll_event*, int, int);
int __real_poll(pollfd*, nfds_t, int);

ssize_t __wrap_sendto(int fd, const void* buf, size_t len, int flags,
                      const sockaddr* to, socklen_t tolen) {
  using namespace livebench;
  if (!g_tracing) return __real_sendto(fd, buf, len, flags, to, tolen);
  const std::uint64_t c0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const ssize_t n = __real_sendto(fd, buf, len, flags, to, tolen);
  g_sockets.sendto.add(now_ns() - t0, thread_cpu_ns() - c0);
  if (n >= 0) ++g_sockets.sendto_ok;
  return n;
}

ssize_t __wrap_recvfrom(int fd, void* buf, size_t len, int flags,
                        sockaddr* from, socklen_t* fromlen) {
  using namespace livebench;
  if (!g_tracing) return __real_recvfrom(fd, buf, len, flags, from, fromlen);
  const std::uint64_t c0 = thread_cpu_ns();
  const std::uint64_t t0 = now_ns();
  const ssize_t n = __real_recvfrom(fd, buf, len, flags, from, fromlen);
  g_sockets.recvfrom.add(now_ns() - t0, thread_cpu_ns() - c0);
  if (n >= 0) ++g_sockets.recvfrom_ok;
  return n;
}

int __wrap_epoll_wait(int epfd, epoll_event* events, int maxevents,
                      int timeout) {
  using namespace livebench;
  if (!g_tracing) return __real_epoll_wait(epfd, events, maxevents, timeout);
  const std::uint64_t t0 = now_ns();
  const int n = __real_epoll_wait(epfd, events, maxevents, timeout);
  g_sockets.wait.add(now_ns() - t0);
  return n;
}

int __wrap_poll(pollfd* fds, nfds_t nfds, int timeout) {
  using namespace livebench;
  if (!g_tracing) return __real_poll(fds, nfds, timeout);
  const std::uint64_t t0 = now_ns();
  const int n = __real_poll(fds, nfds, timeout);
  g_sockets.wait.add(now_ns() - t0);
  return n;
}
}
