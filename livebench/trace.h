// Tracing from outside the library: timing decorators for the two
// interfaces protocol nodes are built on (rpc::Transport, sim::Scheduler),
// counting wrappers around the socket and wait calls that net::UdpTransport
// and net::EventLoop make, and an in-memory span log written out at exit.
//
// Nothing here changes what the wrapped object does: every call and every
// callback is forwarded unchanged; the decorators only add a clock read
// before and after. Everything is single-threaded, like the event loop
// whose calls it wraps.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "rpc/transport.h"
#include "sim/simulator.h"

namespace livebench {

inline std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// CPU time of the calling thread (user + system), in nanoseconds.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Count and total duration of one kind of timed call: wall time, and
// (for the decorators) the calling thread's CPU time, which excludes any
// time the thread spent preempted inside the call.
struct TimeStat {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
  std::uint64_t cpu_ns = 0;
  void add(std::uint64_t wall, std::uint64_t cpu = 0) {
    ++count;
    ns += wall;
    cpu_ns += cpu;
  }
  TimeStat operator-(const TimeStat& o) const {
    return {count - o.count, ns - o.ns, cpu_ns - o.cpu_ns};
  }
};

// Totals kept by the linker-wrapped socket calls (see trace.cpp).
// `*_ok` counts calls that moved a datagram (return value >= 0).
struct SocketCounters {
  TimeStat sendto;
  std::uint64_t sendto_ok = 0;
  TimeStat recvfrom;
  std::uint64_t recvfrom_ok = 0;
  TimeStat wait;  // epoll_wait + poll: time the loop sat blocked
  SocketCounters operator-(const SocketCounters& o) const {
    return {sendto - o.sendto, sendto_ok - o.sendto_ok,
            recvfrom - o.recvfrom, recvfrom_ok - o.recvfrom_ok,
            wait - o.wait};
  }
};

// Off by default: the wrappers then forward without reading the clock.
void set_socket_tracing(bool on);
SocketCounters socket_counters();

struct Span {
  const char* name = "";  // a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t key = 0;   // op id (client) or sender node (replica)
  std::uint32_t type = 0;  // rpc::MsgType of the envelope, if any
};

// Spans kept in memory up to a fixed capacity; later spans are counted
// but not kept, so a long run cannot grow without bound.
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }
  void add(const Span& s) {
    if (spans_.size() < capacity_) {
      spans_.push_back(s);
    } else {
      ++overflow_;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t overflow() const { return overflow_; }
  // One tab-separated line per span: name, start, end, key, type.
  [[nodiscard]] bool write_tsv(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t overflow_ = 0;
};

// rpc::Transport decorator: forwards send() and the receiver callback,
// timing each delivery into the wrapped node.
class TimedTransport final : public bftbc::rpc::Transport {
 public:
  // `log` may be null. When `op_key` is set, delivery spans carry *op_key
  // (the node's current op id) instead of the sender.
  TimedTransport(bftbc::rpc::Transport& inner, const char* span_name,
                 SpanLog* log, const std::uint64_t* op_key = nullptr)
      : inner_(inner), span_name_(span_name), log_(log), op_key_(op_key) {}

  bftbc::sim::NodeId node_id() const override { return inner_.node_id(); }
  void send(bftbc::sim::NodeId to, const bftbc::rpc::Envelope& env) override {
    inner_.send(to, env);
  }
  void set_receiver(Receiver receiver) override;

  const TimeStat& deliveries() const { return deliveries_; }

 private:
  bftbc::rpc::Transport& inner_;
  const char* span_name_;
  SpanLog* log_;
  const std::uint64_t* op_key_;
  Receiver receiver_;
  TimeStat deliveries_;
};

// sim::Scheduler decorator: forwards now/schedule/cancel, timing each
// timer callback the wrapped node scheduled.
class TimedScheduler final : public bftbc::sim::Scheduler {
 public:
  TimedScheduler(bftbc::sim::Scheduler& inner, const char* span_name,
                 SpanLog* log)
      : inner_(inner), span_name_(span_name), log_(log) {}

  bftbc::sim::Time now() const override { return inner_.now(); }
  bftbc::sim::TimerId schedule(bftbc::sim::Time delay,
                               std::function<void()> fn) override;
  void cancel(bftbc::sim::TimerId id) override { inner_.cancel(id); }

  const TimeStat& callbacks() const { return callbacks_; }

 private:
  bftbc::sim::Scheduler& inner_;
  const char* span_name_;
  SpanLog* log_;
  TimeStat callbacks_;
};

}  // namespace livebench
