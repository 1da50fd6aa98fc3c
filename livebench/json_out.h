// A flat-enough JSON writer for the one-line reports the generator and
// the traced replica host print for run.py. Keys and string values are
// benchmark-chosen identifiers, so no escaping beyond quotes is needed.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "trace.h"

namespace livebench {

class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return raw(key, buf);
  }
  JsonOut& u64(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonOut& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonOut& obj(const std::string& key, const JsonOut& v) {
    return raw(key, v.text());
  }
  JsonOut& counters(const std::string& key,
                    const std::map<std::string, std::uint64_t>& m) {
    JsonOut o;
    for (const auto& [k, v] : m) o.u64(k, v);
    return obj(key, o);
  }
  JsonOut& time_stat(const std::string& key, const TimeStat& t) {
    return obj(key, JsonOut()
                        .u64("count", t.count)
                        .u64("ns", t.ns)
                        .u64("cpu_ns", t.cpu_ns));
  }
  JsonOut& sockets(const std::string& key, const SocketCounters& s) {
    return obj(key, JsonOut()
                        .time_stat("sendto", s.sendto)
                        .u64("sendto_ok", s.sendto_ok)
                        .time_stat("recvfrom", s.recvfrom)
                        .u64("recvfrom_ok", s.recvfrom_ok)
                        .time_stat("wait", s.wait));
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonOut& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

// end - start, key by key (counters only grow).
inline std::map<std::string, std::uint64_t> counter_delta(
    const std::map<std::string, std::uint64_t>& start,
    const std::map<std::string, std::uint64_t>& end) {
  std::map<std::string, std::uint64_t> d;
  for (const auto& [k, v] : end) {
    auto it = start.find(k);
    d[k] = v - (it == start.end() ? 0 : it->second);
  }
  return d;
}

}  // namespace livebench
