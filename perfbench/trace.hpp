#pragma once

// Span recorder and host-usage helpers for the benchmark driver.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each layer (a workload, a run_app call, a counter snapshot, a probe,
// the sweep child and each sweep cell it sees complete). They are kept in
// memory and written once, at the end, as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic time in seconds.
inline double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v`; 0 when `v` is empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// getrusage() of RUSAGE_SELF or RUSAGE_CHILDREN, in benchmark units.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long minflt = 0;
  double maxrss_mb = 0;  ///< peak resident set (MB = 2^20 bytes)

  double cpu_s() const { return user_s + sys_s; }
};

inline Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minflt = ru.ru_minflt;
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

class Tracer {
 public:
  /// Recording switch; while off, begin()/end()/add() record nothing.
  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// Opens a span whose parent is the innermost open span. Returns its id
  /// (-1 while disabled).
  int begin(std::string name, std::string scenario, int tid = 1) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), std::move(scenario), mono_s(), 0,
                      open_.empty() ? -1 : open_.back(), tid});
    open_.push_back(id);
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = mono_s();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Records an interval observed after the fact (a sweep cell seen
  /// complete), parented to the innermost open span.
  void add(std::string name, std::string scenario, double start, double end,
           int tid) {
    if (!on_) return;
    spans_.push_back({std::move(name), std::move(scenario), start, end,
                      open_.empty() ? -1 : open_.back(), tid});
  }

  std::size_t size() const { return spans_.size(); }

  /// Writes every span as a complete ("X") trace event; false on I/O error.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                   "\"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": "
                   "%.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                   "\"scenario\": \"%s\"}}\n",
                   i == 0 ? "" : ",", escaped(s.name).c_str(), s.tid,
                   (s.start - origin_) * 1e6, (s.end - s.start) * 1e6, i,
                   s.parent, escaped(s.scenario).c_str());
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::string scenario;
    double start = 0;
    double end = 0;
    int parent = -1;
    int tid = 1;
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
  }

  bool on_ = false;
  double origin_ = mono_s();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Closes a span when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::string scenario = "")
      : t_(t), id_(t.begin(std::move(name), std::move(scenario))) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
