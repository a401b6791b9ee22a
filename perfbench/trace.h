#pragma once

// Span recorder for the traced run.  Spans are kept in memory and written
// once, as Chrome trace-event JSON (open with chrome://tracing or Perfetto).
// Every span also adds its duration to a per-name total, which is what the
// per-layer metrics report.  A disabled tracer records nothing.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pb {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  bool on() const { return on_; }

  /// RAII span: [construction, destruction) under `name`.
  class Span {
   public:
    Span(Tracer& tr, const char* name)
        : tr_(tr), name_(name), start_(Clock::now()) {}
    ~Span() { tr_.record(name_, start_, Clock::now()); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tr_;
    const char* name_;
    Clock::time_point start_;
  };

  void record(const char* name, Clock::time_point start,
              Clock::time_point end) {
    if (!on_) return;
    double us0 = us(start), us1 = us(end);
    events_.push_back({name, us0, us1 - us0});
    seconds_[name] += (us1 - us0) / 1e6;
  }

  /// Counter at a layer boundary (counts, not times).
  void count(const std::string& name, double v) {
    if (on_) counts_[name] += v;
  }
  void maximum(const std::string& name, double v) {
    if (on_ && v > counts_[name]) counts_[name] = v;
  }

  const std::map<std::string, double>& seconds() const { return seconds_; }
  const std::map<std::string, double>& counts() const { return counts_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write(const std::string& path, const std::string& process) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":1,\"args\":{\"name\":\"%s\"}}",
                 process.c_str());
    for (const Event& e : events_) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   e.name, e.ts, e.dur);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    const char* name;
    double ts, dur;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  bool on_;
  Clock::time_point t0_;
  std::vector<Event> events_;
  std::map<std::string, double> seconds_;
  std::map<std::string, double> counts_;
};

}  // namespace pb
