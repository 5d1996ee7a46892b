// In-memory span recorder for the traced run.
//
// Spans are recorded around calls into the library's public functions,
// on one thread: name, start, end, parent span, and a trial id shared by
// every span of one trial.  Nothing is written until the run ends; then
// the spans are exported as Chrome trace-event JSON (opens in Perfetto)
// and folded into per-name self times (a span's duration minus the time
// its direct children cover).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the recorder, -1 = root
  std::uint64_t trial = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

class span_recorder {
 public:
  explicit span_recorder(std::size_t reserve = 1 << 16) {
    spans_.reserve(reserve);
  }

  // Starts a trial: spans opened until the next call share this id.
  void next_trial() { ++trial_; }

  std::size_t open(const char* name) {
    span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.trial = trial_;
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }

  void close(std::size_t idx) {
    spans_[idx].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  const std::vector<span>& spans() const { return spans_; }

  // Sum of self time per span name.
  std::map<std::string, std::uint64_t> self_ns_by_name() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.duration_ns();
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += spans_[i].duration_ns() - child_ns[i];
    return out;
  }

  // Sum of the root spans' durations: the attributed part of the wall.
  std::uint64_t root_ns() const {
    std::uint64_t t = 0;
    for (const span& s : spans_)
      if (s.parent < 0) t += s.duration_ns();
    return t;
  }

  // Chrome trace-event JSON of the first `count` spans: one complete
  // ("X") event per span on a single track, timestamps in microseconds
  // from the first span.
  void write_chrome_trace(std::ostream& os, const std::string& label,
                          std::size_t count) const {
    count = std::min(count, spans_.size());
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"label\":\"" << label
       << "\"},\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"perfbench traced run\"}}";
    char buf[64];
    for (std::size_t i = 0; i < count; ++i) {
      const span& s = spans_[i];
      os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << s.name
         << "\",\"ts\":";
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(s.start_ns - t0) / 1e3);
      os << buf << ",\"dur\":";
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(s.duration_ns()) / 1e3);
      os << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
         << ",\"trial\":" << s.trial << "}}";
    }
    os << "\n]}\n";
  }

 private:
  std::vector<span> spans_;
  std::vector<std::size_t> stack_;
  std::uint64_t trial_ = 0;
};

// RAII span; a null recorder makes it a no-op, so one code path serves
// the traced and the untraced pass.
class scoped_span {
 public:
  scoped_span(span_recorder* rec, const char* name) : rec_(rec) {
    if (rec_) idx_ = rec_->open(name);
  }
  ~scoped_span() { stop(); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  void stop() {
    if (rec_) rec_->close(idx_);
    rec_ = nullptr;
  }

 private:
  span_recorder* rec_;
  std::size_t idx_ = 0;
};

}  // namespace perfbench
