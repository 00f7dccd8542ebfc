#include "trace.hpp"

#include <fstream>

namespace e2e {

int Tracer::intern(const std::string& name) {
  const auto [it, inserted] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int Tracer::begin(const std::string& name, std::uint64_t group) {
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.group = group;
  span.start = Clock::now();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  const Clock::time_point now = Clock::now();
  // Closing a span closes any span left open inside it (an exception
  // unwound past its end()).
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    spans_[static_cast<std::size_t>(top)].end = now;
    if (top == span) break;
  }
}

Tracer::Total Tracer::total(const std::string& name) const {
  Total t;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return t;
  for (const Span& s : spans_) {
    if (s.name != it->second) continue;
    t.seconds += seconds_between(s.start, s.end);
    ++t.count;
  }
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& s : spans_) {
    if (s.name == it->second) out.push_back(seconds_between(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += seconds_between(spans_[i].start, spans_[i].end);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          seconds_between(spans_[i].start, spans_[i].end);
    }
  }
  return self;
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us = seconds_between(origin_, s.start) * 1e6;
    const double dur_us = seconds_between(s.start, s.end) * 1e6;
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << names_[static_cast<std::size_t>(s.name)]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << ts_us << ",\"dur\":" << dur_us
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"group\":" << s.group
        << "}}";
  }
  out << "\n]}\n";
}

}  // namespace e2e
