#include "spans.hpp"

#include <cstring>
#include <ostream>

namespace e2e {

std::size_t SpanLog::open(const char* name) {
  SpanRecord rec;
  rec.name = name;
  rec.request = request_;
  rec.pass = pass_;
  rec.parent = open_.empty() ? kNoParent
                             : static_cast<std::int64_t>(open_.back());
  rec.start_ns = now_ns();
  spans_.push_back(rec);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) noexcept {
  // ScopedSpan closes in LIFO order, so `index` is the innermost open span.
  open_.pop_back();
  spans_[index].end_ns = now_ns();
}

Tracer::Tracer(std::size_t threads) {
  for (std::size_t t = 0; t < threads; ++t)
    logs_.emplace_back(static_cast<std::uint32_t>(t));
}

void Tracer::write(std::ostream& os) const {
  os << "thread\tpass\trequest\tindex\tparent\tname\tstart_ns\tend_ns\tself_ns\n";
  for (const SpanLog& log : logs_) {
    const std::vector<double> self = self_seconds(log.spans());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const SpanRecord& s = log.spans()[i];
      os << log.thread() << '\t' << s.pass << '\t' << s.request << '\t' << i
         << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns << '\t'
         << s.end_ns << '\t' << static_cast<std::int64_t>(self[i] * 1e9)
         << '\n';
    }
  }
}

std::vector<double> self_seconds(std::span<const SpanRecord> spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const SpanRecord& s : spans) {
    if (s.parent != kNoParent)
      self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

void RequestCoverage::add(std::span<const SpanRecord> spans) {
  const std::vector<double> self = self_seconds(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, "request") != 0) continue;
    request_s += spans[i].seconds();
    covered_s += spans[i].seconds() - self[i];
  }
}

}  // namespace e2e
