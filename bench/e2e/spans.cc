#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace tcf::e2e {

void SpanLog::Merge(SpanBuffer& buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span>& spans = buffer.spans();
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  spans.clear();
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.DurationUs());
  }
  return out;
}

std::vector<double> SpanLog::PerRequestUs(const std::string& name,
                                          uint64_t first_request,
                                          size_t count) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out(count, 0.0);
  for (const Span& s : spans_) {
    if (name != s.name || s.request < first_request ||
        s.request - first_request >= count) {
      continue;
    }
    out[s.request - first_request] += s.DurationUs();
  }
  return out;
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}%s\n",
                 s.name, s.cat, (s.start_ns - origin) / 1e3,
                 s.DurationUs(), s.track,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace tcf::e2e
