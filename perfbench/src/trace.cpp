#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint32_t t_open_span = 0;
thread_local const Tracer* t_open_tracer = nullptr;

double TimevalMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}

void WriteJsonString(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalMs(usage.ru_utime) + TimevalMs(usage.ru_stime);
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::uint32_t Tracer::Open(std::string_view name, std::uint32_t parent) {
  const double now =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - origin_)
          .count();
  const double cpu = ProcessCpuMs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
  rec.parent = parent;
  rec.op = parent == 0 ? ++next_op_ : spans_[parent - 1].op;
  rec.name = std::string(name);
  rec.start_ms = now;
  rec.end_ms = now;
  spans_.push_back(std::move(rec));
  cpu_open_.push_back(cpu);
  return spans_.back().id;
}

void Tracer::Close(std::uint32_t id, std::uint64_t items) {
  const double now =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - origin_)
          .count();
  const double cpu = ProcessCpuMs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& rec = spans_[id - 1];
  rec.end_ms = now;
  rec.cpu_ms = cpu - cpu_open_[id - 1];
  rec.items = items;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool WriteSpansJson(const std::filesystem::path& path, const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{\"schema\":\"perfbench-spans/1\",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":";
    WriteJsonString(out, s.name);
    out << ",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << ",\"self_ms\":" << self[i] << ",\"cpu_ms\":" << s.cpu_ms
        << ",\"items\":" << s.items << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_parent_ = t_open_tracer == tracer_ ? t_open_span : 0;
  id_ = tracer_->Open(name, saved_parent_);
  t_open_span = id_;
  t_open_tracer = tracer_;
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->Close(id_, items_);
  t_open_span = saved_parent_;
  if (saved_parent_ == 0) t_open_tracer = nullptr;
}

std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      children[s.parent - 1].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of child intervals, clipped to the parent.
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = 0.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
      } else {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      }
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, SpanTimes> GroupByName(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, SpanTimes> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTimes& t = out[spans[i].name];
    t.duration_ms.push_back(spans[i].duration_ms());
    t.self_ms.push_back(self[i]);
    t.cpu_ms.push_back(spans[i].cpu_ms);
  }
  return out;
}

}  // namespace perfbench
