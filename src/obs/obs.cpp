#include "obs/obs.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/error.hpp"

namespace bstc::obs {

const char* category_name(Category cat) {
  switch (cat) {
    case Category::kTask: return "task";
    case Category::kCommTx: return "comm.tx";
    case Category::kCommRx: return "comm.rx";
    case Category::kBarrier: return "barrier";
    case Category::kPlan: return "plan";
    case Category::kServiceRequest: return "service.request";
    case Category::kPhase: return "phase";
    case Category::kServiceNet: return "service.net";
    case Category::kShm: return "shm";
    case Category::kExprTerm: return "expr.term";
    case Category::kTune: return "tune";
  }
  return "unknown";
}

std::uint32_t thread_lane() {
  static std::atomic<std::uint32_t> next{kThreadLaneBase};
  thread_local const std::uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

double Registry::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Registry::record(Category cat, std::string name, std::uint32_t lane,
                      double start_s, double end_s, std::uint64_t bytes) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{std::move(name), cat, lane, start_s, end_s, bytes});
}

void Registry::record_with(Category cat, std::string name, std::uint32_t lane,
                           double start_s, double end_s, std::uint64_t bytes,
                           const std::function<void()>& and_then) {
  std::lock_guard lock(mutex_);
  if (enabled()) {
    spans_.push_back(Span{std::move(name), cat, lane, start_s, end_s, bytes});
  }
  if (and_then) and_then();
}

void Registry::name_lane(std::uint32_t lane, std::string name) {
  std::lock_guard lock(mutex_);
  lane_names_[lane] = std::move(name);
}

void Registry::counter_add(const std::string& name, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  counters_[name] += delta;
}

void Registry::gauge_set(const std::string& name, std::int64_t value) {
  std::lock_guard lock(mutex_);
  gauges_[name] = value;
}

void Registry::observe(const std::string& name, double value, double lo,
                       double hi, std::size_t bins) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, HistogramData{Histogram(lo, hi, bins), 0.0})
             .first;
  }
  if (value > it->second.hist.hi()) {
    ++it->second.above;
  } else {
    it->second.hist.add(value);
  }
  it->second.sum += value;
}

std::vector<Span> Registry::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<Span> Registry::spans_with(
    const std::function<void()>& under_lock) const {
  std::lock_guard lock(mutex_);
  if (under_lock) under_lock();
  return spans_;
}

std::map<std::uint32_t, std::string> Registry::lane_names() const {
  std::lock_guard lock(mutex_);
  return lane_names_;
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

std::map<std::string, std::int64_t> Registry::gauges() const {
  std::lock_guard lock(mutex_);
  return gauges_;
}

std::map<std::string, HistogramData> Registry::histograms() const {
  std::lock_guard lock(mutex_);
  return histograms_;
}

void Registry::clear() {
  std::lock_guard lock(mutex_);
  spans_.clear();
  lane_names_.clear();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

ScopedSpan::ScopedSpan(Category cat, std::string name, std::uint64_t bytes)
    : ScopedSpan(cat, std::move(name), thread_lane(), bytes) {}

ScopedSpan::ScopedSpan(Category cat, std::string name, std::uint32_t lane,
                       std::uint64_t bytes)
    : active_(Registry::instance().enabled()) {
  if (!active_) return;
  cat_ = cat;
  name_ = std::move(name);
  lane_ = lane;
  bytes_ = bytes;
  start_s_ = Registry::instance().now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Registry& reg = Registry::instance();
  reg.record(cat_, std::move(name_), lane_, start_s_, reg.now(), bytes_);
}

namespace {

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string prometheus_text(const Registry& reg) {
  std::string out;
  for (const auto& [name, value] : reg.counters()) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : reg.gauges()) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, data] : reg.histograms()) {
    const Histogram& h = data.hist;
    std::size_t cumulative = 0;
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      cumulative += h.count(b);
      const double edge = b + 1 == h.bin_count()
                              ? h.hi()
                              : h.bin_lo(b) + h.bin_width();
      out += name + "_bucket{le=\"" + fmt_value(edge) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(data.count()) +
           "\n";
    out += name + "_sum " + fmt_value(data.sum) + "\n";
    out += name + "_count " + std::to_string(data.count()) + "\n";
  }
  // Span volume per category, so scrapes see tracing activity without
  // parsing the trace itself.
  if (reg.enabled()) {
    std::map<std::string, std::uint64_t> per_cat;
    for (const Span& s : reg.spans()) {
      per_cat[category_name(s.category)] += 1;
    }
    for (const auto& [cat, n] : per_cat) {
      out += "bstc_obs_spans_total{category=\"" + cat + "\"} " +
             std::to_string(n) + "\n";
    }
  }
  return out;
}

std::string label_rank(std::string_view text, int rank) {
  const std::string label = "rank=\"" + std::to_string(rank) + "\"";
  std::string out;
  out.reserve(text.size() + text.size() / 2);
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    if (line.empty() || line.front() == '#') {
      out += line;
    } else if (brace < space) {
      out.append(line, 0, brace + 1);
      out += label;
      if (line.compare(brace + 1, 1, "}") != 0) out += ',';
      out.append(line, brace + 1);
    } else {
      out.append(line, 0, space);
      out += "{" + label + "}";
      if (space != std::string_view::npos) out.append(line, space);
    }
    if (eol != std::string_view::npos) out += '\n';
  }
  return out;
}

double series_value(std::string_view text, std::string_view series) {
  double found = 0.0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (line.empty() || line.front() == '#') continue;
    // The series ends at its closing brace when it has labels (label
    // values may hold spaces), else at the first space.
    std::size_t end = line.find(' ');
    if (line.find('{') < end) {
      end = line.find('}');
      if (end != std::string_view::npos) ++end;
    }
    BSTC_REQUIRE(end != std::string_view::npos && end > 0 &&
                     end + 1 < line.size() && line[end] == ' ',
                 "exposition: malformed line: " + std::string(line));
    const std::string value(line.substr(end + 1));
    char* parsed = nullptr;
    const double v = std::strtod(value.c_str(), &parsed);
    BSTC_REQUIRE(parsed == value.c_str() + value.size(),
                 "exposition: malformed value: " + std::string(line));
    if (line.substr(0, end) == series) found = v;
  }
  return found;
}

}  // namespace bstc::obs
