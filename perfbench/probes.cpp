#include "probes.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

namespace lingxi::perfbench {

std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double process_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Samples::sum() const noexcept {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const noexcept {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent, std::string subject) {
  const std::uint64_t start = wall_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.name = std::move(name);
  span.subject = std::move(subject);
  span.start_ns = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanLog::end(std::uint64_t id) {
  const std::uint64_t stop = wall_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_.at(id - 1);
  span.end_ns = stop;
  return static_cast<double>(stop - span.start_ns) * 1e-9;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool SpanLog::write_chrome_json(const std::string& path,
                                const std::string& provenance_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"provenance\": %s,\n \"traceEvents\": [\n", provenance_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"subject\": \"%s\"}}%s\n",
                 json_escape(s.name).c_str(), static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), json_escape(s.subject).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint64_t parent,
                       std::string subject)
    : log_(log), start_ns_(wall_ns()) {
  if (log_ != nullptr) id_ = log_->begin(std::move(name), parent, std::move(subject));
}

double ScopedSpan::stop() {
  if (elapsed_s_ < 0.0) {
    elapsed_s_ = log_ != nullptr ? log_->end(id_)
                                 : static_cast<double>(wall_ns() - start_ns_) * 1e-9;
  }
  return elapsed_s_;
}

CallTally::Slot& CallTally::local_slot() {
  // Per-thread cache of (tally, slot) pairs; a tally is looked up by address,
  // and every tally outlives the threads that record into it.
  thread_local std::vector<std::pair<const CallTally*, Slot*>> cache;
  for (const auto& [tally, slot] : cache) {
    if (tally == this) return *slot;
  }
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(std::make_unique<Slot>());
  cache.emplace_back(this, slots_.back().get());
  return *slots_.back();
}

void CallTally::record(std::uint64_t ns) noexcept {
  Slot& slot = local_slot();
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  slot.ns.fetch_add(ns, std::memory_order_relaxed);
}

CallTally::Totals CallTally::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  for (const auto& slot : slots_) {
    t.calls += slot->calls.load(std::memory_order_relaxed);
    t.ns += slot->ns.load(std::memory_order_relaxed);
  }
  return t;
}

ProbedAbr::ProbedAbr(std::unique_ptr<abr::AbrAlgorithm> inner, AbrProbe& probe)
    : inner_(std::move(inner)), probe_(probe) {
  params_ = inner_->params();
}

std::size_t ProbedAbr::select(const sim::AbrObservation& obs) {
  const std::uint64_t start = wall_ns();
  const std::size_t level = inner_->select(obs);
  probe_.select.record(wall_ns() - start);
  return level;
}

void ProbedAbr::set_params(const abr::QoeParams& params) {
  inner_->set_params(params);
  params_ = inner_->params();
}

std::unique_ptr<abr::AbrAlgorithm> ProbedAbr::clone() const {
  probe_.clones.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<ProbedAbr>(inner_->clone(), probe_);
}

void ProbedSink::record_session(const telemetry::SessionContext& ctx,
                                const sim::SessionResult& session) {
  const std::uint64_t start = wall_ns();
  inner_.record_session(ctx, session);
  record_session_.record(wall_ns() - start);
}

}  // namespace lingxi::perfbench
