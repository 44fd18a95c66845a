#include "spans.hpp"

#include <unistd.h>

#include <chrono>

#include "common/assert.hpp"
#include "trace/json.hpp"

namespace tahoe::perf {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : epoch_(now_seconds()) {}

void SpanRecorder::set_context(const std::string& workload, int pass) {
  workload_ = workload;
  pass_ = pass;
}

int SpanRecorder::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.workload = workload_;
  s.pass = pass_;
  s.start = now_seconds() - epoch_;
  spans_.push_back(std::move(s));
  child_seconds_.push_back(0.0);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  TAHOE_REQUIRE(!open_.empty() && open_.back() == index,
                "spans must close innermost-first");
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = now_seconds() - epoch_;
  if (s.parent >= 0) {
    child_seconds_[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
}

double SpanRecorder::self_seconds(std::size_t index) const {
  const Span& s = spans_.at(index);
  return (s.end - s.start) - child_seconds_[index];
}

void SpanRecorder::write_chrome_json(std::ostream& os) const {
  trace::JsonWriter w(os);
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .kv("name", s.name)
        .kv("ph", "X")
        .kv("ts", s.start * 1e6)
        .kv("dur", (s.end - s.start) * 1e6)
        .kv("pid", std::int64_t{getpid()})
        .kv("tid", std::int64_t{1});
    w.key("args")
        .begin_object()
        .kv("index", static_cast<std::uint64_t>(i))
        .kv("parent", std::int64_t{s.parent})
        .kv("workload", s.workload)
        .kv("pass", std::int64_t{s.pass})
        .end_object();
    w.end_object();
  }
  w.end_array().end_object();
  os << '\n';
}

SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

core::PlanDecision TimedPolicy::decide(const core::PlanInputs& in) {
  core::PlanDecision d;
  {
    const ScopedSpan span(span_name_);
    d = inner_.decide(in);
  }
  last_schedule_ = d.schedule;
  return d;
}

TimedApp::TimedApp(std::unique_ptr<core::Application> inner)
    : inner_(std::move(inner)),
      setup_span_("hms.setup." + inner_->name()),
      graph_span_("task.graph." + inner_->name()),
      verify_span_("workloads.verify." + inner_->name()) {}

void TimedApp::setup(hms::ObjectRegistry& registry,
                     const hms::ChunkingPolicy& chunking) {
  const ScopedSpan span(setup_span_);
  inner_->setup(registry, chunking);
}

void TimedApp::build_iteration(task::GraphBuilder& builder,
                               std::size_t iteration) {
  const ScopedSpan span(graph_span_);
  inner_->build_iteration(builder, iteration);
}

bool TimedApp::verify(hms::ObjectRegistry& registry) {
  const ScopedSpan span(verify_span_);
  return inner_->verify(registry);
}

}  // namespace tahoe::perf
