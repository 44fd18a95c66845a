// Span recording for tahoe_perf's traced runs.
//
// A span is {name, start, end, parent, workload, pass}. Spans are kept in
// memory and written as Chrome trace JSON when the run ends. They are
// recorded only around calls *into* the runtime's layers, from the
// harness's own files: the forwarding decorators below wrap the public
// Policy / Application interfaces that Runtime calls back into, and the
// workloads open spans around each Runtime::run / run_real_report /
// run_serve call. Nothing inside src/ is instrumented.
//
// Span names are "<layer>.<what>[.<detail>]"; the layer prefix (core, task,
// hms, serve, runtime) is what the per-layer self-time breakdown groups
// by. "pass" and "runtime.*" spans are workload/Runtime glue: their self
// time is the residual no layer span covers.
//
// Every decorated call happens on the harness's main thread (the real
// executor's workers run task bodies, never these hooks), so the recorder
// takes no locks.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/application.hpp"

namespace tahoe::perf {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span; -1 for a root
  std::string workload;
  int pass = -1;       ///< measured-pass index; -1 for set-up and probes
};

class SpanRecorder {
 public:
  SpanRecorder();

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Workload and pass stamped on every span opened from now on.
  void set_context(const std::string& workload, int pass);

  /// Open a span nested in the innermost open one; returns its index.
  int open(const std::string& name);
  void close(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration minus the summed durations of the span's direct children.
  double self_seconds(std::size_t index) const;

  /// Chrome trace_event JSON ("X" events, microseconds).
  void write_chrome_json(std::ostream& os) const;

 private:
  bool enabled_ = false;
  double epoch_ = 0.0;
  std::string workload_;
  int pass_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> child_seconds_;  ///< per span, closed children's total
};

/// The process-wide recorder the decorators and workloads write to.
SpanRecorder& recorder();

/// Seconds on the steady clock (the recorder's time base).
double now_seconds();

/// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name)
      : index_(recorder().enabled() ? recorder().open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) recorder().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Forwarding Policy decorator: spans every decide() as `span_name` and
/// keeps the schedule of the last decision (the one a run enforces).
class TimedPolicy : public core::Policy {
 public:
  TimedPolicy(core::Policy& inner, std::string span_name)
      : inner_(inner), span_name_(std::move(span_name)) {}

  std::string name() const override { return inner_.name(); }
  bool needs_profiling() const override { return inner_.needs_profiling(); }
  core::PlanDecision decide(const core::PlanInputs& in) override;

  const std::vector<task::ScheduledCopy>& last_schedule() const noexcept {
    return last_schedule_;
  }

 private:
  core::Policy& inner_;
  std::string span_name_;
  std::vector<task::ScheduledCopy> last_schedule_;
};

/// Forwarding Application decorator: spans setup() as "hms.setup.<app>"
/// (object allocation and initialization), build_iteration() as
/// "task.graph.<app>" and verify() as "workloads.verify.<app>".
class TimedApp : public core::Application {
 public:
  explicit TimedApp(std::unique_ptr<core::Application> inner);

  std::string name() const override { return inner_->name(); }
  std::size_t iterations() const override { return inner_->iterations(); }
  void setup(hms::ObjectRegistry& registry,
             const hms::ChunkingPolicy& chunking) override;
  void build_iteration(task::GraphBuilder& builder,
                       std::size_t iteration) override;
  bool verify(hms::ObjectRegistry& registry) override;

 private:
  std::unique_ptr<core::Application> inner_;
  std::string setup_span_;
  std::string graph_span_;
  std::string verify_span_;
};

}  // namespace tahoe::perf
