// EXECUTOR: raw task-throughput of the real work-stealing executors,
// head-to-head across backends (Chase–Lev shared deques vs the
// channel/steal-half design) and across a worker sweep, in four regimes:
//
//   empty    independent no-op tasks: pure scheduling overhead
//   kernel   independent tasks of a few hundred flops: the paper's
//            fine-grained task-parallel regime
//   fib      recursive Fibonacci dependence tree (post-order fan-in):
//            spawn-heavy, deep, one hot path — the classic work-stealing
//            stress test where steal-half pays off
//   nqueens  N-queens search tree (pre-order fan-out): spawn-heavy with
//            irregular branching
//
// Each (mode, backend, workers) cell reports the best rep so that one
// descheduled rep on a shared box does not poison the number. fib and
// nqueens verify their results every rep — a scheduler bug that drops or
// reorders work shows up as a wrong sum, not just a slow cell.
//
//   bench/bench_executor_throughput [--backend both|chaselev|channel]
//       [--modes empty,kernel,fib,nqueens] [--tasks N] [--fib-n N]
//       [--queens-n N] [--reps R] [--quick] [--csv] [--report-json FILE]
//       [--check] [--check-workers W] [--check-min-ratio F]
//
// With --report-json every cell appends one RunReport JSON line
// (workload "executor_throughput", policy = mode, strategy =
// "<backend>:<N>w", iteration_seconds = per-rep wall times) plus the
// executor counters from the global registry.
//
// --check turns the run into a head-to-head gate: on the fib cell at
// --check-workers workers, the channel backend's best throughput must be
// at least --check-min-ratio times the Chase–Lev backend's (exit 1
// otherwise). Requires --backend both and a fib mode.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "task/channel_executor.hpp"
#include "task/executor.hpp"
#include "trace/counters.hpp"

namespace {

using namespace tahoe;

// A volatile sink keeps the kernel loop from folding away.
volatile double g_sink = 0.0;
void benchmark_sink(double v) { g_sink = v; }

std::uint64_t fib_iterative(int n) {
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

task::DataAccess obj_access(std::size_t obj, task::AccessMode mode) {
  task::DataAccess a;
  a.object = static_cast<hms::ObjectId>(obj);
  a.mode = mode;
  a.traffic.loads = 1;
  a.traffic.footprint = 64;
  return a;
}

/// One benchmark workload: a graph plus the state its tasks write and the
/// check that state must pass after every rep.
struct Workload {
  task::TaskGraph graph;
  std::size_t tasks = 0;
  std::function<void()> reset;    // before each rep (may be empty)
  std::function<bool()> verify;   // after each rep (may be empty)
};

Workload make_flat(std::size_t tasks, bool kernel) {
  task::GraphBuilder gb;
  gb.begin_group("throughput");
  for (std::size_t i = 0; i < tasks; ++i) {
    task::Task t;
    // Distinct objects: an embarrassingly parallel graph. Scheduling is
    // the only serialization left, which is exactly what we measure.
    t.accesses = {obj_access(i, task::AccessMode::Write)};
    if (kernel) {
      t.work = [i] {
        double acc = static_cast<double>(i);
        for (int k = 0; k < 256; ++k) acc = acc * 1.0000001 + 0.5;
        benchmark_sink(acc);
      };
    } else {
      t.work = [] {};
    }
    gb.add_task(std::move(t));
  }
  Workload w;
  w.graph = gb.build();
  w.tasks = tasks;
  return w;
}

/// fib(n) as a dependence tree: every node below the cutoff is a leaf that
/// computes its value iteratively; an inner node sums its two children.
/// Children are added before their parent (post-order) so the builder's
/// program-order RAW edges (child writes its slot, parent reads both) give
/// the fan-in tree. Each completed inner task releases its parent — the
/// spawn-heavy, join-dominated shape adaptive steal-half is built for.
Workload make_fib(int n, int cutoff) {
  auto results = std::make_shared<std::vector<std::uint64_t>>();
  task::GraphBuilder gb;
  gb.begin_group("fib");
  std::size_t next_slot = 0;
  // Recursive build; returns the node's result-slot/object id.
  const std::function<std::size_t(int)> build = [&](int k) -> std::size_t {
    if (k <= cutoff) {
      const std::size_t me = next_slot++;
      task::Task t;
      t.accesses = {obj_access(me, task::AccessMode::Write)};
      t.work = [results, me, k] { (*results)[me] = fib_iterative(k); };
      gb.add_task(std::move(t));
      return me;
    }
    const std::size_t left = build(k - 1);
    const std::size_t right = build(k - 2);
    const std::size_t me = next_slot++;
    task::Task t;
    t.accesses = {obj_access(left, task::AccessMode::Read),
                  obj_access(right, task::AccessMode::Read),
                  obj_access(me, task::AccessMode::Write)};
    t.work = [results, me, left, right] {
      (*results)[me] = (*results)[left] + (*results)[right];
    };
    gb.add_task(std::move(t));
    return me;
  };
  const std::size_t root = build(n);
  results->assign(next_slot, 0);
  Workload w;
  w.graph = gb.build();
  w.tasks = next_slot;
  const std::uint64_t expected = fib_iterative(n);
  w.reset = [results] { std::fill(results->begin(), results->end(), 0); };
  w.verify = [results, root, expected] { return (*results)[root] == expected; };
  return w;
}

/// N-queens search tree: one task per valid partial placement, parent
/// added before its children (pre-order fan-out; child reads the parent's
/// slot). Leaves at depth n count solutions; every task re-validates its
/// placement at run time so a misscheduled graph is caught, not hidden.
Workload make_queens(int n) {
  auto solutions = std::make_shared<std::atomic<std::uint64_t>>(0);
  task::GraphBuilder gb;
  gb.begin_group("nqueens");
  std::size_t next_slot = 0;
  const auto valid = [](const std::vector<int>& rows, int col) {
    const int r = rows[col];
    for (int c = 0; c < col; ++c) {
      if (rows[c] == r || std::abs(rows[c] - r) == col - c) return false;
    }
    return true;
  };
  const std::function<void(std::vector<int>&, std::size_t)> build =
      [&](std::vector<int>& rows, std::size_t parent_slot) {
        const int col = static_cast<int>(rows.size());
        for (int r = 0; r < n; ++r) {
          rows.push_back(r);
          if (valid(rows, col)) {
            const std::size_t me = next_slot++;
            task::Task t;
            t.accesses = {obj_access(parent_slot, task::AccessMode::Read),
                          obj_access(me, task::AccessMode::Write)};
            const bool leaf = col + 1 == n;
            std::vector<int> placement = rows;  // small prefix copy
            t.work = [solutions, leaf, placement, valid] {
              // Re-validate the whole placement: wrong results mean the
              // scheduler ran something it should not have.
              bool ok = true;
              for (std::size_t c = 0; c < placement.size(); ++c) {
                if (!valid(placement, static_cast<int>(c))) ok = false;
              }
              if (ok && leaf) {
                solutions->fetch_add(1, std::memory_order_relaxed);
              }
            };
            gb.add_task(std::move(t));
            if (!leaf) build(rows, me);
          }
          rows.pop_back();
        }
      };
  {
    const std::size_t root = next_slot++;
    task::Task t;
    t.accesses = {obj_access(root, task::AccessMode::Write)};
    t.work = [] {};
    gb.add_task(std::move(t));
    std::vector<int> rows;
    build(rows, root);
  }
  static const std::map<int, std::uint64_t> kSolutions = {
      {4, 2},  {5, 10},  {6, 4},    {7, 40},
      {8, 92}, {9, 352}, {10, 724}, {11, 2680}};
  const auto it = kSolutions.find(n);
  const std::uint64_t expected = it == kSolutions.end() ? 0 : it->second;
  Workload w;
  w.graph = gb.build();
  w.tasks = next_slot;
  w.reset = [solutions] { solutions->store(0, std::memory_order_relaxed); };
  if (expected != 0) {
    w.verify = [solutions, expected] {
      return solutions->load(std::memory_order_relaxed) == expected;
    };
  }
  return w;
}

double run_once(task::IExecutor& ex, const Workload& w) {
  if (w.reset) w.reset();
  const auto begin = std::chrono::steady_clock::now();
  ex.run(w.graph);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - begin).count();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : csv) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags;
  flags.define_string("backend", "both",
                      "executor backend: chaselev, channel, or both");
  flags.define_string("modes", "empty,kernel,fib,nqueens",
                      "comma-separated workload modes");
  flags.define_int("tasks", 100000, "tasks per rep (empty/kernel modes)");
  flags.define_int("fib-n", 24, "fib mode: Fibonacci index");
  flags.define_int("fib-cutoff", 2, "fib mode: leaf cutoff");
  flags.define_int("queens-n", 10, "nqueens mode: board size");
  flags.define_int("reps", 5, "repetitions per (mode, backend, workers) cell");
  flags.define_bool("quick", false, "CI smoke: fewer tasks, reps, workers");
  flags.define_bool("csv", false, "emit CSV after the table");
  flags.define_bool("check", false,
                    "gate: channel must reach check-min-ratio x chaselev "
                    "throughput on fib at check-workers workers");
  flags.define_int("check-workers", 16, "worker count the gate compares at");
  flags.define_double("check-min-ratio", 1.0,
                      "minimum channel/chaselev throughput ratio");
  bench::register_artifact_flags(flags);
  flags.parse(argc, argv);

  // Arms the fault injector and turns on histograms (steal latency, park
  // time, task duration) + tracing with any artifact request; off
  // otherwise so the hot loops stay unperturbed.
  const bench::ArtifactFlags artifacts = bench::apply_artifact_flags(flags);

  const bool quick = flags.get_bool("quick");
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  const std::size_t tasks = quick ? 20000 : flags.get_uint("tasks");
  const int fib_n =
      quick ? 20 : static_cast<int>(flags.get_uint("fib-n", kIntMax));
  const int queens_n =
      quick ? 8 : static_cast<int>(flags.get_uint("queens-n", kIntMax));
  const int reps = quick ? 2 : static_cast<int>(flags.get_uint("reps", kIntMax));
  flags.require_flag(reps > 0, "--reps must be at least 1");
  const bool check = flags.get_bool("check");
  const auto check_workers = static_cast<unsigned>(flags.get_uint(
      "check-workers", std::numeric_limits<unsigned>::max()));
  const double check_min_ratio = flags.get_double("check-min-ratio");

  std::vector<task::ExecutorBackend> backends;
  const std::string backend_flag = flags.get_string("backend");
  if (backend_flag == "both") {
    backends = {task::ExecutorBackend::kChaseLev,
                task::ExecutorBackend::kChannel};
  } else if (const auto b = task::parse_executor_backend(backend_flag)) {
    backends = {*b};
  } else {
    flags.require_flag(false, "unknown backend '" + backend_flag +
                                  "' in --backend");
  }
  flags.require_flag(!check || backends.size() == 2,
                     "--check needs --backend both");

  std::vector<unsigned> workers = {1, 2, 4, 8, 16, 32, 64};
  if (quick) workers = {1, 4, 16};
  if (check &&
      std::find(workers.begin(), workers.end(), check_workers) ==
          workers.end()) {
    workers.push_back(check_workers);
    std::sort(workers.begin(), workers.end());
  }

  std::vector<std::pair<std::string, Workload>> modes;
  for (const std::string& m : split_csv(flags.get_string("modes"))) {
    if (m == "empty") {
      modes.emplace_back(m, make_flat(tasks, /*kernel=*/false));
    } else if (m == "kernel") {
      modes.emplace_back(m, make_flat(tasks, /*kernel=*/true));
    } else if (m == "fib") {
      modes.emplace_back(
          m, make_fib(fib_n, static_cast<int>(
                                 flags.get_uint("fib-cutoff", kIntMax))));
    } else if (m == "nqueens") {
      modes.emplace_back(m, make_queens(queens_n));
    } else {
      flags.require_flag(false, "unknown mode '" + m + "' in --modes");
    }
  }
  flags.require_flag(!modes.empty(), "--modes names no mode");
  flags.require_flag(!check || std::any_of(modes.begin(), modes.end(),
                                           [](const auto& mode) {
                                             return mode.first == "fib";
                                           }),
                     "--check needs the fib mode in --modes");

  // best Mtasks/s per (mode, backend, workers) for the gate.
  std::map<std::string, double> best_rate;
  const auto cell_key = [](const std::string& mode,
                           task::ExecutorBackend backend, unsigned w) {
    return mode + "/" + task::to_string(backend) + "/" + std::to_string(w);
  };

  bool verified = true;
  Table table({"mode", "backend", "workers", "tasks", "best Mtasks/s",
               "mean Mtasks/s", "steals", "steal_reqs", "parks"});
  for (const auto& [mode, workload] : modes) {
    for (const task::ExecutorBackend backend : backends) {
      for (const unsigned w : workers) {
        trace::CounterRegistry& reg = trace::global_counters();
        const std::uint64_t steals0 = reg.get("executor.steals").value();
        const std::uint64_t reqs0 = reg.get("executor.steal_requests").value();
        const std::uint64_t parks0 = reg.get("executor.parks").value();
        core::RunReport report;
        report.workload = "executor_throughput";
        report.policy = mode;
        report.strategy =
            std::string(task::to_string(backend)) + ":" + std::to_string(w) +
            "w";
        double best = 0.0;
        double sum = 0.0;
        {
          const std::unique_ptr<task::IExecutor> ex =
              task::make_executor(backend, w);
          for (int r = 0; r < reps; ++r) {
            const double secs = run_once(*ex, workload);
            if (workload.verify && !workload.verify()) {
              std::cerr << "VERIFY FAILED: " << mode << " on "
                        << task::to_string(backend) << " with " << w
                        << " workers\n";
              verified = false;
            }
            report.iteration_seconds.push_back(secs);
            const double rate = static_cast<double>(workload.tasks) / secs;
            best = std::max(best, rate);
            sum += rate;
          }
          report.tasks_executed = ex->stats().tasks_run;
        }
        best_rate[cell_key(mode, backend, w)] = best;
        report.compute_seconds = 0.0;
        for (const double s : report.iteration_seconds) {
          report.compute_seconds += s;
        }
        table.add_row(
            {mode, task::to_string(backend), std::to_string(w),
             std::to_string(workload.tasks), Table::num(best / 1e6),
             Table::num(sum / reps / 1e6),
             std::to_string(reg.get("executor.steals").value() - steals0),
             std::to_string(reg.get("executor.steal_requests").value() -
                            reqs0),
             std::to_string(reg.get("executor.parks").value() - parks0)});
        bench::append_report_json(report, artifacts.report_json);
      }
    }
  }
  bench::emit("executor task throughput, " + backend_flag +
                  " backend(s) (best of " + std::to_string(reps) + " reps)",
              table, flags.get_bool("csv"));
  if (!verified) return 1;

  if (check) {
    const double chaselev =
        best_rate[cell_key("fib", task::ExecutorBackend::kChaseLev,
                           check_workers)];
    const double channel = best_rate[cell_key(
        "fib", task::ExecutorBackend::kChannel, check_workers)];
    const double ratio = channel / chaselev;
    std::cout << "check: fib @" << check_workers << "w channel/chaselev = "
              << ratio << " (min " << check_min_ratio << ")\n";
    if (ratio < check_min_ratio) {
      std::cerr << "CHECK FAILED: channel backend below " << check_min_ratio
                << "x chaselev on fib\n";
      return 1;
    }
  }
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
