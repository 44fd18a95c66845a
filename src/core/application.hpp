// Application interface: what an iterative task-parallel program exposes
// to the Tahoe runtime.
//
// An application allocates its data objects through the ObjectRegistry
// (the `tahoe_malloc` analogue, optionally chunked per the policy), then
// rebuilds its per-iteration task graph on demand. The same builder
// function runs every iteration; workloads with drift can vary the
// declared traffic with the iteration number, which is what exercises the
// adaptivity machinery. On each iteration whose declaration would repeat
// the previous one's, build_iteration opens with
// `if (builder.keep_previous()) return;`: the simulated runtime then keeps
// the previous graph, `work` kernels included (and, from the same
// residency under the same schedule, its outcome). Nothing checks that
// word. Real runs build without a previous graph and declare in full.
#pragma once

#include <cstdint>
#include <string>

#include "hms/chunking.hpp"
#include "hms/registry.hpp"
#include "task/graph.hpp"

namespace tahoe::core {

class Application {
 public:
  virtual ~Application() = default;

  virtual std::string name() const = 0;

  /// Number of main-loop iterations to execute.
  virtual std::size_t iterations() const = 0;

  /// Allocate data objects (all initially on NVM; the runtime applies the
  /// initial-placement optimization afterwards). `chunking` tells the
  /// application how to split its large partitionable arrays.
  virtual void setup(hms::ObjectRegistry& registry,
                     const hms::ChunkingPolicy& chunking) = 0;

  /// Append one iteration's tasks (with groups) to the builder.
  virtual void build_iteration(task::GraphBuilder& builder,
                               std::size_t iteration) = 0;

  /// Numerical check after a *real* execution (Executor with functors).
  /// Model-only workloads may return true unconditionally.
  virtual bool verify(hms::ObjectRegistry& registry) {
    (void)registry;
    return true;
  }
};

}  // namespace tahoe::core
