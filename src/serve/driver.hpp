// Serve driver: epoch-batched open-loop serving on the simulated machine.
//
// The driver advances a virtual clock in epochs. At each epoch boundary it
// drains every tenant's open-loop arrival stream, batches up to 64 queued
// requests per tenant into one task group (dispatched in priority order,
// ties by registration order), and executes the resulting graph on the
// SimExecutor. Because groups run sequentially at phase barriers, a
// request's completion time is its group's end:
//
//   queue_wait      = group start - arrival
//   request latency = group end   - arrival
//   service time    = sum of the request's task durations (via the
//                     task::Task::request tag)
//
// All three are recorded into per-tenant histograms and folded into the
// RunReport's "tenants" rows. Every quantity is virtual-time, so same-seed
// runs are byte-reproducible; --deterministic additionally zeroes the
// wall-clock planning cost, mirroring the quickstart convention. When the
// global tracer is on, every epoch's groups and tasks land in it on the
// same virtual clock, as Runtime's simulated runs do.
#pragma once

#include <cstdint>

#include "core/report.hpp"
#include "serve/tenant.hpp"

namespace tahoe::serve {

struct ServeOptions {
  double duration_seconds = 1.0;  ///< virtual time the source keeps offering
  double epoch_seconds = 0.005;   ///< batching quantum of the virtual clock
  bool enforce_quotas = true;     ///< QoS rows vs. the quota-free knapsack
  bool deterministic = false;     ///< zero wall-clock report fields
  std::uint32_t workers = 0;      ///< 0 = machine.workers
};

struct ServeResult {
  core::RunReport report;          ///< with per-tenant "tenants" rows
  core::TenantPlacementPlan plan;  ///< the enforced placement
};

/// Plan + enforce placement, then serve `duration_seconds` of traffic.
ServeResult run_serve(TenantManager& manager, const ServeOptions& options);

}  // namespace tahoe::serve
