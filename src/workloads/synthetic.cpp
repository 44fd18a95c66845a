#include "workloads/synthetic.hpp"

#include "common/units.hpp"

namespace tahoe::workloads {

void StreamApp::setup(hms::ObjectRegistry& registry,
                      const hms::ChunkingPolicy& chunking) {
  (void)chunking;
  src_ = registry.create("stream_src", config_.bytes, registry.capacity_tier());
  dst_ = registry.create("stream_dst", config_.bytes, registry.capacity_tier());
  registry.get_mutable(src_).static_ref_estimate =
      static_cast<double>(config_.bytes / 8 * config_.iterations);
  registry.get_mutable(dst_).static_ref_estimate =
      static_cast<double>(config_.bytes / 8 * config_.iterations);
}

void StreamApp::build_iteration(task::GraphBuilder& builder,
                                std::size_t iter) {
  (void)iter;
  if (builder.keep_previous()) return;
  const std::uint64_t elems = config_.bytes / 8 / config_.tasks;
  builder.begin_group("stream");
  for (std::size_t i = 0; i < config_.tasks; ++i) {
    task::Task t;
    t.label = "stream";
    t.compute_seconds = compute_time(static_cast<double>(elems));
    t.accesses = {
        access(src_, task::AccessMode::Read,
               traffic(elems, 0, elems * 8, 0.0, 0.0)),
        access(dst_, task::AccessMode::Write,
               traffic(0, elems, elems * 8, 0.0, 0.0)),
    };
    builder.add_task(std::move(t));
  }
}

void ChaseApp::setup(hms::ObjectRegistry& registry,
                     const hms::ChunkingPolicy& chunking) {
  (void)chunking;
  ring_ = registry.create("chase_ring", config_.bytes, registry.capacity_tier());
  registry.get_mutable(ring_).static_ref_estimate =
      static_cast<double>(config_.bytes / kCacheLine * config_.iterations);
}

void ChaseApp::build_iteration(task::GraphBuilder& builder, std::size_t iter) {
  (void)iter;
  if (builder.keep_previous()) return;
  const std::uint64_t hops = config_.bytes / kCacheLine;
  builder.begin_group("chase");
  task::Task t;
  t.label = "chase";
  t.compute_seconds = 0.0;
  t.accesses = {access(ring_, task::AccessMode::Read,
                       traffic(hops, 0, config_.bytes, 0.0, 1.0, 0.0))};
  builder.add_task(std::move(t));
}

void DriftApp::setup(hms::ObjectRegistry& registry,
                     const hms::ChunkingPolicy& chunking) {
  (void)chunking;
  a_ = registry.create("drift_a", config_.bytes, registry.capacity_tier());
  b_ = registry.create("drift_b", config_.bytes, registry.capacity_tier());
  // Static analysis cannot see the drift; both look equally important.
  registry.get_mutable(a_).static_ref_estimate = 0.0;
  registry.get_mutable(b_).static_ref_estimate = 0.0;
}

void DriftApp::build_iteration(task::GraphBuilder& builder, std::size_t iter) {
  // The declaration changes only at the switch.
  if (iter != config_.drift_at && builder.keep_previous()) return;
  const bool drifted = iter >= config_.drift_at;
  const hms::ObjectId hot = drifted ? b_ : a_;
  const hms::ObjectId cold = drifted ? a_ : b_;
  const std::uint64_t elems = config_.bytes / 8 / config_.tasks;
  builder.begin_group("mix");
  for (std::size_t i = 0; i < config_.tasks; ++i) {
    task::Task t;
    t.label = "mix";
    t.compute_seconds = compute_time(static_cast<double>(elems));
    t.accesses = {
        access(hot, task::AccessMode::ReadWrite,
               traffic(8 * elems, elems, elems * 8, 0.1, 0.0)),
        access(cold, task::AccessMode::Read,
               traffic(elems / 8, 0, elems * 8, 0.1, 0.0)),
    };
    builder.add_task(std::move(t));
  }
}

}  // namespace tahoe::workloads
