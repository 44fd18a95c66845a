// Cross-module property tests: randomized invariants that must hold for
// any input the generators produce.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/knapsack.hpp"
#include "graph_queries.hpp"
#include "hms/space_manager.hpp"
#include "memsim/fluid.hpp"
#include "memsim/machine.hpp"
#include "task/graph.hpp"
#include "task/sim_executor.hpp"

namespace tahoe {
namespace {

// ---------- fluid simulator ----------

TEST(FluidProperty, WorkConservationUnderRandomArrivals) {
  // Total served channel-seconds equal total demand; no flow finishes
  // before its uncontended lower bound.
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    memsim::FluidSim sim(3);
    std::vector<double> demand(3, 0.0);
    std::map<memsim::FlowId, double> lower_bound;
    std::map<memsim::FlowId, double> start;
    const int flows = 5 + static_cast<int>(rng.next_below(20));
    for (int f = 0; f < flows; ++f) {
      memsim::FlowSpec spec;
      spec.serial_seconds = rng.next_double() * 0.2;
      spec.device_seconds = {rng.next_double() * 0.5, rng.next_double() * 0.3,
                             rng.next_double() * 0.1};
      double lb = spec.serial_seconds;
      for (std::size_t d = 0; d < 3; ++d) {
        demand[d] += spec.device_seconds[d];
        lb = std::max(lb, spec.device_seconds[d]);
      }
      const memsim::FlowId id = sim.start_flow(spec);
      lower_bound[id] = lb;
      start[id] = sim.now();
      // Sometimes let the next completion pass before the next arrival.
      if (rng.next_below(3) == 0) {
        if (const auto c = sim.step()) {
          EXPECT_GE(c->time - start[c->id] + 1e-9, lower_bound[c->id]);
        }
      }
    }
    while (const auto c = sim.step()) {
      EXPECT_GE(c->time - start[c->id] + 1e-9, lower_bound[c->id]);
    }
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_NEAR(sim.device_busy_seconds(d), demand[d], 1e-9);
    }
  }
}

TEST(FluidProperty, CompletionTimesNondecreasing) {
  Rng rng(7);
  memsim::FluidSim sim(2);
  for (int f = 0; f < 40; ++f) {
    memsim::FlowSpec spec;
    spec.serial_seconds = rng.next_double() * 0.01;
    spec.device_seconds = {rng.next_double() * 0.05, rng.next_double() * 0.05};
    sim.start_flow(spec);
  }
  double last = 0.0;
  while (const auto c = sim.step()) {
    EXPECT_GE(c->time + 1e-12, last);
    last = c->time;
  }
}

// ---------- task graph ----------

task::TaskGraph random_graph(Rng& rng, std::size_t groups,
                             std::size_t tasks_per_group,
                             std::size_t objects) {
  task::GraphBuilder gb;
  for (std::size_t g = 0; g < groups; ++g) {
    gb.begin_group("g" + std::to_string(g));
    for (std::size_t i = 0; i < tasks_per_group; ++i) {
      task::Task t;
      const std::size_t n_acc = 1 + rng.next_below(3);
      for (std::size_t a = 0; a < n_acc; ++a) {
        task::DataAccess acc;
        acc.object = static_cast<hms::ObjectId>(rng.next_below(objects));
        acc.mode = static_cast<task::AccessMode>(rng.next_below(3));
        acc.traffic.loads = 1 + rng.next_below(1000);
        acc.traffic.footprint = 64 * (1 + rng.next_below(1000));
        t.accesses.push_back(acc);
      }
      gb.add_task(std::move(t));
    }
  }
  return gb.build();
}

TEST(GraphProperty, RandomGraphsAreAcyclicAndConsistent) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const task::TaskGraph g = random_graph(rng, 4, 8, 5);
    EXPECT_TRUE(task::edges_respect_program_order(g));
    // Predecessor counts match the successor lists exactly.
    std::vector<std::uint32_t> counted(g.num_tasks(), 0);
    for (task::TaskId id = 0; id < g.num_tasks(); ++id) {
      for (task::TaskId s : g.successors(id)) ++counted[s];
    }
    for (task::TaskId id = 0; id < g.num_tasks(); ++id) {
      EXPECT_EQ(counted[id], g.num_predecessors(id));
    }
  }
}

TEST(GraphProperty, ConflictingAccessesAlwaysOrdered) {
  // Any two tasks where at least one writes a shared unit must be
  // connected by a directed path.
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const task::TaskGraph g = random_graph(rng, 3, 6, 3);
    // Floyd-style reachability over the small DAG.
    const std::size_t n = g.num_tasks();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (auto id = static_cast<task::TaskId>(n); id-- > 0;) {
      for (task::TaskId s : g.successors(id)) {
        reach[id][s] = true;
        for (std::size_t k = 0; k < n; ++k) {
          if (reach[s][k]) reach[id][k] = true;
        }
      }
    }
    for (task::TaskId a = 0; a < n; ++a) {
      for (task::TaskId b = a + 1; b < n; ++b) {
        bool conflict = false;
        for (const task::DataAccess& x : g.task(a).accesses) {
          for (const task::DataAccess& y : g.task(b).accesses) {
            if (x.object == y.object && (x.writes() || y.writes())) {
              conflict = true;
            }
          }
        }
        if (conflict) {
          EXPECT_TRUE(reach[a][b] || reach[b][a])
              << "unordered conflict between " << a << " and " << b;
        }
      }
    }
  }
}

// ---------- simulated executor ----------

TEST(SimExecutorProperty, MoreWorkersNeverSlower) {
  Rng rng(5);
  const memsim::Machine m = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       kGiB),
      64 * kMiB);
  for (int trial = 0; trial < 8; ++trial) {
    const task::TaskGraph g = random_graph(rng, 3, 12, 6);
    double prev = 1e300;
    for (const std::uint32_t workers : {1u, 2u, 4u, 16u}) {
      task::SimExecutor ex;
      task::SimExecutor::Options opts;
      opts.workers = workers;
      hms::PlacementMap p;
      const double t = ex.run(g, m, p, {}, opts).makespan;
      EXPECT_LE(t, prev * (1.0 + 1e-9));
      prev = t;
    }
  }
}

TEST(SimExecutorProperty, DramPlacementNeverSlowerThanNvm) {
  Rng rng(31);
  const memsim::Machine m = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       kGiB),
      64 * kMiB);
  for (int trial = 0; trial < 8; ++trial) {
    const task::TaskGraph g = random_graph(rng, 2, 8, 4);
    task::SimExecutor ex;
    task::SimExecutor::Options opts;
    hms::PlacementMap all_dram;
    hms::PlacementMap all_nvm;
    for (hms::ObjectId o = 0; o < 4; ++o) {
      all_dram.set(o, 0, memsim::kDram);
      all_nvm.set(o, 0, memsim::kNvm);
    }
    const double t_dram = ex.run(g, m, all_dram, {}, opts).makespan;
    const double t_nvm = ex.run(g, m, all_nvm, {}, opts).makespan;
    EXPECT_LE(t_dram, t_nvm * (1.0 + 1e-9));
  }
}

// ---------- knapsack vs space manager ----------

TEST(KnapsackProperty, SolutionsAlwaysFitWithAscendingIndices) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<core::KnapsackItem> items;
    const std::size_t n = 4 + rng.next_below(12);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(core::KnapsackItem{rng.next_below(800) + 1,
                                         rng.next_double() * 4.0 - 0.5});
    }
    const std::uint64_t cap = 400 + rng.next_below(2000);
    const core::KnapsackResult dp = core::solve(items, cap);
    EXPECT_LE(dp.total_size, cap);
    // Chosen indices are unique and ascending.
    for (std::size_t i = 1; i < dp.chosen.size(); ++i) {
      EXPECT_LT(dp.chosen[i - 1], dp.chosen[i]);
    }
  }
}

TEST(SpaceManagerProperty, VictimsAlwaysSufficientAndMinimalish) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    hms::SpaceManager sm(1 << 20);
    std::map<hms::SpaceManager::Unit, std::uint64_t> sizes;
    for (hms::ObjectId o = 0; o < 12; ++o) {
      const std::uint64_t bytes = 1 + rng.next_below(200'000);
      if (sm.add(o, 0, bytes)) sizes[{o, 0}] = bytes;
    }
    const std::uint64_t request = 1 + rng.next_below(900'000);
    const auto victims = sm.pick_victims(request);
    if (!victims.empty()) {
      std::uint64_t freed = 0;
      for (const auto& v : victims) freed += sizes.at(v);
      EXPECT_GE(sm.free_bytes() + freed, request);
    } else {
      // Either it already fits or it is hopeless even when empty.
      EXPECT_TRUE(sm.can_fit(request) || request > sm.capacity());
    }
  }
}

}  // namespace
}  // namespace tahoe
