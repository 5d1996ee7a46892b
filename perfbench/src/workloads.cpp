#include "workloads.h"

#include <algorithm>
#include <memory>

#include "analysis/batch_engine.h"
#include "core/conciliator/impatient.h"
#include "rt/env.h"
#include "sim/adversaries/adversaries.h"

namespace perfbench {

using namespace modcon;
using analysis::fault_plan;
using analysis::trial_grid;
using sim::register_semantics;
using sim::sim_env;

namespace {

// Each cell gets its own base seed, so the seed argument reaches every
// trial without two cells replaying the same seed sequence.
std::uint64_t cell_seed(std::uint64_t seed, std::size_t cell) {
  return analysis::derive_trial_seed(seed, 0x5eed0000ULL + cell);
}

analysis::sim_object_builder impatient_conciliator_builder() {
  return [](address_space& mem, std::size_t) {
    return std::make_unique<impatient_conciliator<sim_env>>(mem);
  };
}

}  // namespace

analysis::sim_object_builder sim_stack(const stack_spec& s) {
  return stack_builder<sim_env>(s);
}

analysis::rt_object_builder rt_stack(const std::string& name) {
  return stack_builder<rt::rt_env>(stack_for(name));
}

// The experiments' trial-count rule (bench/common.h trials_for): a
// budget of simulated processes over n, clamped to [40, 3000].
std::size_t trials_for(std::size_t n, std::size_t budget) {
  return std::clamp<std::size_t>(budget / n, 40, 3000);
}

// oneshot_sim: E1-E3/E8/E16's fault-free grid, with each cell's trial
// count taken from the experiment that runs that object: the conciliator
// and the unbounded impatient stack from E16 (budgets 400k and 200k),
// the bounded stack from E8 (400 trials a cell) and the m = 16 Bollobás
// stack from E3's n-sweep (budget 40k).  The conciliator and the
// impatient stack qualify for the batch engine; the bounded and Bollobás
// stacks run on the scalar engine.  Cells are listed from n = 256 down,
// scalar ones first, so the longest trials start first and the grid's
// first task is a scalar trial.
std::vector<oneshot_cell> oneshot_cells(std::uint64_t seed) {
  std::vector<oneshot_cell> out;
  auto add = [&](trial_grid g, bool consensus) {
    g.base_seed = cell_seed(seed, out.size());
    out.push_back({std::move(g), consensus});
  };
  const stack_spec impatient = stack_for("impatient");
  const stack_spec bounded = stack_for("bounded");
  const stack_spec bollobas = impatient.with_m(16);
  for (std::size_t n : {256u, 64u, 16u}) {
    const std::string sn = "/n=" + std::to_string(n);
    add({.label = "bounded" + sn,
         .build = sim_stack(bounded),
         .n = n,
         .trials = 400},
        true);
    add({.label = "bollobas-m16" + sn,
         .build = sim_stack(bollobas),
         .pattern = analysis::input_pattern::random_m,
         .n = n,
         .m = 16,
         .trials = trials_for(n, 40'000)},
        true);
    add({.label = "conciliator" + sn,
         .build = impatient_conciliator_builder(),
         .n = n,
         .trials = trials_for(n, 400'000),
         .batch_hint = analysis::batch_impatient()},
        false);
    add({.label = "impatient" + sn,
         .build = sim_stack(impatient),
         .n = n,
         .trials = trials_for(n, 200'000),
         .batch_hint = analysis::batch_for(impatient)},
        true);
  }
  return out;
}

// verify, part one: the scalar-only grid — process faults, weakened
// register semantics and non-uniform adversaries, every trial audited.
std::vector<oneshot_cell> verify_cells(std::uint64_t seed) {
  constexpr std::size_t n = 8;
  // The same in every cell: no experiment weights these modes.
  constexpr std::size_t trials = 1536;
  struct mode {
    std::string name;
    fault_plan faults;
    std::function<fault_plan(std::uint64_t, std::uint64_t)> faults_for;
    analysis::adversary_factory adversary;
    bool recoverable = false;
  };
  std::vector<mode> modes;
  modes.push_back({"crash3", {},
                   [](std::uint64_t, std::uint64_t s) {
                     fault_plan p;
                     for (process_id v = 0; v < 3; ++v)
                       p.crash(static_cast<process_id>((s + v * 3) % n),
                               (s >> (4 * v)) % 8);
                     return p;
                   },
                   nullptr});
  modes.push_back({"restart2", {},
                   [](std::uint64_t, std::uint64_t s) {
                     fault_plan p;
                     p.restart(static_cast<process_id>(s % n), 2 + s % 6);
                     p.restart(static_cast<process_id>((s + 1) % n),
                               4 + (s >> 8) % 6);
                     return p;
                   },
                   nullptr});
  modes.push_back({"recover2", {},
                   [](std::uint64_t, std::uint64_t s) {
                     fault_plan p;
                     p.recover(static_cast<process_id>(s % n), 2 + s % 8);
                     p.recover(static_cast<process_id>((s + 3) % n),
                               1 + (s >> 6) % 10);
                     return p;
                   },
                   nullptr, true});
  modes.push_back({"regular", fault_plan{}.with_semantics(
                                  register_semantics::regular),
                   nullptr, nullptr});
  modes.push_back({"safe",
                   fault_plan{}.with_semantics(register_semantics::safe),
                   nullptr, nullptr});
  modes.push_back({"greedy-overwrite", {}, nullptr, [] {
                     return std::make_unique<sim::greedy_overwrite>(0);
                   }});
  modes.push_back({"priority", {}, nullptr, [] {
                     return std::make_unique<sim::priority_sched>();
                   }});
  modes.push_back({"noisy", {}, nullptr, [] {
                     return std::make_unique<sim::noisy>(1.0);
                   }});

  std::vector<oneshot_cell> out;
  for (const char* stack : {"impatient", "bounded"})
    for (const mode& m : modes) {
      stack_spec spec = stack_for(stack);
      if (m.recoverable) spec = spec.with_recovery();
      trial_grid g{
          .label = std::string("verify/") + stack + "/" + m.name,
          .build = sim_stack(spec),
          .make_adversary = m.adversary,
          .pattern = analysis::input_pattern::random_m,
          .n = n,
          .trials = trials,
          .base_seed = cell_seed(seed, out.size()),
          .limits = {.max_steps = 2'000'000},
          .faults = m.faults,
          .faults_for = m.faults_for,
          .audit = {.mode = analysis::audit_mode::all},
      };
      out.push_back({std::move(g), true, m.faults.semantics()});
    }
  return out;
}

// verify, part two: a fixed model-check set.  The seed only rotates the
// (mixed) inputs, so every seed explores trees of the same size.
std::vector<explore_cell> explore_cells(std::uint64_t seed) {
  auto inputs = [seed](std::size_t n) {
    std::vector<value_t> in(n);
    for (std::size_t i = 0; i < n; ++i) in[i] = (i + seed) % 2;
    return in;
  };
  check::explore_options base;
  base.branch_coins = false;
  base.max_executions = 2'000'000;
  base.max_nodes = 20'000'000;

  std::vector<explore_cell> out;
  check::explore_options o = base;
  o.max_choices = 48;
  out.push_back({"explore/impatient/n=2/atomic/dpor", stack_for("impatient"),
                 inputs(2), o});
  o = base;
  o.max_choices = 16;
  o.semantics = register_semantics::regular;
  out.push_back({"explore/bounded/n=2/regular", stack_for("bounded"),
                 inputs(2), o});
  o = base;
  o.max_choices = 12;
  o.crash_budget = 1;
  out.push_back({"explore/impatient/n=2/crash1", stack_for("impatient"),
                 inputs(2), o});
  o = base;
  o.max_choices = 28;
  out.push_back({"explore/bounded/n=3/atomic/dpor", stack_for("bounded"),
                 inputs(3), o});
  return out;
}

// multishot_sim: E17's slot-log grid with E17c's slot count: K = 4
// shards x 64 slots, the impatient and bounded stacks at n = 4 and 16
// and E17's n = 8 restart cell (plus one crash).  E17 runs 40 trials in
// every cell; a round runs kMultiRepeat times that in each, which makes
// a round last about a second on 4 workers.
constexpr std::size_t kMultiRepeat = 6;

std::vector<analysis::multi_grid> multishot_cells(std::uint64_t seed) {
  constexpr std::uint64_t kShards = 4;
  constexpr std::uint64_t kSlots = 64;
  constexpr std::size_t kTrials = 40 * kMultiRepeat;
  std::vector<analysis::multi_grid> out;
  for (const char* stack : {"impatient", "bounded"})
    for (std::size_t n : {4u, 16u})
      out.push_back({
          .label = std::string("multi/") + stack + "/n=" + std::to_string(n),
          .spec = stack_for(stack),
          .n = n,
          .shards = kShards,
          .slots = kSlots,
          .trials = kTrials,
          .base_seed = cell_seed(seed, out.size()),
      });
  out.push_back({
      .label = "multi/impatient/n=8/crash+restart",
      .spec = stack_for("impatient"),
      .n = 8,
      .shards = kShards,
      .slots = kSlots,
      .trials = kTrials,
      .base_seed = cell_seed(seed, out.size()),
      .faults = fault_plan{}.crash(1, 40).restart(0, 30).restart(5, 70),
  });
  return out;
}

// rt_threads: one consensus instance at a time.  E11 runs the impatient
// and bounded stacks side by side, 60 instances each, and E17c runs 5 rt
// slot logs of K = 4 shards x 64 slots; a round runs kRtRepeat times
// that mix, with the slot logs spread evenly through it.  kRtRepeat = 9
// gives a round 1,080 one-shot instances, enough for its p99 under the
// tail rule (stats.h).
constexpr std::size_t kRtRepeat = 9;

rt_round rt_cells(std::uint64_t seed, std::size_t n) {
  constexpr std::size_t kOneShot = 2 * 60 * kRtRepeat;
  constexpr std::size_t kLogs = 5 * kRtRepeat;
  constexpr std::size_t kEvery = (kOneShot + kLogs) / kLogs;
  rt_round r;
  r.n = n;
  r.log = {.label = "rt/slot-log",
           .spec = stack_for("impatient"),
           .n = n,
           .shards = 4,
           .slots = 64};
  std::size_t one_shot = 0;
  for (std::size_t i = 0; i < kOneShot + kLogs; ++i) {
    const std::uint64_t s = analysis::derive_trial_seed(seed, i);
    if (i % kEvery == kEvery - 1)
      r.instances.push_back({"impatient", true, s});
    else
      r.instances.push_back(
          {one_shot++ % 2 ? "bounded" : "impatient", false, s});
  }
  return r;
}

}  // namespace perfbench
