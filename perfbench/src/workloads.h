// The benchmark's workloads as plain data: cell definitions, model-check
// cells and rt instance mixes, all derived from the workload seed.  The
// library only ever sees what these functions return.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/multi.h"
#include "check/explorer.h"
#include "core/consensus/stack_spec.h"

namespace perfbench {

// A one-shot grid cell plus what its outputs must satisfy: validity and
// coherence always, and for a consensus cell under atomic registers, the
// model the stacks are proved for, agreement and decision too.
struct oneshot_cell {
  modcon::analysis::trial_grid grid;
  bool consensus = true;
  modcon::sim::register_semantics semantics =
      modcon::sim::register_semantics::atomic;
};

// One fixed model-check cell: exhaust the choice tree of `stack` on
// these inputs, with no violation.
struct explore_cell {
  std::string label;
  modcon::stack_spec spec;
  std::vector<modcon::value_t> inputs;
  modcon::check::explore_options opts;
};

// One rt consensus instance: a one-shot stack (impatient or bounded)
// or, when `slot_log` is set, a multi-shot slot log.
struct rt_instance {
  std::string stack;
  bool slot_log = false;
  std::uint64_t seed = 0;
};

struct rt_round {
  std::size_t n = 4;
  modcon::analysis::multi_grid log;  // shape of the slot-log instances
  std::vector<rt_instance> instances;
};

std::vector<oneshot_cell> oneshot_cells(std::uint64_t seed);
std::vector<oneshot_cell> verify_cells(std::uint64_t seed);
std::vector<explore_cell> explore_cells(std::uint64_t seed);
std::vector<modcon::analysis::multi_grid> multishot_cells(std::uint64_t seed);
rt_round rt_cells(std::uint64_t seed, std::size_t n);

// Object builders, shared by the grid cells, the rt instances and set-up.
modcon::analysis::sim_object_builder sim_stack(const modcon::stack_spec& s);
modcon::analysis::rt_object_builder rt_stack(const std::string& name);

}  // namespace perfbench
