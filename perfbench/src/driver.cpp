// modcon benchmark driver: runs one workload through the library's public
// entry points and prints its metrics.
//
//   modcon_perfbench --workload W --seed S --seconds T --trace 0|1
//                    [--out DIR] [--setup-probe 1]
//
// --trace 0 (the measured run): runs one untimed warm-up round, which
// marks the end of set-up, times more set-ups in fresh processes (each a
// --setup-probe run, which stops at that mark), then repeats the
// workload's fixed round until T seconds have passed, checking every
// output.  Rates are medians over rounds.
//
// --trace 1 (the traced run): drives a fixed sample of the workload's
// trials through the per-trial public calls on one thread, once with
// spans recorded around every call into a layer and twice without, and
// reports per-layer numbers, the unattributed remainder and the tracing
// overhead.  Spans go to DIR as Chrome trace-event JSON.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics.  Exit status is nonzero only on a
// usage or harness error.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/batch_engine.h"
#include "analysis/experiment.h"
#include "analysis/metrics.h"
#include "analysis/multi.h"
#include "check/auditor.h"
#include "check/explorer.h"
#include "sim/adversaries/random_oblivious.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace modcon;
using analysis::trial_record;

const std::uint64_t g_entry_ns = now_ns();

constexpr std::size_t kSetupProbes = 32;  // set-ups in fresh processes
constexpr std::size_t kMinRounds = 3;
constexpr std::uint64_t kPickSample = 16;  // time one adversary pick in 16

const char* const kWorkloads[] = {"oneshot_sim", "verify", "multishot_sim",
                                  "rt_threads"};

struct cli {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setup_probe = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "modcon_perfbench: " << why
            << "\nusage: modcon_perfbench --workload "
               "oneshot_sim|verify|multishot_sim|rt_threads --seed N "
               "--seconds T --trace 0|1 [--out DIR] [--setup-probe 1]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-')
    usage(flag + " expects a non-negative integer, got '" + v + "'");
  return x;
}

cli parse(int argc, char** argv) {
  cli c;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " requires a value");
    const std::string v = argv[++i];
    if (arg == "--workload") {
      c.workload = v;
      have[0] = true;
    } else if (arg == "--seed") {
      c.seed = parse_u64(arg, v);
      have[1] = true;
    } else if (arg == "--seconds") {
      c.seconds = static_cast<double>(parse_u64(arg, v));
      have[2] = true;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      c.trace = v == "1";
      have[3] = true;
    } else if (arg == "--out") {
      c.out_dir = v;
    } else if (arg == "--setup-probe") {
      c.setup_probe = v == "1";
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("--workload, --seed, --seconds and --trace are all required");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), c.workload) ==
      std::end(kWorkloads))
    usage("unknown workload '" + c.workload + "'");
  if (c.seconds < 1) usage("--seconds must be at least 1");
  return c;
}

std::size_t worker_count() {
  return std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
}

// rt processes: two fewer than the workers (at least 2), so the driver's
// own thread, which polls for the instance's end, and the OS need not
// compete with a process for a core.  With every core busy the latency
// tail swung by 2x between runs, and one extra busy thread on the machine
// raised the p99 of three processes by 1.8x as much as that of two.
std::size_t rt_processes() {
  return worker_count() > 3 ? worker_count() - 2 : 2;
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

analysis::experiment_options grid_options() {
  analysis::experiment_options o;
  o.threads = worker_count();
  o.engine = analysis::engine_kind::auto_select;
  return o;
}

bool terminal(sim::run_status s) {
  return s == sim::run_status::all_halted || s == sim::run_status::no_runnable;
}

bool audit_clean(const std::optional<check::audit_report>& a) {
  return !a || a->status != check::audit_status::violated;
}

// The fail rule for one one-shot trial (stats.h, trial_passes).
bool trial_ok(const oneshot_cell& c, const trial_record& r) {
  return trial_passes({.terminal = terminal(r.result.status),
                       .audit_clean = audit_clean(r.result.audit),
                       .valid = r.valid,
                       .coherent = r.coherent,
                       .agreement = r.agreement,
                       .decided_all = r.decided_all},
                      c.consensus,
                      c.semantics == sim::register_semantics::atomic);
}

// A consensus trial under regular or safe registers that passed the fail
// rule but disagreed or left a process undecided: properties the stacks
// claim only for atomic registers.  Reported, not counted as a failure.
bool model_break(const oneshot_cell& c, const trial_record& r) {
  return c.consensus && c.semantics != sim::register_semantics::atomic &&
         (!r.agreement || !r.decided_all);
}

bool multi_ok(const analysis::multi_trial_result& r) {
  return terminal(r.base.status) && r.slots_agree && r.slots_valid &&
         analysis::check_agreement(r.base.all_outputs()) &&
         audit_clean(r.base.audit);
}

bool rt_ok(const analysis::trial_result& r,
           const std::vector<value_t>& inputs) {
  const auto out = r.all_outputs();
  return r.status == sim::run_status::all_halted &&
         analysis::check_validity(out, inputs) &&
         analysis::check_coherence(out) && analysis::check_agreement(out) &&
         analysis::all_decided(out) && out.size() == inputs.size();
}

// ---------------------------------------------------------------------
// Measured run
// ---------------------------------------------------------------------

// Work a round does.  For the simulated workloads every field is a
// function of the seed alone; rounds must repeat it exactly.
struct work_counts {
  std::uint64_t trials = 0;
  std::uint64_t steps = 0;
  std::uint64_t slot_decisions = 0;
  std::uint64_t explorer_executions = 0;

  friend bool operator==(const work_counts&, const work_counts&) = default;
};

// Failed attempts of one cell, with the first one that carries a seed.
struct cell_failures {
  std::uint64_t count = 0;
  // Whether the stacks claim the broken properties in this cell: every
  // cell except one-shot cells under regular or safe registers.
  bool claimed = true;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> first;  // trial, seed
};

struct round_result {
  double window_s = 0;   // the throughput window
  double verdict_s = 0;  // time to the round's verdict
  work_counts work;
  std::vector<double> latency_us;
  fail_tally fails;
  std::map<std::string, cell_failures> failed_by_cell;
  std::uint64_t model_breaks = 0;  // see model_break
  std::map<std::string, std::uint64_t> broken_by_cell;

  void fail(const std::string& cell, std::uint64_t count, bool claimed,
            std::optional<std::pair<std::uint64_t, std::uint64_t>> at = {}) {
    cell_failures& f = failed_by_cell[cell];
    f.count += count;
    f.claimed = claimed;
    if (!f.first) f.first = at;
  }
  std::uint64_t claimed_failures() const {
    std::uint64_t k = 0;
    for (const auto& [cell, f] : failed_by_cell) k += f.claimed ? f.count : 0;
    return k;
  }
};

// The set-up mark: the moment the first trial of the set-up round has
// its object built (on the slot-log grid, which builds slot objects
// inside the trial, the moment the first trial starts).  Whichever
// worker gets there first sets it.  A set-up probe stops the round there
// by throwing setup_reached out of the library call.
struct setup_reached {};

struct setup_mark {
  std::atomic<std::uint64_t> ns{0};
  bool stop = false;

  void hit() {
    std::uint64_t unset = 0;
    ns.compare_exchange_strong(unset, now_ns());
    if (stop) throw setup_reached{};
  }
};

template <typename Env>
analysis::object_builder<Env> marked(analysis::object_builder<Env> b,
                                     setup_mark* mark) {
  if (!mark) return b;
  return [b = std::move(b), mark](address_space& mem, std::size_t n) {
    auto obj = b(mem, n);
    mark->hit();
    return obj;
  };
}

void note_work(round_result& rr, const analysis::summary_stats& s) {
  rr.work.trials += s.trials;
  rr.work.steps += static_cast<std::uint64_t>(
      std::llround(s.steps.mean * static_cast<double>(s.steps.count)));
}

// A one-shot grid: every trial's record is kept, so each trial is checked
// and timed on its own (record.wall_ms, the engine's per-trial timer; on
// batch cells the engine apportions a lockstep chunk's time over its
// lanes by steps).
round_result oneshot_round(std::vector<oneshot_cell> (*make)(std::uint64_t),
                           std::uint64_t seed, setup_mark* mark) {
  round_result rr;
  const std::uint64_t t0 = now_ns();
  std::vector<oneshot_cell> cells = make(seed);
  std::vector<analysis::trial_grid> grid;
  for (const oneshot_cell& c : cells) {
    grid.push_back(c.grid);
    grid.back().keep_records = true;
    grid.back().build = marked(std::move(grid.back().build), mark);
  }
  auto sums = analysis::run_experiment_grid(grid, grid_options());
  analysis::json doc = analysis::json::array();
  for (const auto& s : sums) doc.push_back(analysis::to_json(s));
  const std::string text = doc.dump();
  rr.window_s = seconds_since(t0);
  rr.verdict_s = rr.window_s;

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const oneshot_cell& cell = cells[c];
    const auto& s = sums[c];
    const bool claimed = cell.semantics == sim::register_semantics::atomic;
    for (const trial_record& r : s.records) {
      const bool ok = trial_ok(cell, r);
      rr.fails.add(ok);
      if (!ok) rr.fail(s.label, 1, claimed, {{r.trial_index, r.seed}});
      if (ok && model_break(cell, r)) {
        ++rr.model_breaks;
        ++rr.broken_by_cell[s.label];
      }
      rr.latency_us.push_back(r.wall_ms * 1e3);
    }
    note_work(rr, s);
    if (cell.consensus) rr.work.slot_decisions += s.all_decided;
  }
  if (text.empty()) throw std::runtime_error("empty serialization");
  return rr;
}

check::explore_report explore(const explore_cell& c,
                              const analysis::sim_object_builder& build) {
  return check::explore_all(build, c.inputs, check::consensus_checker(),
                            c.opts);
}

bool explore_ok(const check::explore_report& r) {
  return r.exhausted && r.ok();
}

// The model-check set, timed on the calling thread.
struct explore_pass {
  double wall_s = 0;
  std::vector<check::explore_report> reports;
};

explore_pass explore_set(const std::vector<explore_cell>& cells) {
  explore_pass p;
  const std::uint64_t t0 = now_ns();
  for (const explore_cell& c : cells)
    p.reports.push_back(explore(c, sim_stack(c.spec)));
  p.wall_s = seconds_since(t0);
  return p;
}

// Part two runs the model-check set once on each worker, every copy on a
// thread of its own, and takes the median copy's time as the round's
// time to a verdict.  One copy would be timed on whichever core it
// happened to run; on a shared host the copies of one round took up to
// 1.5x as long as each other.
round_result verify_round(std::uint64_t seed, setup_mark* mark) {
  round_result rr = oneshot_round(verify_cells, seed, mark);
  const std::vector<explore_cell> cells = explore_cells(seed);
  std::vector<explore_pass> copies(worker_count());
  {
    std::vector<std::jthread> threads;
    for (explore_pass& p : copies)
      threads.emplace_back([&cells, &p] { p = explore_set(cells); });
  }
  std::vector<double> times;
  for (const explore_pass& p : copies) {
    times.push_back(p.wall_s);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& rep = p.reports[i];
      if (rep.executions != copies[0].reports[i].executions)
        throw std::runtime_error("model-check copies explored different trees");
      rr.fails.add(explore_ok(rep));
      if (!explore_ok(rep)) rr.fail(cells[i].label, 1, true);
    }
  }
  for (const auto& rep : copies[0].reports)
    rr.work.explorer_executions += rep.executions;
  rr.verdict_s = median(times);
  return rr;
}

// The slot-log grid keeps no per-trial records, so failures are counted
// per check from the cell's counts (capped at its trials), and each trial
// counts as its cell's mean duration (summary wall_ms / trials).
round_result multishot_round(std::uint64_t seed, setup_mark* mark) {
  round_result rr;
  const std::uint64_t t0 = now_ns();
  auto grid = multishot_cells(seed);
  if (mark)
    for (auto& g : grid)
      g.make_adversary = [mark]() -> std::unique_ptr<sim::adversary> {
        mark->hit();
        return std::make_unique<sim::random_oblivious>();
      };
  auto sums = analysis::run_multi_grid(grid, grid_options());
  analysis::json doc = analysis::json::array();
  for (const auto& s : sums) doc.push_back(analysis::to_json(s));
  const std::string text = doc.dump();
  rr.window_s = seconds_since(t0);
  rr.verdict_s = rr.window_s;

  for (std::size_t c = 0; c < grid.size(); ++c) {
    const auto& s = sums[c];
    // s.valid counts completed trials whose slots all agreed and were
    // proposed; s.agreed is whole-log agreement of the survivors.
    const std::uint64_t broken = std::min<std::uint64_t>(
        (s.trials - s.valid) + (s.completed - s.agreed) + s.audit_violated,
        s.trials);
    rr.fails.add_block(s.trials, broken);
    if (broken) rr.fail(s.label, broken, true);
    if (s.trials > 0)
      rr.latency_us.insert(rr.latency_us.end(), s.trials,
                           s.wall_ms * 1e3 / static_cast<double>(s.trials));
    note_work(rr, s);
    rr.work.slot_decisions += s.valid * grid[c].shards * grid[c].slots;
  }
  if (text.empty()) throw std::runtime_error("empty serialization");
  return rr;
}

round_result rt_round_run(std::uint64_t seed, setup_mark* mark) {
  round_result rr;
  const std::uint64_t t0 = now_ns();
  const rt_round round = rt_cells(seed, rt_processes());
  const std::map<std::string, analysis::rt_object_builder> builders = {
      {"impatient", marked(rt_stack("impatient"), mark)},
      {"bounded", marked(rt_stack("bounded"), mark)}};
  for (std::size_t i = 0; i < round.instances.size(); ++i) {
    const rt_instance& inst = round.instances[i];
    rr.work.trials += 1;
    if (inst.slot_log) {
      analysis::multi_trial_options o;
      o.seed = inst.seed;
      const auto res = analysis::run_rt_multi_trial(round.log, o);
      const bool ok = multi_ok(res);
      rr.fails.add(ok);
      if (!ok) rr.fail(round.log.label, 1, true, {{i, inst.seed}});
      rr.work.steps += res.base.steps;
      if (ok) rr.work.slot_decisions += round.log.shards * round.log.slots;
      continue;
    }
    const auto inputs = analysis::make_inputs(
        analysis::input_pattern::random_m, round.n, 2, inst.seed);
    analysis::rt_trial_options o;
    o.seed = inst.seed;
    const std::uint64_t c0 = now_ns();
    const auto res =
        analysis::run_rt_object_trial(builders.at(inst.stack), inputs, o);
    rr.latency_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
    const bool ok = rt_ok(res, inputs);
    rr.fails.add(ok);
    if (!ok) rr.fail("rt/" + inst.stack, 1, true, {{i, inst.seed}});
    rr.work.steps += res.steps;
    rr.work.slot_decisions += ok;
  }
  rr.window_s = seconds_since(t0);
  rr.verdict_s = rr.window_s;
  return rr;
}

round_result run_round(const std::string& w, std::uint64_t seed,
                       setup_mark* mark = nullptr) {
  if (w == "oneshot_sim") return oneshot_round(oneshot_cells, seed, mark);
  if (w == "verify") return verify_round(seed, mark);
  if (w == "multishot_sim") return multishot_round(seed, mark);
  return rt_round_run(seed, mark);
}

// ---------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const fail_tally& f,
                  const std::vector<metric>& ms) {
  for (const metric& m : ms)
    std::cout << "metric " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  std::cout << "fail_rate = " << f.failed << "/" << f.attempted << " = "
            << number(f.rate()) << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << f.attempted
            << ", \"failed\": " << f.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << ms[i].name
              << "\": {\"value\": " << number(ms[i].value)
              << ", \"unit\": \"" << ms[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

// Resets the process's peak resident set (VmHWM) to its current size.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  if (!f) throw std::runtime_error("cannot reset the peak RSS");
}

// The process's peak resident set since the last reset, in MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      f >> kib;
      return kib / 1024.0;
    }
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void print_work(const char* what, const work_counts& w) {
  std::cout << what << ": trials=" << w.trials << " simulated_steps="
            << w.steps << " slot_decisions=" << w.slot_decisions
            << " explorer_executions=" << w.explorer_executions << "\n";
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char ch : s) q += ch == '\'' ? std::string("'\\''") : std::string(1, ch);
  return q + "'";
}

// One set-up in a fresh process: this driver run with --setup-probe,
// which prints its set-up time and stops.
double probe_setup(const cli& c) {
  const std::string cmd =
      shell_quote(std::filesystem::read_symlink("/proc/self/exe").string()) +
      " --workload " + c.workload + " --seed " + std::to_string(c.seed) +
      " --seconds 1 --trace 0 --setup-probe 1";
  FILE* p = popen(cmd.c_str(), "r");
  if (!p) throw std::runtime_error("cannot start a set-up probe");
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p)) out += buf;
  if (pclose(p) != 0) throw std::runtime_error("a set-up probe failed");
  return std::stod(out);
}

double setup_seconds(const setup_mark& mark) {
  const std::uint64_t at = mark.ns.load();
  if (at == 0) throw std::runtime_error("the set-up round ran no trial");
  return static_cast<double>(at - g_entry_ns) / 1e9;
}

// --setup-probe: run the set-up round up to its mark, print the set-up
// time and stop.
int setup_probe(const cli& c) {
  setup_mark mark;
  mark.stop = true;
  try {
    run_round(c.workload, c.seed, &mark);
  } catch (const setup_reached&) {
  }
  std::cout << number(setup_seconds(mark)) << std::endl;
  return 0;
}

int measured_run(const cli& c) {
  // Set-up: from process entry to the mark in the first round, which is
  // the untimed warm-up.  The other set-ups run in fresh processes, so
  // every one is cold.
  setup_mark mark;
  const round_result warm = run_round(c.workload, c.seed, &mark);
  std::vector<double> setups = {setup_seconds(mark)};
  for (std::size_t i = 0; i < kSetupProbes; ++i)
    setups.push_back(probe_setup(c));
  const bool simulated = c.workload != "rt_threads";

  // Every round starts from a trimmed heap, as a fresh process would,
  // and its peak RSS is its own: the process's peak over all rounds
  // would be a maximum over as many samples as the run has rounds.  A
  // round's latency samples are summarized and dropped as it ends.
  std::vector<round_result> rounds;
  std::vector<latency_summary> lats;
  std::vector<double> rss;
  const std::uint64_t start = now_ns();
  while (rounds.size() < kMinRounds || seconds_since(start) < c.seconds) {
    malloc_trim(0);
    reset_peak_rss();
    rounds.push_back(run_round(c.workload, c.seed));
    rss.push_back(peak_rss_mb());
    lats.push_back(summarize_latency(rounds.back().latency_us));
    std::vector<double>().swap(rounds.back().latency_us);
  }

  // Identical work and failures in every round (the rt backend's step
  // counts are real-thread interleavings and may differ).  attempted and
  // failed describe one round, the warm-up, so they are a function of the
  // seed alone; every timed round is checked against it.
  bool same_work = true;
  round_result extra;  // failures of timed rounds that the warm-up lacks
  for (const round_result& r : rounds) {
    work_counts a = r.work, b = warm.work;
    if (!simulated) a.steps = b.steps = 0;
    const bool same_fails = r.fails.failed == warm.fails.failed &&
                            r.fails.attempted == warm.fails.attempted;
    same_work = same_work && a == b && same_fails;
    if (!same_fails)
      for (const auto& [cell, f] : r.failed_by_cell)
        extra.fail(cell, f.count, f.claimed, f.first);
  }

  std::vector<double> trials_ps, steps_ps, decisions_ps, verdict;
  std::vector<double> lat_p50, lat_tail;
  std::size_t lat_samples = 0;
  double lat_q = 1;
  for (const latency_summary& lat : lats) {
    lat_p50.push_back(lat.p50);
    lat_tail.push_back(lat.tail);
    lat_samples += lat.count;
    lat_q = std::min(lat_q, lat.tail_q);
  }
  for (const round_result& r : rounds) {
    trials_ps.push_back(static_cast<double>(r.work.trials) / r.window_s);
    steps_ps.push_back(static_cast<double>(r.work.steps) / r.window_s);
    decisions_ps.push_back(static_cast<double>(r.work.slot_decisions) /
                           r.window_s);
    verdict.push_back(r.verdict_s);
  }

  std::cout << "workload " << c.workload << " seed=" << c.seed
            << " workers=" << worker_count()
            << " rt_processes=" << rt_processes() << " rounds=" << rounds.size()
            << " timed_s=" << number(seconds_since(start)) << "\n";
  print_work("work per round", warm.work);
  std::cout << "set-ups (s; the first is this process's own):";
  for (double x : setups) std::cout << " " << number(x);
  std::cout << "\ntrials_per_s by round:";
  for (double x : trials_ps) std::cout << " " << static_cast<long long>(x);
  std::cout << "\nverdict_s by round:";
  for (double x : verdict) std::cout << " " << number(x);
  std::cout << "\nlatency_p99_us by round:";
  for (double x : lat_tail) std::cout << " " << number(x);
  std::cout << "\n";
  auto print_failures = [&](const round_result& r, const char* when) {
    for (const auto& [cell, f] : r.failed_by_cell) {
      std::cout << "FAILED " << f.count << " attempt(s) " << when
                << " in cell " << cell << " (workload seed " << c.seed;
      if (f.first)
        std::cout << "; first: trial " << f.first->first << ", trial seed "
                  << f.first->second;
      std::cout << ")" << (f.claimed ? "" : " under weakened registers")
                << "\n";
    }
  };
  print_failures(warm, "per round");
  print_failures(extra, "in timed rounds that differ from the warm-up");
  for (const auto& [cell, k] : warm.broken_by_cell)
    std::cout << "model break: " << k
              << " trial(s) per round disagreed or left a process "
                 "undecided in cell "
              << cell << " under weakened registers (seed " << c.seed
              << ")\n";
  std::cout << "model breaks per round (not failures): " << warm.model_breaks
            << "\n";
  std::cout << "failures per round where the stacks claim the properties: "
            << warm.claimed_failures() << "\n";
  std::cout << "identical work and failures in every round: "
            << (same_work ? "yes" : "NO") << "\n";
  std::cout << "latency: median over rounds of each round's p50 and p"
            << number(lat_q * 100) << ", " << lat_samples
            << " samples in all"
            << (c.workload == "multishot_sim"
                    ? " (each trial counts as its cell's mean trial time)"
                    : "")
            << "\n";
  if (lat_q < kTailWant)
    std::cout << "note: a round's latency samples support only the p"
              << number(lat_q * 100)
              << " tail; latency_p99_us reports that percentile\n";

  const std::vector<metric> ms = {
      {"setup_s", median(setups), "s"},
      {"trials_per_s", median(trials_ps), "1/s"},
      {"steps_per_s", median(steps_ps), "1/s"},
      {"slot_decisions_per_s", median(decisions_ps), "1/s"},
      {"latency_p50_us", median(lat_p50), "us"},
      {"latency_p99_us", median(lat_tail), "us"},
      {"verdict_s", median(verdict), "s"},
      {"peak_rss_mb", median(rss), "MB"},
  };
  print_result(same_work && warm.claimed_failures() == 0 &&
                   extra.claimed_failures() == 0,
               warm.fails, ms);
  return 0;
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

// Counts recorded at the same boundaries as the spans.
struct layer_counts {
  std::uint64_t sim_steps = 0;
  std::uint64_t picks = 0;
  std::vector<double> pick_ns;
  std::uint64_t runner_trials = 0;
  std::uint64_t batch_lanes = 0;
  std::uint64_t batch_steps = 0;
  std::uint64_t audit_events = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t explorer_executions = 0;
  std::uint64_t explorer_nodes = 0;
  std::uint64_t explorer_pruned = 0;
  std::uint64_t json_bytes = 0;
  std::uint64_t multi_trials = 0;
  std::uint64_t multi_proposals = 0;
  std::uint64_t multi_fast_path = 0;
  std::uint64_t extents_created = 0;
  std::uint64_t extents_reused = 0;
  std::vector<double> slot_ops;
  std::uint64_t rt_trials = 0;
  std::uint64_t rt_timed_out = 0;
  std::uint64_t rt_races = 0;
  fail_tally fails;
  // Failed trials of one-shot cells under regular or safe registers,
  // where the stacks do not claim the properties.
  std::uint64_t unclaimed_failures = 0;
};

// Forwards to the cell's scheduler and times one pick in kPickSample.
// Forwarding uniform_pick_stream keeps the world's uniform fast path on,
// so uniform schedulers are never consulted through pick() at all.
class timed_adversary final : public sim::adversary {
 public:
  timed_adversary(std::unique_ptr<sim::adversary> inner, layer_counts* lc)
      : inner_(std::move(inner)), lc_(lc) {}
  sim::adversary_power power() const override { return inner_->power(); }
  std::string name() const override { return inner_->name(); }
  void reset(std::size_t n, std::uint64_t seed) override {
    inner_->reset(n, seed);
  }
  process_id pick(const sim::sched_view& v) override {
    if (++lc_->picks % kPickSample != 0) return inner_->pick(v);
    const std::uint64_t t0 = now_ns();
    const process_id p = inner_->pick(v);
    lc_->pick_ns.push_back(static_cast<double>(now_ns() - t0));
    return p;
  }
  rng_block* uniform_pick_stream() override {
    return inner_->uniform_pick_stream();
  }

 private:
  std::unique_ptr<sim::adversary> inner_;
  layer_counts* lc_;
};

template <typename Env>
analysis::object_builder<Env> traced_builder(analysis::object_builder<Env> b,
                                             span_recorder* rec) {
  if (!rec) return b;
  return [b = std::move(b), rec](address_space& mem, std::size_t n) {
    scoped_span s(rec, "core.build");
    return b(mem, n);
  };
}

// What run_object_trial's audit would check, called from the inspect
// hook so the auditor's time is its own span.
check::audit_report audit_from_hook(const sim::sim_world& w,
                                    const std::vector<value_t>& inputs,
                                    const analysis::fault_plan& faults,
                                    const analysis::audit_plan& plan) {
  check::audit_spec spec;
  spec.n = inputs.size();
  spec.inputs = inputs;
  spec.ratifier = plan.ratifier;
  spec.check_properties = plan.deciding && !faults.registers.enabled();
  spec.regular_registers = faults.registers.regular;
  spec.semantics = faults.registers.semantics;
  spec.write_omission = faults.registers.omit_denominator != 0 &&
                        faults.registers.omit_budget != 0;
  spec.process_faults = !faults.crashes.empty() || !faults.restarts.empty() ||
                        !faults.recoveries.empty() || !faults.stalls.empty();
  spec.volatile_regs = w.volatile_registers();
  spec.recovery_steps = w.recovery_steps();
  std::vector<check::labeled_output> escaped;
  for (process_id pid = 0; pid < inputs.size(); ++pid)
    if (auto out = w.output_of(pid))
      escaped.push_back({pid, decode_decided(*out)});
  return check::audit_trial(w.execution_trace(), escaped, {}, spec);
}

// One scalar trial through the per-trial calls the grid engine makes.
trial_record scalar_trial(const analysis::trial_grid& cell,
                          std::uint64_t index, span_recorder* rec,
                          layer_counts& lc) {
  if (rec) rec->next_trial();
  scoped_span trial_span(rec, "runner.trial");
  trial_record r;
  r.trial_index = index;
  r.seed = analysis::derive_trial_seed(cell.base_seed, index);
  std::unique_ptr<sim::adversary> adv =
      cell.make_adversary ? cell.make_adversary()
                          : std::make_unique<sim::random_oblivious>();
  if (rec) adv = std::make_unique<timed_adversary>(std::move(adv), &lc);
  const auto inputs = analysis::make_inputs(cell.pattern, cell.n, cell.m,
                                            r.seed);
  analysis::trial_options o;
  o.seed = r.seed;
  o.limits = cell.limits;
  o.faults = cell.faults_for ? cell.faults_for(index, r.seed) : cell.faults;
  o.perf = &r.perf;
  o.audit.ratifier = cell.audit.ratifier;
  o.audit.deciding = cell.audit.deciding;
  o.audit.max_trace_events = cell.audit.max_trace_events;
  const bool audit = cell.audit.enabled_for(index);
  std::optional<check::audit_report> hooked;
  if (audit && rec) {
    o.trace = true;
    o.inspect = [&](const sim::sim_world& w) {
      scoped_span s(rec, "auditor.audit");
      hooked = audit_from_hook(w, inputs, o.faults, cell.audit);
    };
  } else {
    o.audit.enabled = audit;
  }
  {
    scoped_span s(rec, "sim.run");
    r.result = analysis::run_object_trial(traced_builder(cell.build, rec),
                                          inputs, *adv, o);
  }
  if (hooked) r.result.audit = std::move(hooked);
  lc.sim_steps += r.result.steps;
  if (r.result.audit) {
    lc.audit_events += r.result.audit->events_checked;
    lc.audit_violations +=
        r.result.audit->status == check::audit_status::violated;
  }
  {
    scoped_span s(rec, "metrics.judge");
    const std::vector<decided> escaped = r.result.all_outputs();
    std::vector<value_t> sorted = inputs;
    std::sort(sorted.begin(), sorted.end());
    r.valid = analysis::check_validity_sorted(escaped, sorted);
    r.agreement = analysis::check_agreement(escaped);
    r.coherent = analysis::check_coherence(escaped);
    r.decided_all = analysis::all_decided(escaped);
  }
  ++lc.runner_trials;
  return r;
}

// The first trials of a cell: one in `den` of them, rounded up, so the
// sample keeps the workload's mix of cells.
std::size_t sample_size(std::size_t trials, std::size_t den) {
  return (trials + den - 1) / den;
}

void sample_oneshot(const std::vector<oneshot_cell>& cells, std::size_t den,
                    span_recorder* rec, layer_counts& lc) {
  const std::size_t width = analysis::experiment_options{}.batch;
  for (const oneshot_cell& c : cells) {
    const std::size_t count = sample_size(c.grid.trials, den);
    std::vector<trial_record> records;
    if (analysis::batch_supported(c.grid)) {
      // In chunks of the engine's default lockstep width, as the grid
      // pool hands them out.
      records.resize(count);
      for (std::size_t first = 0; first < count; first += width) {
        const std::size_t w = std::min(width, count - first);
        std::vector<std::uint64_t> idx(w);
        for (std::size_t i = 0; i < w; ++i) idx[i] = first + i;
        if (rec) rec->next_trial();
        scoped_span s(rec, "batch_engine.run");
        analysis::run_batch_trials(c.grid, *c.grid.batch_hint, idx.data(),
                                   records.data() + first, w);
      }
      lc.batch_lanes += count;
      for (const auto& r : records) lc.batch_steps += r.result.steps;
    } else {
      for (std::size_t i = 0; i < count; ++i)
        records.push_back(scalar_trial(c.grid, i, rec, lc));
    }
    for (const auto& r : records) {
      const bool ok = trial_ok(c, r);
      lc.fails.add(ok);
      lc.unclaimed_failures +=
          !ok && c.semantics != sim::register_semantics::atomic;
    }
    if (rec) rec->next_trial();
    scoped_span red(rec, "experiment.reduce");
    auto summary =
        analysis::reduce_records(analysis::meta_of(c.grid), std::move(records));
    red.stop();
    scoped_span ser(rec, "json_writer.serialize");
    lc.json_bytes += analysis::to_json(summary).dump().size();
  }
}

void sample_explore(const std::vector<explore_cell>& cells,
                    span_recorder* rec, layer_counts& lc) {
  for (const explore_cell& c : cells) {
    const auto build = sim_stack(c.spec);
    if (rec) rec->next_trial();
    scoped_span s(rec, "explorer.explore_all");
    const auto rep = explore(c, build);
    s.stop();
    lc.fails.add(explore_ok(rep));
    lc.explorer_executions += rep.executions;
    lc.explorer_nodes += rep.nodes;
    lc.explorer_pruned += rep.pruned;
  }
}

void note_multi(const analysis::multi_trial_result& res, layer_counts& lc) {
  ++lc.multi_trials;
  lc.multi_proposals += res.proposals;
  lc.multi_fast_path += res.fast_path_hits;
  lc.extents_created += res.pool.extents_created;
  lc.extents_reused += res.pool.extents_reused;
  lc.slot_ops.insert(lc.slot_ops.end(), res.slot_ops.begin(),
                     res.slot_ops.end());
  lc.fails.add(multi_ok(res));
}

void sample_multi(const std::vector<analysis::multi_grid>& cells,
                  std::size_t den, span_recorder* rec, layer_counts& lc) {
  for (const auto& c : cells)
    for (std::size_t t = 0; t < sample_size(c.trials, den); ++t) {
      analysis::multi_trial_options o;
      o.seed = analysis::derive_trial_seed(c.base_seed, t);
      o.limits = c.limits;
      o.faults = c.faults;
      if (rec) rec->next_trial();
      scoped_span s(rec, "multi.trial");
      const auto res = analysis::run_multi_trial(c, o);
      s.stop();
      note_multi(res, lc);
    }
}

void sample_rt(const rt_round& round, std::size_t den, span_recorder* rec,
               layer_counts& lc) {
  const std::map<std::string, analysis::rt_object_builder> builders = {
      {"impatient", traced_builder(rt_stack("impatient"), rec)},
      {"bounded", traced_builder(rt_stack("bounded"), rec)}};
  for (std::size_t i = 0; i < sample_size(round.instances.size(), den); ++i) {
    const rt_instance& inst = round.instances[i];
    if (rec) rec->next_trial();
    if (inst.slot_log) {
      analysis::multi_trial_options o;
      o.seed = inst.seed;
      scoped_span s(rec, "multi.trial");
      const auto res = analysis::run_rt_multi_trial(round.log, o);
      s.stop();
      note_multi(res, lc);
      continue;
    }
    const auto inputs = analysis::make_inputs(
        analysis::input_pattern::random_m, round.n, 2, inst.seed);
    analysis::rt_trial_options o;
    o.seed = inst.seed;
    scoped_span s(rec, "rt.trial");
    const auto res =
        analysis::run_rt_object_trial(builders.at(inst.stack), inputs, o);
    s.stop();
    ++lc.rt_trials;
    lc.rt_timed_out += res.timed_out();
    lc.rt_races += res.races;
    lc.fails.add(rt_ok(res, inputs));
  }
}

// The traced sample of each workload: a fixed share of every cell's
// trials (and the whole model-check set), sized to a fraction of a
// second per pass on one thread.
void run_sample(const cli& c, span_recorder* rec, layer_counts& lc) {
  if (c.workload == "oneshot_sim") {
    sample_oneshot(oneshot_cells(c.seed), 8, rec, lc);
  } else if (c.workload == "verify") {
    sample_oneshot(verify_cells(c.seed), 4, rec, lc);
    sample_explore(explore_cells(c.seed), rec, lc);
  } else if (c.workload == "multishot_sim") {
    sample_multi(multishot_cells(c.seed), 8, rec, lc);
  } else {
    sample_rt(rt_cells(c.seed, rt_processes()), 4, rec, lc);
  }
}

// The module each span name belongs to.
const char* layer_of(const std::string& span) {
  static const std::map<std::string, const char*> layers = {
      {"runner.trial", "analysis.runner"},
      {"sim.run", "sim"},
      {"core.build", "core"},
      {"metrics.judge", "analysis.metrics"},
      {"auditor.audit", "check.auditor"},
      {"batch_engine.run", "analysis.batch_engine"},
      {"experiment.reduce", "analysis.experiment"},
      {"json_writer.serialize", "analysis.json_writer"},
      {"explorer.explore_all", "check.explorer"},
      {"multi.trial", "analysis.multi"},
      {"rt.trial", "rt"},
  };
  auto it = layers.find(span);
  return it == layers.end() ? "?" : it->second;
}

int traced_run(const cli& c) {
  auto timed_pass = [&](span_recorder* rec, layer_counts& lc) {
    const std::uint64_t t0 = now_ns();
    run_sample(c, rec, lc);
    return seconds_since(t0);
  };
  // Alternate untraced and traced passes over the same sample until the
  // run's time is up; every figure below is per pass.
  layer_counts lc;
  span_recorder rec;
  std::size_t passes = 0, first_pass_spans = 0;
  fail_tally first_pass_fails;  // attempted/failed: one pass, seed-determined
  double untraced_total = 0, traced_total = 0;
  const std::uint64_t start = now_ns();
  do {
    layer_counts scratch;
    untraced_total += timed_pass(nullptr, scratch);
    traced_total += timed_pass(&rec, lc);
    if (++passes == 1) {
      first_pass_spans = rec.spans().size();
      first_pass_fails = lc.fails;
    }
  } while (seconds_since(start) < c.seconds);
  const double np = static_cast<double>(passes);
  const double wall = traced_total / np;
  const double untraced = untraced_total / np;

  // Span sums by name, and the durations the distributions need.
  std::map<std::string, double> total_s;
  std::map<std::string, std::vector<double>> dur_us;
  double rt_build_s = 0;
  const auto& spans = rec.spans();
  for (const span& s : spans) {
    const double d = static_cast<double>(s.duration_ns());
    total_s[s.name] += d / 1e9;
    dur_us[s.name].push_back(d / 1e3);
    if (std::string(s.name) == "core.build" && s.parent >= 0 &&
        std::string(spans[s.parent].name) == "rt.trial")
      rt_build_s += d / 1e9;
  }
  const auto self_ns = rec.self_ns_by_name();
  auto self_s = [&](const char* name) {
    auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0
                               : static_cast<double>(it->second) / 1e9 / np;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // Counts per pass (simulated counts are identical in every pass).
  auto d = [np](std::uint64_t x) { return static_cast<double>(x) / np; };

  for (auto& [name, t] : total_s) t /= np;
  rt_build_s /= np;
  const double attributed = static_cast<double>(rec.root_ns()) / 1e9 / np;
  const double unattributed = wall - attributed;
  const std::uint64_t workload_trials =
      lc.runner_trials + lc.batch_lanes + lc.multi_trials + lc.rt_trials;
  const latency_summary runner = summarize_latency(dur_us["runner.trial"]);
  const latency_summary multi = summarize_latency(dur_us["multi.trial"]);

  // Per-layer self-time table.
  std::cout << "traced run: workload " << c.workload << " seed=" << c.seed
            << " passes=" << passes << " spans=" << spans.size()
            << " (figures per pass)\n";
  std::printf("%-22s %-22s %12s %8s\n", "layer", "span", "self_s", "share");
  double self_sum = 0;
  for (const auto& [name, ns] : self_ns) {
    const double s = static_cast<double>(ns) / 1e9 / np;
    self_sum += s;
    std::printf("%-22s %-22s %12.6f %7.2f%%\n", layer_of(name), name.c_str(),
                s, 100 * per(s, wall));
  }
  std::printf("%-22s %-22s %12.6f %7.2f%%\n", "unattributed", "-",
              unattributed, 100 * per(unattributed, wall));
  std::printf("%-22s %-22s %12.6f  (self times + unattributed = %.6f)\n",
              "traced wall", "-", wall, self_sum + unattributed);
  std::printf("untraced wall %.6f s, tracing overhead %.6f s (%.2f%%)\n",
              untraced, wall - untraced, 100 * per(wall - untraced, untraced));
  std::fflush(stdout);

  std::filesystem::create_directories(c.out_dir);
  const std::string stem =
      c.out_dir + "/" + c.workload + "-seed" + std::to_string(c.seed);
  {
    std::ofstream out(stem + ".trace.json");
    rec.write_chrome_trace(out, c.workload + " (first traced pass)",
                           first_pass_spans);
    if (!out) throw std::runtime_error("cannot write " + stem + ".trace.json");
  }
  {
    std::ofstream out(stem + ".layers.json");
    out << "{\"workload\": \"" << c.workload << "\", \"seed\": " << c.seed
        << ", \"passes\": " << passes
        << ", \"traced_wall_s\": " << number(wall)
        << ", \"untraced_wall_s\": " << number(untraced)
        << ", \"unattributed_s\": " << number(unattributed)
        << ", \"self_s\": {";
    const char* sep = "";
    for (const auto& [name, ns] : self_ns) {
      out << sep << "\"" << name << "\": {\"layer\": \"" << layer_of(name)
          << "\", \"self_s\": "
          << number(static_cast<double>(ns) / 1e9 / np)
          << "}";
      sep = ", ";
    }
    out << "}}\n";
    if (!out) throw std::runtime_error("cannot write " + stem + ".layers.json");
  }
  std::cout << "wrote " << stem << ".trace.json and " << stem
            << ".layers.json\n";
  std::cout << "runner trial tail=p" << number(runner.tail_q * 100) << " over "
            << runner.count << " trials; multi trial tail=p"
            << number(multi.tail_q * 100) << " over " << multi.count
            << " trials\n";

  const std::vector<metric> ms = {
      {"core.build_s", total_s["core.build"], "s"},
      {"core.builds", d(dur_us["core.build"].size()), "count"},
      {"core.build_us_p50", percentile(dur_us["core.build"], 0.5), "us"},
      {"sim.run_self_s", self_s("sim.run"), "s"},
      {"sim.steps", d(lc.sim_steps), "count"},
      {"sim.ns_per_step", per(self_s("sim.run") * 1e9, d(lc.sim_steps)), "ns"},
      {"sim.adversary_picks", d(lc.picks), "count"},
      {"sim.pick_ns_p50", percentile(lc.pick_ns, 0.5), "ns"},
      {"runner.trials", d(lc.runner_trials), "count"},
      {"runner.trial_us_p50", runner.p50, "us"},
      {"runner.trial_us_p99", runner.tail, "us"},
      {"batch_engine.busy_s", total_s["batch_engine.run"], "s"},
      {"batch_engine.lanes", d(lc.batch_lanes), "count"},
      {"batch_engine.trial_share", per(d(lc.batch_lanes), d(workload_trials)),
       "ratio"},
      {"batch_engine.ns_per_step",
       per(total_s["batch_engine.run"] * 1e9, d(lc.batch_steps)), "ns"},
      {"metrics.judge_s", total_s["metrics.judge"], "s"},
      {"metrics.judge_share", per(total_s["metrics.judge"], wall), "ratio"},
      {"auditor.audit_s", total_s["auditor.audit"], "s"},
      {"auditor.events_checked", d(lc.audit_events), "count"},
      {"auditor.ns_per_event",
       per(total_s["auditor.audit"] * 1e9, d(lc.audit_events)), "ns"},
      {"auditor.violations", d(lc.audit_violations), "count"},
      {"explorer.busy_s", total_s["explorer.explore_all"], "s"},
      {"explorer.executions", d(lc.explorer_executions), "count"},
      {"explorer.nodes", d(lc.explorer_nodes), "count"},
      {"explorer.pruned", d(lc.explorer_pruned), "count"},
      {"explorer.execs_per_s",
       per(d(lc.explorer_executions), total_s["explorer.explore_all"]), "1/s"},
      {"experiment.reduce_s", total_s["experiment.reduce"], "s"},
      {"json_writer.serialize_s", total_s["json_writer.serialize"], "s"},
      {"json_writer.bytes", d(lc.json_bytes), "B"},
      {"multi.trial_us_p50", multi.p50, "us"},
      {"multi.trial_us_p99", multi.tail, "us"},
      {"multi.proposals", d(lc.multi_proposals), "count"},
      {"multi.fast_path_ratio",
       per(d(lc.multi_fast_path), d(lc.multi_proposals)), "ratio"},
      {"multi.extent_reuse_ratio",
       per(d(lc.extents_reused), d(lc.extents_created + lc.extents_reused)),
       "ratio"},
      {"multi.slot_ops_p50", percentile(lc.slot_ops, 0.5), "count"},
      {"rt.trials", d(lc.rt_trials), "count"},
      {"rt.timed_out", d(lc.rt_timed_out), "count"},
      {"rt.races", d(lc.rt_races), "count"},
      {"rt.build_s", rt_build_s, "s"},
      {"trace.wall_s", wall, "s"},
      {"trace.untraced_wall_s", untraced, "s"},
      {"trace.overhead_s", wall - untraced, "s"},
      {"trace.unattributed_s", unattributed, "s"},
      {"trace.spans", d(spans.size()), "count"},
  };
  std::cout << "failed " << lc.fails.failed << " of " << lc.fails.attempted
            << " attempts over " << passes << " traced passes, "
            << lc.unclaimed_failures << " of them under weakened registers\n";
  print_result(lc.fails.failed == lc.unclaimed_failures, first_pass_fails,
               ms);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::cli c = perfbench::parse(argc, argv);
  try {
    if (c.setup_probe) return perfbench::setup_probe(c);
    return c.trace ? perfbench::traced_run(c) : perfbench::measured_run(c);
  } catch (const std::exception& e) {
    std::cerr << "modcon_perfbench: harness error: " << e.what() << "\n";
    return 1;
  }
}
