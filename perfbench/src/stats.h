// Statistics the benchmark reports: medians, the tail-percentile rule,
// and failure counting.  Pure functions over plain vectors so that
// tests/stats_test.cpp can pin them down.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile q in (0, 1] of a sample: the value at rank
// ceil(q * n) of the sorted sample.  0 for an empty sample.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t h = xs.size() / 2;
  return xs.size() % 2 ? xs[h] : (xs[h - 1] + xs[h]) / 2.0;
}

// Samples strictly beyond the nearest-rank percentile q of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

// The tail rule: report the highest percentile, up to p99, that still
// has at least kMinBeyond samples beyond it.
constexpr double kTailWant = 0.99;
constexpr std::size_t kMinBeyond = 10;

// The tail percentile a sample of n supports under the tail rule, or 0
// when not even the median qualifies.
inline double tail_quantile(std::size_t n) {
  static constexpr double kLadder[] = {kTailWant, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLadder)
    if (samples_beyond(n, q) >= kMinBeyond) return q;
  return 0.0;
}

// A timing's median and its supported tail, with the sample count.
struct latency_summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // the percentile `tail` reports (0 = none)
  double tail = 0.0;
};

inline latency_summary summarize_latency(const std::vector<double>& xs) {
  latency_summary s;
  s.count = xs.size();
  s.p50 = percentile(xs, 0.5);
  s.tail_q = tail_quantile(xs.size());
  s.tail = s.tail_q > 0 ? percentile(xs, s.tail_q) : s.p50;
  return s;
}

// The outcome of one one-shot trial's checks.
struct trial_checks {
  bool terminal = true;     // halted, not at the step limit or watchdog
  bool audit_clean = true;  // no audit violation (or not audited)
  bool valid = true;
  bool coherent = true;
  bool agreement = true;
  bool decided_all = true;
};

// The fail rule for one one-shot trial.  Step limit, watchdog, audit
// violations, validity and coherence fail a trial under every register
// semantics; disagreement and undecided processes fail only a consensus
// stack under atomic registers.
inline bool trial_passes(const trial_checks& t, bool consensus,
                         bool atomic) {
  if (!t.terminal || !t.audit_clean || !t.valid || !t.coherent) return false;
  return !(consensus && atomic) || (t.agreement && t.decided_all);
}

// Failures counted against attempts.  Every trial and model-check cell
// the benchmark runs is one attempt; an attempt fails once however many
// of its checks it breaks.
struct fail_tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  // A block of `attempts` attempts of which `failures` failed (clamped:
  // a block cannot fail more often than it was attempted).
  void add_block(std::uint64_t attempts, std::uint64_t failures) {
    attempted += attempts;
    failed += std::min(failures, attempts);
  }
  double rate() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

}  // namespace perfbench
