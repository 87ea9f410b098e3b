#include "stats/sp800_22.h"

#include <cmath>
#include <map>
#include <mutex>
#include <numeric>

#include "support/stats_util.h"
#include "support/thread_pool.h"

namespace dhtrng::stats::sp800_22 {

double TestResult::p_value() const {
  if (p_values.empty()) return 0.0;
  return std::accumulate(p_values.begin(), p_values.end(), 0.0) /
         static_cast<double>(p_values.size());
}

bool TestResult::pass(double alpha) const {
  if (!applicable) return true;  // vacuously: test does not apply
  if (p_values.empty()) return false;
  if (p_values.size() == 1) return p_values.front() >= alpha;
  // Multi-subtest tests (the paper's * rows): requiring every one of up to
  // 148 subtest p-values to clear alpha would fail ideal generators ~77% of
  // the time, so — matching the paper's averaging convention — a sequence
  // passes if the average subtest p-value clears alpha AND the number of
  // failing subtests stays within the 3-sigma binomial band expected of a
  // uniform p-value population.
  std::size_t failing = 0;
  for (double p : p_values) {
    if (p < alpha) ++failing;
  }
  const double n = static_cast<double>(p_values.size());
  const double limit = alpha * n + 3.0 * std::sqrt(alpha * (1.0 - alpha) * n);
  return p_value() >= alpha && static_cast<double>(failing) <= limit;
}

namespace {

std::vector<std::vector<bool>> enumerate_aperiodic_templates(std::size_t len) {
  // A template B is aperiodic (non-self-overlapping) iff no proper shift of
  // B matches itself: for every s in 1..len-1 there is an i with
  // B[i] != B[i+s].
  std::vector<std::vector<bool>> out;
  const std::size_t total = std::size_t{1} << len;
  for (std::size_t v = 0; v < total; ++v) {
    std::vector<bool> b(len);
    for (std::size_t i = 0; i < len; ++i) {
      b[i] = (v >> (len - 1 - i)) & 1u;
    }
    bool aperiodic = true;
    for (std::size_t s = 1; s < len && aperiodic; ++s) {
      bool overlaps = true;
      for (std::size_t i = 0; i + s < len; ++i) {
        if (b[i] != b[i + s]) {
          overlaps = false;
          break;
        }
      }
      if (overlaps) aperiodic = false;
    }
    if (aperiodic) out.push_back(std::move(b));
  }
  return out;
}

}  // namespace

const std::vector<std::vector<bool>>& aperiodic_templates_cached(
    std::size_t len) {
  static std::mutex mutex;
  static std::map<std::size_t, std::vector<std::vector<bool>>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(len);
  if (it == cache.end()) {
    it = cache.emplace(len, enumerate_aperiodic_templates(len)).first;
  }
  return it->second;  // map nodes are stable; safe to hand out
}

std::vector<TestResult> run_all(const BitStream& bits) {
  return {
      frequency(bits),
      block_frequency(bits),
      cumulative_sums(bits),
      runs(bits),
      longest_run(bits),
      rank(bits),
      dft(bits),
      non_overlapping_template(bits),
      overlapping_template(bits),
      universal(bits),
      approximate_entropy(bits),
      random_excursions(bits),
      random_excursions_variant(bits),
      serial(bits),
      linear_complexity(bits),
  };
}

std::vector<SuiteRow> run_suite(std::span<const BitStream> sets,
                                double alpha, std::size_t n_threads) {
  std::vector<SuiteRow> rows;
  if (sets.empty()) return rows;
  if (n_threads == 0) n_threads = support::ThreadPool::hardware_threads();

  // Run every set once, keep all results grouped by test index.  Sets are
  // independent, so they dispatch onto workers; each slot is written by
  // exactly one task and the aggregation below walks them in set order, so
  // the rows do not depend on the thread count.
  std::vector<std::vector<TestResult>> by_set(sets.size());
  if (n_threads <= 1 || sets.size() <= 1) {
    for (std::size_t s = 0; s < sets.size(); ++s) by_set[s] = run_all(sets[s]);
  } else {
    support::ThreadPool pool(std::min(n_threads, sets.size()));
    pool.parallel_for(0, sets.size(),
                      [&](std::size_t s) { by_set[s] = run_all(sets[s]); });
  }

  const std::size_t tests = by_set.front().size();
  for (std::size_t t = 0; t < tests; ++t) {
    SuiteRow row;
    row.name = by_set.front()[t].name;
    // Collect per-subtest p-value columns across applicable sets.
    std::size_t subtests = 0;
    for (const auto& results : by_set) {
      if (results[t].applicable) {
        subtests = std::max(subtests, results[t].p_values.size());
      }
    }
    double uniformity_sum = 0.0;
    std::size_t uniformity_cols = 0;
    for (std::size_t sub = 0; sub < subtests; ++sub) {
      std::vector<double> column;
      for (const auto& results : by_set) {
        if (results[t].applicable && sub < results[t].p_values.size()) {
          column.push_back(results[t].p_values[sub]);
        }
      }
      if (!column.empty()) {
        uniformity_sum += support::p_value_uniformity(column);
        ++uniformity_cols;
      }
    }
    row.p_value = uniformity_cols > 0
                      ? uniformity_sum / static_cast<double>(uniformity_cols)
                      : 0.0;
    for (const auto& results : by_set) {
      if (!results[t].applicable) continue;
      ++row.total;
      if (results[t].pass(alpha)) ++row.passed;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dhtrng::stats::sp800_22
