#include "stats/streaming.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.h"
#include "stats/special.h"

namespace cloudrepro::stats {

void StreamingMoments::merge(const StreamingMoments& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  // Chan et al.: M2 = M2a + M2b + delta^2 * na * nb / (na + nb),
  // delta expressed via the means to avoid overflow on large sums.
  const double delta = sum_ / na - other.sum_ / nb;
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  sum_ += other.sum_;
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  cached_ = 0;
}

double StreamingMoments::variance() const noexcept {
  if (!is_cached(kVariance)) {
    cached_variance_ = n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
    cached_ |= kVariance;
  }
  return cached_variance_;
}

double StreamingMoments::stddev() const noexcept {
  if (!is_cached(kStddev)) {
    cached_stddev_ = std::sqrt(variance());
    cached_ |= kStddev;
  }
  return cached_stddev_;
}

double StreamingMoments::coefficient_of_variation() const noexcept {
  if (!is_cached(kCov)) {
    const double m = mean();
    cached_cov_ = m == 0.0 ? 0.0 : stddev() / m;
    cached_ |= kCov;
  }
  return cached_cov_;
}

double StreamingMoments::standard_error() const noexcept {
  if (!is_cached(kStderr)) {
    cached_stderr_ =
        n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
    cached_ |= kStderr;
  }
  return cached_stderr_;
}

TestResult welch_t_test(const StreamingMoments& a, const StreamingMoments& b) {
  TestResult result{};
  if (a.count() < 2 || b.count() < 2) return result;
  const double na = static_cast<double>(a.count());
  const double nb = static_cast<double>(b.count());
  const double va = a.variance() / na;
  const double vb = b.variance() / nb;
  const double se2 = va + vb;
  if (se2 <= 0.0) {
    // Both samples constant: identical means -> p = 1, else certain reject.
    result.p_value = a.mean() == b.mean() ? 1.0 : 0.0;
    result.statistic = a.mean() == b.mean() ? 0.0 : HUGE_VAL;
    return result;
  }
  result.statistic = (a.mean() - b.mean()) / std::sqrt(se2);
  // Welch–Satterthwaite degrees of freedom.
  const double dof =
      se2 * se2 / (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
  const double t = std::fabs(result.statistic);
  result.p_value = 2.0 * (1.0 - student_t_cdf(t, dof));
  return result;
}

TestResult z_test(const StreamingMoments& a, const StreamingMoments& b) {
  TestResult result{};
  if (a.count() < 2 || b.count() < 2) return result;
  const double se2 = a.variance() / static_cast<double>(a.count()) +
                     b.variance() / static_cast<double>(b.count());
  if (se2 <= 0.0) {
    result.p_value = a.mean() == b.mean() ? 1.0 : 0.0;
    result.statistic = a.mean() == b.mean() ? 0.0 : HUGE_VAL;
    return result;
  }
  result.statistic = (a.mean() - b.mean()) / std::sqrt(se2);
  result.p_value = 2.0 * (1.0 - normal_cdf(std::fabs(result.statistic)));
  return result;
}

QuantileReservoir::QuantileReservoir(std::size_t capacity,
                                     std::uint64_t seed) noexcept
    : capacity_{capacity}, rng_state_{seed == 0 ? 0x9e3779b97f4a7c15ULL : seed} {}

std::uint64_t QuantileReservoir::next_u64() noexcept {
  // SplitMix64: deterministic, seedable, good enough for reservoir indices.
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void QuantileReservoir::add(double x) {
  ++n_;
  if (capacity_ == 0 || sorted_.size() < capacity_) {
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), x), x);
    return;
  }
  // Algorithm R: keep the new value with probability capacity / n,
  // replacing a uniformly chosen retained slot.
  const std::uint64_t slot = next_u64() % n_;
  if (slot < capacity_) {
    sorted_.erase(sorted_.begin() + static_cast<std::ptrdiff_t>(slot));
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), x), x);
  }
}

void QuantileReservoir::merge(const QuantileReservoir& other) {
  if (other.sorted_.empty()) {
    n_ += other.n_;
    return;
  }
  if (capacity_ == 0 || sorted_.size() + other.sorted_.size() <= capacity_) {
    std::vector<double> merged;
    merged.reserve(sorted_.size() + other.sorted_.size());
    std::merge(sorted_.begin(), sorted_.end(), other.sorted_.begin(),
               other.sorted_.end(), std::back_inserter(merged));
    sorted_ = std::move(merged);
    n_ += other.n_;
    return;
  }
  // Over capacity: feed the other side's retained values through the
  // replacement path, which deterministically downsamples the union.
  for (const double x : other.sorted_) add(x);
  n_ += other.n_ - other.sorted_.size();
}

double QuantileReservoir::quantile(double q) const {
  if (sorted_.empty()) {
    throw std::invalid_argument{"QuantileReservoir::quantile: empty"};
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument{"QuantileReservoir::quantile: q out of range"};
  }
  return quantile_sorted(sorted_, q);
}

ConfidenceInterval QuantileReservoir::ci(double q, double confidence) const {
  return quantile_ci_sorted(sorted_, q, confidence);
}

}  // namespace cloudrepro::stats
