#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t Rank(std::size_t n, double q) {
  // 1-based nearest rank, computed with a small epsilon so that q*n
  // values that are integers in exact arithmetic (0.9 * 100) are not
  // pushed up a rank by binary rounding.
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75};

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("NearestRank: no samples");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("NearestRank: q outside (0, 1]");
  return sorted[Rank(sorted.size(), q) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - Rank(n, q);
}

std::string Summary::TailLabel() const {
  if (tail_q <= 0.0) return "";
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", tail_q * 100.0);
  return buf;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 0.5);
  s.min = samples.front();
  s.max = samples.back();
  for (const double q : kTailLadder) {
    if (SamplesBeyond(s.n, q) >= kMinBeyond) {
      s.tail_q = q;
      s.tail = NearestRank(samples, q);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
