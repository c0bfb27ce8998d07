#include "fault/generators.hpp"

#include <cmath>

#include "support/error.hpp"

namespace repmpi::fault {

namespace {

/// Exponential inter-arrival draw. 1 - next_double() is in (0, 1], so the
/// log argument never hits zero.
double exp_draw(support::Rng& rng, double rate) {
  return -std::log(1.0 - rng.next_double()) / rate;
}

}  // namespace

int generate_bursty_sdc(FaultPlan& plan, int num_ranks, double base_rate,
                        double burst_factor, double burst_start,
                        double burst_end, double horizon, support::Rng& rng) {
  REPMPI_CHECK(num_ranks > 0 && horizon > 0.0);
  REPMPI_CHECK_MSG(base_rate >= 0.0 && burst_factor >= 1.0,
                   "base_rate >= 0 and burst_factor >= 1 required");
  REPMPI_CHECK_MSG(burst_start <= burst_end, "empty-or-forward burst window");
  if (base_rate == 0.0) return 0;
  const double rate_max = base_rate * burst_factor;
  int planted = 0;
  for (int r = 0; r < num_ranks; ++r) {
    support::Rng stream = rng.fork(0x20000u + static_cast<std::uint64_t>(r));
    // Thinning: candidate arrivals at the peak rate; accept each with
    // probability rate(t)/rate_max. The accepted points are exactly an NHPP
    // with intensity rate(t).
    double t = 0.0;
    while (true) {
      t += exp_draw(stream, rate_max);
      if (t >= horizon) break;
      const bool in_burst = t >= burst_start && t < burst_end;
      const double rate = in_burst ? rate_max : base_rate;
      if (stream.next_double() * rate_max <= rate) {
        CorruptionRule rule;
        rule.world_rank = r;
        rule.at = t;
        plan.add_corruption(rule);
        ++planted;
      }
    }
  }
  return planted;
}

}  // namespace repmpi::fault
