#include "model/efficiency.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/error.hpp"

namespace repmpi::model {

namespace {
constexpr double kYearSeconds = 365.25 * 24 * 3600;
}

double system_mtbf_s(double node_mtbf_years, int nodes) {
  REPMPI_CHECK(nodes > 0 && node_mtbf_years > 0);
  return node_mtbf_years * kYearSeconds / static_cast<double>(nodes);
}

double daly_optimal_interval_s(double delta_s, double mtbf_s) {
  REPMPI_CHECK(delta_s > 0 && mtbf_s > 0);
  const double tau = std::sqrt(2.0 * delta_s * mtbf_s) - delta_s;
  return std::max(tau, delta_s);
}

double ccr_efficiency(const CheckpointModel& m, int nodes) {
  const double mtbf = system_mtbf_s(m.node_mtbf_years, nodes);
  const double delta = m.checkpoint_write_s;
  const double tau = daly_optimal_interval_s(delta, mtbf);
  // Per segment of useful length tau: write cost delta. A failure hits a
  // random point of the (tau + delta) segment, losing on average half of
  // it, plus the restart. Expected failures per segment: (tau+delta)/MTBF.
  const double segment = tau + delta;
  const double failures_per_segment = segment / mtbf;
  const double lost_per_segment =
      failures_per_segment * (segment / 2.0 + m.restart_s);
  const double eff = tau / (segment + lost_per_segment);
  return std::clamp(eff, 0.0, 1.0);
}

double expected_failures_to_interruption(int num_pairs) {
  REPMPI_CHECK(num_pairs > 0);
  // Birthday-problem asymptotics [16]: E[k] ~ sqrt(pi * n / 2) + 2/3.
  return std::sqrt(M_PI * static_cast<double>(num_pairs) / 2.0) + 2.0 / 3.0;
}

double simulate_failures_to_interruption(int num_pairs, int trials,
                                         support::Rng rng) {
  REPMPI_CHECK(num_pairs > 0 && trials > 0);
  double total = 0;
  std::vector<std::uint8_t> hit(static_cast<std::size_t>(num_pairs));
  for (int t = 0; t < trials; ++t) {
    std::fill(hit.begin(), hit.end(), 0);
    int failures = 0;
    for (;;) {
      ++failures;
      const auto pair = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(num_pairs)));
      if (hit[pair]) break;  // second replica of this pair died
      hit[pair] = 1;
    }
    total += failures;
  }
  return total / static_cast<double>(trials);
}

double replicated_job_mtti_s(double node_mtbf_years, int num_pairs) {
  // Failures arrive over all 2n processes; the job dies after ~E[k] of them.
  const double rate_all =
      static_cast<double>(2 * num_pairs) / (node_mtbf_years * kYearSeconds);
  return expected_failures_to_interruption(num_pairs) / rate_all;
}

namespace {
/// Availability factor of a replicated job: with interruptions at MTTI
/// scale and checkpoints taken at Daly's interval against *that* MTTI, the
/// residual overhead is tiny — which is the paper's point that replication
/// needs almost no checkpointing.
double replication_availability(const CheckpointModel& m, int num_pairs) {
  const double mtti = replicated_job_mtti_s(m.node_mtbf_years, num_pairs);
  const double delta = m.checkpoint_write_s;
  const double tau = daly_optimal_interval_s(delta, mtti);
  const double segment = tau + delta;
  const double failures_per_segment = segment / mtti;
  const double lost = failures_per_segment * (segment / 2.0 + m.restart_s);
  return std::clamp(tau / (segment + lost), 0.0, 1.0);
}
}  // namespace

double replication_efficiency(const CheckpointModel& m, int nodes,
                              int degree) {
  REPMPI_CHECK(degree >= 2);
  const int pairs = nodes / degree;
  REPMPI_CHECK(pairs > 0);
  return replication_availability(m, pairs) / static_cast<double>(degree);
}

double partial_replication_mtti_s(double node_mtbf_years, int num_logical,
                                  double replicated_fraction) {
  REPMPI_CHECK(replicated_fraction >= 0 && replicated_fraction <= 1);
  REPMPI_CHECK(num_logical > 0);
  const double n = static_cast<double>(num_logical);
  const double n_rep = n * replicated_fraction;    // replicated logicals
  const double n_unrep = n - n_rep;                // unreplicated logicals
  const double procs = n_unrep + 2.0 * n_rep;      // physical processes
  const double rate =
      procs / (node_mtbf_years * kYearSeconds);    // failures/s over the job

  if (n_unrep < 0.5) {
    // Fully replicated: the [16] birthday bound applies.
    return replicated_job_mtti_s(node_mtbf_years,
                                 static_cast<int>(n_rep + 0.5));
  }
  // A failure interrupts the job if it hits an unreplicated process
  // (probability n_unrep / procs per failure). Replicated pairs absorb
  // failures but the unreplicated pool dominates: expected failures to
  // interruption ~ procs / n_unrep (geometric), capped by the birthday
  // bound of the replicated part.
  const double expected_failures =
      std::min(procs / n_unrep,
               expected_failures_to_interruption(
                   std::max(1, static_cast<int>(n_rep + 0.5))));
  return expected_failures / rate;
}

double partial_replication_efficiency(const CheckpointModel& m, int nodes,
                                      double replicated_fraction) {
  // Fix the machine at `nodes` physical processes; a fraction of them is
  // spent on replicas, shrinking the logical job.
  const double n_logical =
      static_cast<double>(nodes) / (1.0 + replicated_fraction);
  const double mtti = partial_replication_mtti_s(
      m.node_mtbf_years, std::max(1, static_cast<int>(n_logical)),
      replicated_fraction);
  const double delta = m.checkpoint_write_s;
  const double tau = daly_optimal_interval_s(delta, mtti);
  const double segment = tau + delta;
  const double failures_per_segment = segment / mtti;
  const double lost = failures_per_segment * (segment / 2.0 + m.restart_s);
  const double availability = std::clamp(tau / (segment + lost), 0.0, 1.0);
  // Useful fraction of the machine: logical processes over physical.
  return availability * n_logical / static_cast<double>(nodes);
}

double intra_replication_efficiency(const CheckpointModel& m, int nodes,
                                    int degree, double section_fraction,
                                    double section_speedup) {
  REPMPI_CHECK(section_fraction >= 0 && section_fraction <= 1);
  REPMPI_CHECK(section_speedup >= 1.0 &&
               section_speedup <= static_cast<double>(degree) + 1e-9);
  const double base = replication_efficiency(m, nodes, degree);
  const double time_scale =
      (1.0 - section_fraction) + section_fraction / section_speedup;
  return base / time_scale;
}

double nhpp_expected_events(double base_rate, double burst_factor,
                            double burst_start, double burst_end,
                            double horizon) {
  REPMPI_CHECK(base_rate >= 0 && burst_factor >= 1.0 && horizon >= 0);
  REPMPI_CHECK(burst_start <= burst_end);
  // Integral of the piecewise-constant intensity over [0, horizon): the
  // burst window contributes (factor - 1) extra on top of the base rate.
  const double burst_lo = std::clamp(burst_start, 0.0, horizon);
  const double burst_hi = std::clamp(burst_end, 0.0, horizon);
  return base_rate * horizon +
         base_rate * (burst_factor - 1.0) * (burst_hi - burst_lo);
}

double sdc_reexec_efficiency(double expected_events, double reexec_fraction) {
  REPMPI_CHECK(expected_events >= 0 && reexec_fraction >= 0);
  return 1.0 / (1.0 + expected_events * reexec_fraction);
}

}  // namespace repmpi::model
