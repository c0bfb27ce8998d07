#include "apps/runner.hpp"

#include <algorithm>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "simmpi/sharded_world.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace repmpi::apps {

const char* to_string(RunMode mode) {
  switch (mode) {
    case RunMode::kNative:
      return "native";
    case RunMode::kReplicated:
      return "replicated";
    case RunMode::kIntra:
      return "intra";
    case RunMode::kReplicatedVerify:
      return "replicated+sdc";
  }
  return "?";
}

const char* paper_label(RunMode mode) {
  switch (mode) {
    case RunMode::kNative:
      return "Open MPI";
    case RunMode::kReplicated:
      return "SDR-MPI";
    case RunMode::kIntra:
      return "intra";
    case RunMode::kReplicatedVerify:
      return "SDR-MPI+SDC";
  }
  return "?";
}

namespace {

/// Per-rank output buffers filled by the rank mains. Each rank writes only
/// its own slot; in sharded runs that happens on its shard's worker thread,
/// and the main thread reads only after the engine joins.
struct RankOutputs {
  std::vector<double> finish;
  std::vector<intra::IntraStats> istats;

  explicit RankOutputs(int n)
      : finish(static_cast<std::size_t>(n), -1.0),
        istats(static_cast<std::size_t>(n)) {}
};

/// The per-rank main shared by the single-threaded and sharded drivers.
/// Everything captured by reference outlives the run (locals of run_app).
std::function<void(mpi::Proc&)> make_rank_main(const RunConfig& cfg,
                                               const rep::ReplicaLayout& layout,
                                               support::ComputeCache* cache,
                                               const AppMain& app,
                                               RankOutputs& out) {
  return [&cfg, layout, cache, &app, &out](mpi::Proc& proc) {
    rep::LogicalComm comm(proc, layout);
    support::ComputeClient share =
        cache ? support::ComputeClient(cache, comm.rank())
              : support::ComputeClient();
    intra::Runtime::Config rt_cfg;
    rt_cfg.mode = cfg.runtime_mode();
    rt_cfg.policy = cfg.policy;
    rt_cfg.overlap = cfg.overlap;
    rt_cfg.verify_consistency = cfg.verify_consistency;
    rt_cfg.faults = cfg.faults;
    rt_cfg.share = &share;
    intra::Runtime runtime(comm, rt_cfg);

    AppContext ctx{proc, comm, runtime, cfg, share,
                   support::Rng(cfg.seed).fork(
                       static_cast<std::uint64_t>(comm.rank()))};
    const auto wr = static_cast<std::size_t>(proc.world_rank());
    try {
      app(ctx);
    } catch (const rep::LogicalProcessLost& e) {
      // Every replica of some logical rank is dead: the job cannot be
      // masked any further. Report it (the world schedules an abort that
      // kills the remaining ranks) and settle this rank without a finish
      // time — the run terminates as a *reported* job failure instead of a
      // deadlock or a stuck-shard diagnosis.
      proc.world().declare_job_failed(e.logical(), proc.world_rank(),
                                      proc.now());
      out.istats[wr] = runtime.stats();
      return;
    }
    out.finish[wr] = proc.now();
    out.istats[wr] = runtime.stats();
  };
}

/// Validates the fault plan against the world size and plants its timed
/// crashes as uncounted control events on each victim's owning simulator.
/// Firing is a pure function of virtual time, so it is bit-identical across
/// --jobs/--shards/--backend; a victim that already finished or crashed by
/// its crash instant is left alone.
void arm_faults(const RunConfig& cfg, mpi::World& world) {
  if (cfg.faults == nullptr) return;
  cfg.faults->validate(world.num_ranks());
  for (const fault::TimedCrash& tc : cfg.faults->timed_crashes()) {
    sim::Simulator& s = world.sim_of(tc.world_rank);
    s.schedule_internal_at(tc.at, [&world, faults = cfg.faults,
                                   r = tc.world_rank] {
      if (world.crash_pending(r)) return;
      if (world.sim_of(r).finished(world.pid_of(r))) return;
      world.crash(r);
      faults->note_timed_fired();
    });
  }
}

/// Folds the per-rank outputs into the result (everything except the
/// substrate/network counters, which each driver reads from its machine).
void collect_rank_results(const rep::ReplicaLayout& layout,
                          const mpi::World& world, const RankOutputs& out,
                          RunResult& res) {
  for (double f : out.finish) {
    if (f < 0) {
      ++res.ranks_crashed;
      continue;
    }
    ++res.ranks_finished;
    res.wallclock = std::max(res.wallclock, f);
  }
  for (const auto& st : out.istats) {
    res.intra_total.section_time += st.section_time;
    res.intra_total.update_tail_time += st.update_tail_time;
    res.intra_total.inout_copy_time += st.inout_copy_time;
    res.intra_total.sections += st.sections;
    res.intra_total.tasks_executed += st.tasks_executed;
    res.intra_total.tasks_received += st.tasks_received;
    res.intra_total.tasks_reexecuted += st.tasks_reexecuted;
    res.intra_total.update_bytes_sent += st.update_bytes_sent;
    res.intra_total.sdc_injected += st.sdc_injected;
    res.intra_total.sdc_detected += st.sdc_detected;
  }
  int phase_ranks = 0;
  for (int r = 0; r < layout.num_physical(); ++r) {
    const auto& phases = world.phase_times()[static_cast<std::size_t>(r)];
    if (out.finish[static_cast<std::size_t>(r)] < 0) continue;  // crashed
    ++phase_ranks;
    for (const auto& [name, t] : phases) {
      res.phase_max[name] = std::max(res.phase_max[name], t);
      res.phase_avg[name] += t;
    }
  }
  if (phase_ranks > 0) {
    for (auto& [name, t] : res.phase_avg) t /= phase_ranks;
  }
  const rep::LogicalComm::LogStats log = rep::LogicalComm::log_stats(world);
  res.send_log_high_water = log.high_water;
  res.send_log_live = log.live;
  res.replayed_sends = log.replayed;
  res.recv_streams = log.streams;
}

RunResult run_app_sharded(const RunConfig& cfg, const AppMain& app,
                          const rep::ReplicaLayout& layout) {
  bool fell_back = false;
  mpi::ShardedMachine machine(
      cfg.shards, cfg.model,
      layout.make_topology_domains(cfg.cores_per_node, cfg.nodes_per_domain,
                                   cfg.num_domains,
                                   cfg.domain_aware_placement, &fell_back),
      layout.num_physical());
  if (fell_back) {
    REPMPI_WARN("domain-aware replica placement needs more than "
                << cfg.num_domains
                << " domains; falling back to same-domain placement");
  }
  RankOutputs out(layout.num_physical());
  machine.world().launch(
      make_rank_main(cfg, layout, /*cache=*/nullptr, app, out));
  arm_faults(cfg, machine.world());
  machine.run();

  RunResult res;
  res.placement_fallback = fell_back;
  res.job_failed = machine.world().job_failed();
  res.job_failed_time = machine.world().job_failed_time();
  res.job_failed_logical = machine.world().job_failed_logical();
  collect_rank_results(layout, machine.world(), out, res);
  res.net_messages = machine.net_stats().messages;
  res.net_bytes = machine.net_stats().bytes;
  res.events = machine.counters().events;
  res.shards = cfg.shards;
  res.shard_windows = machine.stats().windows;
  res.shard_cross_messages = machine.stats().internode_sends;
  return res;
}

}  // namespace

RunResult run_app(const RunConfig& cfg, const AppMain& app) {
#if defined(__GLIBC__)
  // Halo planes and update payloads are hundreds of KiB; keep them on the
  // heap instead of per-allocation mmap/munmap round trips (page-fault
  // churn dominated bench wall time otherwise).
  static const bool malloc_tuned = [] {
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)malloc_tuned;
#endif
  const rep::ReplicaLayout layout{cfg.num_logical, cfg.effective_degree()};
  REPMPI_CHECK_MSG(cfg.shards >= 0, "negative shard count " << cfg.shards);
  if (cfg.shards > 0) return run_app_sharded(cfg, app, layout);

  sim::Simulator sim;
  bool fell_back = false;
  net::Network network(
      sim, cfg.model,
      layout.make_topology_domains(cfg.cores_per_node, cfg.nodes_per_domain,
                                   cfg.num_domains,
                                   cfg.domain_aware_placement, &fell_back));
  if (fell_back) {
    REPMPI_WARN("domain-aware replica placement needs more than "
                << cfg.num_domains
                << " domains; falling back to same-domain placement");
  }
  mpi::World world(sim, network, layout.num_physical());

  // Replica-compute sharing (host-side only): replicas of a logical rank
  // execute bit-identical kernel regions, so compute each once and share the
  // output bytes. Never in kReplicatedVerify — that mode exists to duplicate
  // execution for SDC detection — and never under a fault plan: crash and
  // SDC rules count real executions, and a corrupted replica diverges. The
  // cache is owned by this run and touched only by this simulator's fibers
  // (thread-confinement contract — which is also why sharded runs leave it
  // off).
  std::unique_ptr<support::ComputeCache> cache;
  if (cfg.effective_degree() > 1 && cfg.mode != RunMode::kReplicatedVerify &&
      (cfg.faults == nullptr || cfg.faults->empty()) &&
      !support::ComputeCache::disabled_by_env()) {
    cache = std::make_unique<support::ComputeCache>(cfg.effective_degree());
  }

  RankOutputs out(layout.num_physical());
  world.launch(make_rank_main(cfg, layout, cache.get(), app, out));
  arm_faults(cfg, world);
  sim.run();

  RunResult res;
  res.placement_fallback = fell_back;
  res.job_failed = world.job_failed();
  res.job_failed_time = world.job_failed_time();
  res.job_failed_logical = world.job_failed_logical();
  collect_rank_results(layout, world, out, res);
  res.net_messages = network.stats().messages;
  res.net_bytes = network.stats().bytes;
  res.events = sim.events_executed();
  if (cache) res.compute_cache = cache->stats();
  return res;
}

}  // namespace repmpi::apps
