// optimistic-batch: the paper's Fig. 4 setting. A dense 100-relation,
// 100-mapping graph with existentials over a repository seeded by 10,000
// chased inserts; batches of 1,000 concurrent updates (20% deletes) run
// through the serial optimistic Scheduler with a seeded RandomAgent, each
// replayed from the rewound repository under COARSE and then PRECISE.
// An update's latency runs from its batch's first Submit to its commit.
// NAIVE is left out: at 3,000-update batches it fails updates on their
// attempt cap, and this workload must run without failed operations.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "ccontrol/scheduler.h"
#include "obs/metrics.h"
#include "spans.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace youtopia;  // NOLINT: a benchmark file drives the whole API

constexpr size_t kRelations = 100;
constexpr size_t kConstants = 50;
constexpr size_t kMappings = 100;
constexpr size_t kSeedInserts = 10000;
constexpr size_t kBatchSize = 1000;
constexpr double kDeleteShare = 0.2;
constexpr size_t kBatchesPerRound = 6;
// The fig3/fig4 harness caps (ExperimentConfig defaults).
constexpr size_t kMaxStepsPerUpdate = 1u << 14;
constexpr size_t kMaxAttempts = 64;
constexpr std::array<TrackerKind, 2> kTrackers = {TrackerKind::kCoarse,
                                                  TrackerKind::kPrecise};
constexpr const char* kTrackerNames[2] = {"coarse", "precise"};

struct Repo {
  Database db;
  std::vector<Value> constants;
  std::vector<Tgd> tgds;
  std::vector<std::vector<WriteOp>> batches;
  std::vector<OMapping> maps;
  std::vector<PremiseQuery> queries;
};

// The same construction as the fig3/fig4 harness's repository
// (workload/experiment.cc).
std::unique_ptr<Repo> BuildRepo(uint64_t seed) {
  auto repo = std::make_unique<Repo>();
  Rng rng(kRepositorySeed);
  SchemaGenOptions schema;
  schema.num_relations = kRelations;
  CHECK(GenerateSchema(&repo->db, &rng, schema).ok());
  repo->constants = GenerateConstantPool(&repo->db, &rng, kConstants);
  MappingGenOptions mapping;
  mapping.count = kMappings;
  repo->tgds = GenerateMappings(repo->db, repo->constants, &rng, mapping);
  InitialDataOptions data;
  data.num_tuples = kSeedInserts;
  data.max_steps_per_insert = 1u << 17;
  RandomAgent seed_agent(kRepositorySeed ^ 0x9e3779b97f4a7c15ULL);
  GenerateInitialData(&repo->db, &repo->tgds, repo->constants, &rng,
                      &seed_agent, data);
  for (size_t b = 0; b < kBatchesPerRound; ++b) {
    Rng wl(kRepositorySeed * 1000003 + 7919 * (b + 1));
    WorkloadOptions w;
    w.num_updates = kBatchSize;
    w.delete_fraction = kDeleteShare;
    repo->batches.push_back(
        GenerateWorkload(&repo->db, repo->constants, &wl, w));
    ShuffleInsertRuns(&repo->batches.back(), seed * 1000003 + b);
  }
  for (const Tgd& tgd : repo->tgds) {
    repo->maps.push_back(TranslateMapping(tgd, repo->db.catalog(),
                                          repo->db.symbols(),
                                          &repo->db.symbols()));
  }
  repo->queries = PremiseQueries(repo->tgds, repo->db.catalog(),
                                 repo->db.symbols(), &repo->db.symbols());
  return repo;
}

// Stamps each commit of a running Scheduler with the time it happened.
// RunToCompletion tells its caller nothing until the whole batch is done,
// so a second thread polls the scheduler's registry, whose commit counter
// the scheduler bumps as each update commits. The stamps are late by at
// most one poll interval (about 0.1 ms, against runs of about 0.5 s).
class CommitClock {
 public:
  explicit CommitClock(const obs::MetricsRegistry* registry)
      : registry_(registry), thread_([this] { Poll(); }) {}
  ~CommitClock() { Stop(); }

  // Stops polling once the scheduler has returned; commits the last poll
  // missed are stamped now. Returns every commit's time, in commit order.
  const std::vector<Clock::time_point>& Stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
      Stamp(Clock::now());
    }
    return times_;
  }

 private:
  void Poll() {
    while (!stop_.load(std::memory_order_relaxed)) {
      Stamp(Clock::now());
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void Stamp(Clock::time_point now) {
    const uint64_t commits = registry_->CounterValue(obs::Counter::kCommits);
    while (times_.size() < commits) times_.push_back(now);
  }

  const obs::MetricsRegistry* registry_;
  std::atomic<bool> stop_{false};
  std::vector<Clock::time_point> times_;  // the poller's until it is joined
  std::thread thread_;
};

// Counters of one tracker summed over a round's batches.
struct TrackerCounts {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t aborts = 0;
  uint64_t cascading = 0;
  uint64_t steps = 0;
  uint64_t writes = 0;
  uint64_t frontier_ops = 0;
  uint64_t read_queries = 0;
  uint64_t rows_examined = 0;
  uint64_t doom_violation = 0;
  uint64_t doom_more_specific = 0;
  uint64_t doom_null_occurrence = 0;
  uint64_t doom_cascade = 0;

  void Add(const Scheduler& scheduler, const obs::MetricsRegistry& registry) {
    const SchedulerStats& st = scheduler.stats();
    submitted += st.updates_submitted;
    committed += st.updates_completed;
    aborts += st.aborts;
    cascading += st.cascading_abort_requests;
    steps += st.total_steps;
    writes += st.physical_writes;
    frontier_ops += st.frontier_ops;
    read_queries += st.read_queries;
    rows_examined += scheduler.TotalRowsExamined();
    const obs::MetricsSnapshot snap = registry.Snapshot();
    doom_violation += snap.counter(obs::Counter::kDoomReadViolation);
    doom_more_specific += snap.counter(obs::Counter::kDoomReadMoreSpecific);
    doom_null_occurrence += snap.counter(obs::Counter::kDoomReadNullOccurrence);
    doom_cascade += snap.counter(obs::Counter::kDoomCascade);
  }

  // The counters that must repeat exactly, by name.
  ExactCounters Exact(const std::string& tracker) const {
    return {{"committed." + tracker, committed},
            {"aborts." + tracker, aborts},
            {"cascading_requests." + tracker, cascading},
            {"steps." + tracker, steps},
            {"writes." + tracker, writes},
            {"frontier_ops." + tracker, frontier_ops},
            {"read_queries." + tracker, read_queries},
            {"rows_examined." + tracker, rows_examined}};
  }
};

}  // namespace

Outcome RunOptimisticBatch(const Options& options) {
  Outcome out;
  ZeroFillPerLayer(&out);
  std::vector<double> setup_s;
  std::unique_ptr<Repo> repo;
  auto build = [&] {
    repo.reset();
    const auto t0 = Clock::now();
    repo = BuildRepo(options.seed);
    setup_s.push_back(Seconds(t0, Clock::now()));
  };
  for (int i = 0; i < kSetups; ++i) build();

  AgentTimes agent_times;
  struct RunTimes {
    double total_s;                 // first Submit to RunToCompletion's return
    double run_s;                   // RunToCompletion's start to its return
    std::vector<double> commit_us;  // first Submit to each commit
  };
  // Runs batch b under tracker t on the rewound repository and accounts
  // its updates; `done` sees the finished scheduler, its registry and the
  // run's times before the next run rewinds the repository.
  auto run_batch = [&](size_t b, size_t t,
                       const std::function<void(const Scheduler&,
                                                const obs::MetricsRegistry&,
                                                const RunTimes&)>& done) {
    const std::vector<WriteOp>& ops = repo->batches[b];
    repo->db.RemoveVersionsAbove(0);
    // One simulated user per batch, identical under both trackers and on
    // every seed: a user drawn from the seed as well made the slowest run,
    // which sets update_p99_us, differ from seed to seed by up to half.
    TimingAgent agent(std::make_unique<RandomAgent>(kRepositorySeed * 31 + b),
                      &agent_times);
    obs::MetricsRegistry registry;
    SchedulerOptions so;
    so.tracker = kTrackers[t];
    so.max_steps_per_update = kMaxStepsPerUpdate;
    so.max_attempts_per_update = kMaxAttempts;
    so.metrics = &registry;
    Scheduler scheduler(&repo->db, &repo->tgds, &agent, so);
    CommitClock commit_clock(&registry);
    out.threads_max = std::max(out.threads_max, ThreadCount());
    const auto submitted_at = Clock::now();
    for (size_t k = 0; k < ops.size(); ++k) {
      ScopedSpan span("Scheduler.Submit", "ccontrol", k);
      scheduler.Submit(ops[k]);
    }
    const auto t0 = Clock::now();
    {
      ScopedSpan span("Scheduler.RunToCompletion", "ccontrol");
      scheduler.RunToCompletion();
    }
    const auto t1 = Clock::now();
    RunTimes times{Seconds(submitted_at, t1), Seconds(t0, t1), {}};
    for (const Clock::time_point& c : commit_clock.Stop()) {
      times.commit_us.push_back(Micros(submitted_at, c));
    }
    const SchedulerStats& st = scheduler.stats();
    out.attempted += ops.size();
    out.failed += st.updates_failed;
    if (st.updates_submitted != ops.size() ||
        st.updates_completed + st.updates_failed != ops.size()) {
      out.Fail("optimistic-batch: submitted " + std::to_string(ops.size()) +
               " updates, scheduler accounts " +
               std::to_string(st.updates_completed) + " committed + " +
               std::to_string(st.updates_failed) + " failed");
    }
    done(scheduler, registry, times);
  };

  // Per (batch, tracker) run and per commit in it: the commit's latency in
  // each round.
  std::vector<std::vector<std::vector<double>>> commit_us(
      kBatchesPerRound * kTrackers.size());
  std::vector<double> query_us;
  std::vector<double> commit_rates;  // per round
  std::array<TrackerCounts, 2> first{};  // round 0, exact
  // Timings of traced rounds (per-layer).
  std::array<std::vector<double>, 2> traced_run_s;
  uint64_t traced_steps = 0;
  double traced_run_ns = 0;

  // Replays round 0 on a fresh repository with the output checks after
  // every run. The checks come after round 0, so that its peak RSS is the
  // program's alone; the replay must repeat round 0's exact counters.
  auto check_round = [&] {
    build();
    std::array<TrackerCounts, 2> checked{};
    for (size_t b = 0; b < repo->batches.size(); ++b) {
      for (size_t t = 0; t < kTrackers.size(); ++t) {
        run_batch(b, t, [&](const Scheduler& scheduler,
                            const obs::MetricsRegistry& registry,
                            const RunTimes&) {
          checked[t].Add(scheduler, registry);
          const std::string where = std::string("optimistic-batch batch ") +
                                    std::to_string(b) + " " + kTrackerNames[t];
          if (scheduler.stats().updates_failed == 0 &&
              !SameOpMultiset(scheduler.CommittedOpsInOrder(),
                              repo->batches[b])) {
            out.Fail(where + ": committed ops are not the submitted batch");
          }
          const uint64_t digest =
              CheckState(&repo->db, repo->maps, repo->queries, &out, where);
          out.exact.emplace_back("answers_digest." + std::to_string(b) + "." +
                                     kTrackerNames[t],
                                 digest);
          if (b == 0 && t == 0) ReportStorageShape(repo->db, &out);
        });
      }
    }
    for (size_t t = 0; t < kTrackers.size(); ++t) {
      if (checked[t].Exact(kTrackerNames[t]) != first[t].Exact(kTrackerNames[t])) {
        out.Fail(std::string("optimistic-batch: the checked replay of round 0 "
                             "under ") + kTrackerNames[t] +
                 " did other work than round 0");
      }
    }
  };

  auto round = [&](size_t r) -> double {
    double round_s = 0;
    double run_seconds = 0;
    uint64_t committed = 0;
    const bool traced = SpanRecorder::Global().enabled();
    for (size_t b = 0; b < repo->batches.size(); ++b) {
      for (size_t t = 0; t < kTrackers.size(); ++t) {
        run_batch(b, t, [&](const Scheduler& scheduler,
                            const obs::MetricsRegistry& registry,
                            const RunTimes& times) {
          const SchedulerStats& st = scheduler.stats();
          committed += st.updates_completed;
          run_seconds += times.run_s;
          round_s += times.total_s;
          std::vector<std::vector<double>>& run = commit_us[b * kTrackers.size() + t];
          run.resize(times.commit_us.size());
          for (size_t k = 0; k < run.size(); ++k) run[k].push_back(times.commit_us[k]);
          if (traced) {
            traced_run_s[t].push_back(times.run_s);
            traced_steps += st.total_steps;
            traced_run_ns += times.run_s * 1e9;
          }
          if (r == 0) first[t].Add(scheduler, registry);
        });
        for (const PremiseQuery& q : repo->queries) {
          const auto q0 = Clock::now();
          {
            ScopedSpan span("QueryEngine.Evaluate", "query");
            ProgramAnswers(&repo->db, q);
          }
          query_us.push_back(Micros(q0, Clock::now()));
          ++out.attempted;
        }
      }
    }
    commit_rates.push_back(committed / run_seconds);
    if (r == 0) {
      out.peak_rss_mb = PeakRssMb();
      check_round();
    }
    return round_s;
  };
  DriveRounds(options, build, round,
              [&] { return TailResolved(kBatchesPerRound * kBatchSize, 0.99) &&
                           TailResolved(query_us.size(), 0.99); },
              &out);

  for (size_t t = 0; t < kTrackers.size(); ++t) {
    const TrackerCounts& c = first[t];
    const std::string name = kTrackerNames[t];
    for (const auto& counter : c.Exact(name)) out.exact.push_back(counter);
    const double executions = static_cast<double>(c.submitted + c.aborts);
    out.per_layer.Set("ccontrol.aborts." + name, c.aborts, "count");
    out.per_layer.Set("ccontrol.cascading_requests." + name, c.cascading,
                      "count");
    out.per_layer.Set("ccontrol.useful_ratio." + name,
                      executions > 0 ? c.committed / executions : 0, "ratio");
    out.per_layer.Set("ccontrol.run_s." + name, Mean(traced_run_s[t]), "s");
    out.per_layer.Set("ccontrol.read_queries_per_execution." + name,
                      executions > 0 ? c.read_queries / executions : 0,
                      "count");
    out.per_layer.Set("ccontrol.doom.violation." + name, c.doom_violation,
                      "count");
    out.per_layer.Set("ccontrol.doom.more_specific." + name,
                      c.doom_more_specific, "count");
    out.per_layer.Set("ccontrol.doom.null_occurrence." + name,
                      c.doom_null_occurrence, "count");
    out.per_layer.Set("ccontrol.doom.cascade." + name, c.doom_cascade,
                      "count");
  }
  TrackerCounts all{};
  for (const TrackerCounts& c : first) {
    all.submitted += c.submitted;
    all.aborts += c.aborts;
    all.steps += c.steps;
    all.writes += c.writes;
    all.frontier_ops += c.frontier_ops;
    all.rows_examined += c.rows_examined;
    all.committed += c.committed;
  }
  const double submitted = static_cast<double>(all.submitted);
  out.per_layer.Set("query.rows_per_execution",
                    all.rows_examined / (submitted + all.aborts), "rows");
  out.per_layer.Set("core.steps_per_update", all.steps / submitted, "steps");
  out.per_layer.Set("core.writes_per_update", all.writes / submitted,
                    "writes");
  out.per_layer.Set("core.frontier_ops_per_update",
                    all.frontier_ops / static_cast<double>(all.committed),
                    "ops");
  if (traced_steps > 0) {
    out.per_layer.Set("core.step_us", traced_run_ns / 1e3 / traced_steps,
                      "us");
  }
  if (agent_times.decisions > 0) {
    out.per_layer.Set("core.agent_us",
                      agent_times.ns / 1e3 / agent_times.decisions, "us");
  }
  ReportLayerProbes(&repo->db, repo->queries, options.seed, &out);
  if (options.trace) FinishTrace(options, &out);

  out.end_to_end.Set("setup_s", Median(setup_s), "s");
  out.end_to_end.Set("commit_per_s", Median(commit_rates), "updates/s");
  // Every round replays the same runs on a fresh repository, so the k-th
  // commit of a run has the same place in every round; its latency is its
  // median over the rounds, and one slow repetition does not move it.
  std::vector<double> update_us;
  for (const std::vector<std::vector<double>>& run : commit_us) {
    for (const std::vector<double>& rounds : run) update_us.push_back(Median(rounds));
  }
  out.end_to_end.Set("update_p50_us", Percentile(update_us, 0.50), "us");
  out.end_to_end.Set("update_p99_us", Percentile(update_us, 0.99), "us");
  out.end_to_end.Set("query_p50_us", Percentile(query_us, 0.50), "us");
  out.end_to_end.Set("query_p99_us", Percentile(query_us, 0.99), "us");
  out.end_to_end.Set("peak_rss_mb", out.peak_rss_mb, "MB");
  out.workers = 1;
  return out;
}

}  // namespace perfbench
