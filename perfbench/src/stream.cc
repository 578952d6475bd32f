// sharded-stream: the islands graph (40 relations, 8 islands, 56 mappings
// without existentials) over a repository grown to tens of thousands of
// tuples. One producer feeds a standing IngestPipeline (continuous
// admission, sub_workers = 1, two shard workers with a MinContentAgent
// each) closed-loop with inserts and deletes: every Submit blocks while the
// target inbox is full. Each round replays the seeded stream on a freshly
// built repository and pipeline, and ends at Flush.
//
// Pinned ops run without concurrency control, so the cost falls on the
// parallel layer (routing, inboxes, backpressure) and on relational probes
// that grow with the data; ccontrol counters must stay zero.

#include <algorithm>
#include <deque>
#include <memory>
#include <thread>

#include "ccontrol/parallel/ingest_pipeline.h"
#include "core/update.h"
#include "obs/metrics.h"
#include "spans.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace youtopia;  // NOLINT: a benchmark file drives the whole API

constexpr size_t kRelations = 40;
constexpr size_t kConstants = 50;
constexpr size_t kMappings = 56;
constexpr size_t kIslands = 8;
constexpr size_t kSeedInserts = 4000;
constexpr size_t kOpsPerRound = 3000;
constexpr double kDeleteShare = 0.2;
constexpr size_t kInboxCapacity = 256;

struct Repo {
  Database db;
  std::vector<Value> constants;
  std::vector<Tgd> tgds;
  std::vector<WriteOp> ops;
  std::vector<OMapping> maps;
  std::vector<PremiseQuery> queries;
  obs::MetricsRegistry registry;  // outlives the pipeline
  std::unique_ptr<IngestPipeline> pipeline;
};

// Shard workers: two, so that they, the admission thread and the producer
// fit four hardware threads; one on smaller machines.
size_t Workers() {
  return std::thread::hardware_concurrency() >= 4 ? 2 : 1;
}

// Builds the repository and its standing pipeline; the pipeline's agents
// add their decision times to fresh entries of `agent_times`.
std::unique_ptr<Repo> BuildRepo(uint64_t seed,
                                std::deque<AgentTimes>* agent_times) {
  auto repo = std::make_unique<Repo>();
  Rng rng(kRepositorySeed);
  SchemaGenOptions schema;
  schema.num_relations = kRelations;
  CHECK(GenerateSchema(&repo->db, &rng, schema).ok());
  repo->constants = GenerateConstantPool(&repo->db, &rng, kConstants);
  MappingGenOptions mapping;
  mapping.count = kMappings;
  mapping.num_islands = kIslands;
  // No existentials: chases introduce no labeled nulls, so the serial
  // replay must reproduce the streamed state byte for byte (see
  // bench/streaming_ingest.cc for why both knobs are needed).
  mapping.p_frontier = 1.0;
  mapping.p_within_atom_repeat = 1.0;
  repo->tgds = GenerateMappings(repo->db, repo->constants, &rng, mapping);
  InitialDataOptions data;
  data.num_tuples = kSeedInserts;
  data.max_steps_per_insert = 1u << 17;
  MinContentAgent seed_agent;
  GenerateInitialData(&repo->db, &repo->tgds, repo->constants, &rng,
                      &seed_agent, data);
  Rng wl(kRepositorySeed * 1000003 + 104729);
  WorkloadOptions w;
  w.num_updates = kOpsPerRound;
  w.delete_fraction = kDeleteShare;
  repo->ops = GenerateWorkload(&repo->db, repo->constants, &wl, w);
  ShuffleInsertRuns(&repo->ops, seed * 1000003 + 11);
  for (const Tgd& tgd : repo->tgds) {
    repo->maps.push_back(TranslateMapping(tgd, repo->db.catalog(),
                                          repo->db.symbols(),
                                          &repo->db.symbols()));
  }
  repo->queries = PremiseQueries(repo->tgds, repo->db.catalog(),
                                 repo->db.symbols(), &repo->db.symbols());

  IngestOptions popts;
  popts.num_workers = Workers();
  popts.sub_workers = 1;
  popts.tracker = TrackerKind::kCoarse;
  popts.cross_admission = CrossAdmission::kContinuous;
  popts.inbox_capacity = kInboxCapacity;
  popts.metrics = &repo->registry;
  popts.agent_factory = [agent_times](size_t) -> std::unique_ptr<FrontierAgent> {
    agent_times->emplace_back();
    return std::make_unique<TimingAgent>(std::make_unique<MinContentAgent>(),
                                         &agent_times->back());
  };
  repo->pipeline = std::make_unique<IngestPipeline>(&repo->db, &repo->tgds, popts);
  return repo;
}

}  // namespace

Outcome RunShardedStream(const Options& options) {
  Outcome out;
  ZeroFillPerLayer(&out);
  std::vector<double> setup_s;
  std::deque<AgentTimes> agent_times;  // one per pipeline agent
  std::unique_ptr<Repo> repo;
  auto build = [&] {
    // The old pipeline's threads end before the new one's start.
    if (repo != nullptr) repo->pipeline->Stop();
    repo.reset();
    const auto t0 = Clock::now();
    repo = BuildRepo(options.seed, &agent_times);
    setup_s.push_back(Seconds(t0, Clock::now()));
  };
  for (int i = 0; i < kSetups; ++i) build();
  const size_t num_ops = repo->ops.size();  // the same in every build
  const unsigned hardware = std::thread::hardware_concurrency();
  out.workers = Workers();

  std::vector<std::vector<double>> op_us(num_ops);  // per op, per round
  std::vector<double> query_us;
  std::vector<double> commit_rates;  // per round
  // Per-layer timings, from traced rounds.
  std::vector<double> submit_us;
  std::vector<double> flush_ms;
  std::vector<double> stall_s;
  std::vector<double> skew;
  std::vector<double> busy;
  obs::HistogramSnapshot inbox_wait;
  obs::HistogramSnapshot chase;
  obs::HistogramSnapshot commit;
  uint64_t traced_steps = 0;

  auto round = [&](size_t r) -> double {
    const bool traced = SpanRecorder::Global().enabled();
    Database& db = repo->db;
    IngestPipeline& pipeline = *repo->pipeline;
    const std::vector<WriteOp>& ops = repo->ops;
    const ParallelStats last = pipeline.Flush();  // the round's baseline
    std::vector<uint64_t> submitted_ns(ops.size());
    const auto t0 = Clock::now();
    for (size_t k = 0; k < ops.size(); ++k) {
      submitted_ns[k] = obs::MonotonicNs();
      SubmitResult res;
      {
        ScopedSpan span("IngestPipeline.Submit", "parallel", k);
        res = pipeline.Submit(ops[k]);
      }
      if (traced) {
        submit_us.push_back((obs::MonotonicNs() - submitted_ns[k]) / 1e3);
      }
      ++out.attempted;
      if (res != SubmitResult::kOk) ++out.failed;
      if (k == ops.size() / 2) {
        out.threads_max = std::max(out.threads_max, ThreadCount());
      }
    }
    const auto flush0 = Clock::now();
    ParallelStats stats;
    {
      ScopedSpan span("IngestPipeline.Flush", "parallel");
      stats = pipeline.Flush();
    }
    const auto t1 = Clock::now();
    const uint64_t done_ns = obs::MonotonicNs();
    const uint64_t round_committed =
        stats.totals.updates_completed - last.totals.updates_completed;
    const uint64_t round_failed =
        stats.totals.updates_failed - last.totals.updates_failed;
    out.failed += round_failed;
    if (round_committed + round_failed != ops.size()) {
      out.Fail("sharded-stream: submitted " + std::to_string(ops.size()) +
               " ops, pipeline accounts " + std::to_string(round_committed) +
               " committed + " + std::to_string(round_failed) + " failed");
    }
    commit_rates.push_back(round_committed / Seconds(t0, t1));
    // The pipeline tells its caller nothing per op; Flush is the point at
    // which the producer learns every op it submitted has committed.
    for (size_t k = 0; k < ops.size(); ++k) {
      op_us[k].push_back((done_ns - submitted_ns[k]) / 1e3);
    }

    if (traced) {
      flush_ms.push_back(Micros(flush0, t1) / 1e3);
      stall_s.push_back(stats.admission_stall_seconds -
                        last.admission_stall_seconds);
      traced_steps += stats.totals.total_steps - last.totals.total_steps;
      std::vector<double> per_shard;
      for (size_t s = 0; s < stats.shard_pinned.size(); ++s) {
        const uint64_t before = s < last.shard_pinned.size() ? last.shard_pinned[s] : 0;
        per_shard.push_back(static_cast<double>(stats.shard_pinned[s] - before));
      }
      const double mean = Mean(per_shard);
      if (mean > 0) {
        skew.push_back(*std::max_element(per_shard.begin(), per_shard.end()) / mean);
      }
      const obs::MetricsSnapshot snap = repo->registry.Snapshot();
      inbox_wait.Merge(snap.stage(obs::Stage::kInboxWait));
      chase.Merge(snap.stage(obs::Stage::kChase));
      commit.Merge(snap.stage(obs::Stage::kCommit));
      busy.push_back(static_cast<double>(snap.stage(obs::Stage::kChase).sum) /
                     1e9 / (static_cast<double>(out.workers) * Seconds(t0, t1)));
    }

    for (const PremiseQuery& q : repo->queries) {
      const auto q0 = Clock::now();
      {
        ScopedSpan span("QueryEngine.Evaluate", "query");
        ProgramAnswers(&db, q);
      }
      query_us.push_back(Micros(q0, Clock::now()));
      ++out.attempted;
    }

    if (r == 0) {
      out.peak_rss_mb = PeakRssMb();
      const SchedulerStats& tot = stats.totals;
      const SchedulerStats& was = last.totals;
      out.exact = {
          {"committed", round_committed},
          {"steps", tot.total_steps - was.total_steps},
          {"writes", tot.physical_writes - was.physical_writes},
          {"frontier_ops", tot.frontier_ops - was.frontier_ops},
          {"pinned", stats.pinned_updates - last.pinned_updates},
          {"cross_shard", stats.cross_shard_updates - last.cross_shard_updates},
          {"escaped", stats.escaped_updates - last.escaped_updates},
          {"aborts", tot.aborts - was.aborts},
      };
      const double n = static_cast<double>(round_committed);
      out.per_layer.Set("core.steps_per_update", (tot.total_steps - was.total_steps) / n, "steps");
      out.per_layer.Set("core.writes_per_update", (tot.physical_writes - was.physical_writes) / n, "writes");
      out.per_layer.Set("core.frontier_ops_per_update", (tot.frontier_ops - was.frontier_ops) / n, "ops");
      out.per_layer.Set("ccontrol.aborts.coarse", tot.aborts - was.aborts, "count");
      out.per_layer.Set("ccontrol.cascading_requests.coarse",
                        tot.cascading_abort_requests - was.cascading_abort_requests, "count");
      ReportStorageShape(db, &out);

      const std::vector<WriteOp> committed_ops = pipeline.CommittedOpsInOrder();
      if (committed_ops.size() != ops.size() || !SameOpMultiset(committed_ops, ops)) {
        out.Fail("sharded-stream: committed ops are not a permutation of the stream");
      }
      const uint64_t digest =
          CheckState(&db, repo->maps, repo->queries, &out, "sharded-stream");
      // Theorem 4.4: the streamed state equals the serial re-execution of
      // the committed ops, in number order, on the rewound repository.
      const std::string streamed = DumpText(db);
      db.RemoveVersionsAbove(0);
      MinContentAgent replay_agent;
      uint64_t number = 1;
      for (const WriteOp& op : committed_ops) {
        Update u(number++, op, &repo->tgds);
        u.RunToCompletion(&db, &replay_agent);
      }
      if (DumpText(db) != streamed) {
        out.Fail("sharded-stream: serial replay of the committed ops differs "
                 "from the streamed state");
      }
      out.exact.emplace_back("state_digest", Fnv1a(streamed));
      out.exact.emplace_back("answers_digest", digest);
    }
    return Seconds(t0, t1);
  };
  DriveRounds(options, build, round,
              [&] { return TailResolved(num_ops, 0.99) &&
                           TailResolved(query_us.size(), 0.99); },
              &out);

  if (out.threads_max > static_cast<int>(hardware) && hardware >= 4) {
    out.Fail("sharded-stream ran " + std::to_string(out.threads_max) +
             " threads on " + std::to_string(hardware) + " hardware threads");
  }
  if (!submit_us.empty()) {
    out.per_layer.Set("parallel.submit_p50_us", Percentile(submit_us, 0.5), "us");
    out.per_layer.Set("parallel.submit_p99_us", Percentile(submit_us, 0.99), "us");
    out.per_layer.Set("parallel.flush_ms", Mean(flush_ms), "ms");
    out.per_layer.Set("parallel.producer_stall_s", Mean(stall_s), "s");
    auto mean_us = [](const obs::HistogramSnapshot& h) {
      return h.total > 0 ? static_cast<double>(h.sum) / h.total / 1e3 : 0.0;
    };
    out.per_layer.Set("parallel.inbox_wait_mean_us", mean_us(inbox_wait), "us");
    out.per_layer.Set("parallel.chase_mean_us", mean_us(chase), "us");
    out.per_layer.Set("parallel.commit_mean_us", mean_us(commit), "us");
    out.per_layer.Set("parallel.shard_skew", Mean(skew), "ratio");
    out.per_layer.Set("parallel.worker_busy_ratio", Mean(busy), "ratio");
    if (traced_steps > 0) {
      out.per_layer.Set("core.step_us",
                        static_cast<double>(chase.sum) / 1e3 / traced_steps, "us");
    }
  }
  uint64_t decisions = 0;
  uint64_t decision_ns = 0;
  for (const AgentTimes& a : agent_times) {
    decisions += a.decisions;
    decision_ns += a.ns;
  }
  if (decisions > 0) out.per_layer.Set("core.agent_us", decision_ns / 1e3 / decisions, "us");
  ReportLayerProbes(&repo->db, repo->queries, options.seed, &out);
  if (options.trace) FinishTrace(options, &out);
  repo->pipeline->Stop();

  out.end_to_end.Set("setup_s", Median(setup_s), "s");
  out.end_to_end.Set("commit_per_s", Median(commit_rates), "updates/s");
  // Every round replays the same stream on a fresh repository, so each op's
  // latency is its median over the rounds; one slow round does not move it.
  std::vector<double> update_us;
  for (const std::vector<double>& rounds : op_us) update_us.push_back(Median(rounds));
  out.end_to_end.Set("update_p50_us", Percentile(update_us, 0.50), "us");
  out.end_to_end.Set("update_p99_us", Percentile(update_us, 0.99), "us");
  out.end_to_end.Set("query_p50_us", Percentile(query_us, 0.50), "us");
  out.end_to_end.Set("query_p99_us", Percentile(query_us, 0.99), "us");
  out.end_to_end.Set("peak_rss_mb", out.peak_rss_mb, "MB");
  return out;
}

}  // namespace perfbench
