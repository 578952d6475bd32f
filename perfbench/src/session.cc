// interactive-session: one user on the Youtopia facade, over a Fig. 4-shaped
// repository (100 relations, 100 mappings with existentials) whose mappings
// are registered as text through AddMapping and whose data comes from
// 10,000 facade inserts drawn as the Fig. 4 seeding draws them. A closed
// loop alternates a synchronous update (Insert, Delete, or ReplaceNull of a
// null the user named) with a certain-answer Query whose body is a mapping
// premise. Each round replays the script on a freshly built session,
// issuing every premise query kQueryPasses times in the order the seed
// draws; the seed also drives the simulated user.
//
// The script follows the Fig. 4 workload generator (GenerateWorkload):
// an exact 20% of the updates are deletes, in shuffled order, of a uniform
// relation's uniform visible tuple (null-free here: the facade names only
// nulls the user named); the rest insert into a uniform relation, each
// value a fresh one with probability WorkloadOptions::p_fresh_value (0.5)
// and a pool constant otherwise. Null replacement has no such source: the
// paper's experiments issue none. Here a fresh insert value is a newly
// named null with probability kNamedNullShare, and each named null is
// replaced, first named first, by the next update that is not a delete,
// with a value drawn as an insert value is.
//
// The only workload with reads beside writes, and the only one whose
// per-operation latency is visible from outside: it exercises tgd parsing,
// the query evaluator and the serial chase while the scheduler and the
// pipeline sit idle.

#include <algorithm>
#include <deque>
#include <memory>

#include "core/youtopia.h"
#include "relational/tuple.h"
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
constexpr double kDeleteShare = 0.2;  // Fig. 4's, as in optimistic-batch
// Share of fresh insert values given as named nulls; chosen here, with no
// source (about one inserted value in ten, and one update in five a
// ReplaceNull).
constexpr double kNamedNullShare = 0.2;
// Each round issues every premise query this many times, in seeded order,
// with one scripted update before each.
constexpr size_t kQueryPasses = 3;

struct Session {
  Database generated;  // the generator's copy of schema and mappings
  std::vector<std::string> pool;
  std::unique_ptr<Youtopia> yt;
  std::vector<OMapping> maps;
  std::vector<PremiseQuery> queries;
  double add_mapping_ms = 0;  // mean per AddMapping call
};

std::unique_ptr<Session> BuildSession() {
  auto s = std::make_unique<Session>();
  Rng rng(kRepositorySeed);
  SchemaGenOptions schema;
  schema.num_relations = kRelations;
  CHECK(GenerateSchema(&s->generated, &rng, schema).ok());
  const std::vector<Value> constants =
      GenerateConstantPool(&s->generated, &rng, kConstants);
  for (const Value& c : constants) {
    s->pool.emplace_back(s->generated.symbols().Text(c));
  }
  MappingGenOptions mapping;
  mapping.count = kMappings;
  const std::vector<Tgd> tgds =
      GenerateMappings(s->generated, constants, &rng, mapping);

  s->yt = std::make_unique<Youtopia>(kRepositorySeed);
  Youtopia& yt = *s->yt;
  const Catalog& catalog = s->generated.catalog();
  for (RelationId r = 0; r < catalog.size(); ++r) {
    CHECK(yt.CreateRelation(catalog.schema(r).name, catalog.schema(r).attributes).ok());
  }
  const auto mappings0 = Clock::now();
  for (const Tgd& tgd : tgds) {
    CHECK(yt.AddMapping(tgd.ToString(catalog, s->generated.symbols())).ok());
  }
  s->add_mapping_ms = Micros(mappings0, Clock::now()) / 1e3 /
                      static_cast<double>(tgds.size());

  // The Fig. 4 seeding (GenerateInitialData): a uniform relation, each
  // value a uniform pool constant.
  for (size_t i = 0; i < kSeedInserts; ++i) {
    const RelationId rel = static_cast<RelationId>(rng.Uniform(catalog.size()));
    std::vector<std::string> values;
    for (size_t j = 0; j < catalog.schema(rel).arity(); ++j) {
      values.push_back(s->pool[rng.Uniform(s->pool.size())]);
    }
    Result<UpdateReport> report = yt.Insert(catalog.schema(rel).name, values);
    CHECK(report.ok() && report->completed);
  }

  Database& db = yt.db();
  for (const Tgd& tgd : tgds) {
    s->maps.push_back(TranslateMapping(tgd, catalog, s->generated.symbols(),
                                       &db.symbols()));
  }
  s->queries = PremiseQueries(tgds, catalog, s->generated.symbols(), &db.symbols());
  return s;
}

}  // namespace

Outcome RunInteractiveSession(const Options& options) {
  Outcome out;
  ZeroFillPerLayer(&out);
  std::vector<double> setup_s;
  std::vector<double> add_mapping_ms;
  std::unique_ptr<Session> session;
  auto build = [&] {
    session.reset();
    const auto t0 = Clock::now();
    session = BuildSession();
    setup_s.push_back(Seconds(t0, Clock::now()));
    add_mapping_ms.push_back(session->add_mapping_ms);
  };
  for (int i = 0; i < kSetups; ++i) build();
  const double p_fresh = WorkloadOptions().p_fresh_value;

  std::vector<double> update_us;
  std::vector<double> query_us;
  std::vector<double> commit_rates;  // per round
  AgentTimes agent_times;
  double traced_update_us = 0;
  uint64_t traced_steps = 0;

  auto round = [&](size_t r) -> double {
    const bool traced = SpanRecorder::Global().enabled();
    Youtopia& yt = *session->yt;
    Database& db = yt.db();
    const Catalog& catalog = db.catalog();
    const std::vector<std::string>& pool = session->pool;
    yt.SetAgent(std::make_unique<TimingAgent>(
        std::make_unique<RandomAgent>(options.seed), &agent_times));
    Rng rng(kRepositorySeed * 0x9e3779b97f4a7c15ull + 5);
    std::vector<size_t> query_order(kQueryPasses * session->queries.size());
    for (size_t i = 0; i < query_order.size(); ++i) query_order[i] = i % session->queries.size();
    SeededShuffle(&query_order, options.seed * 1000003 + 5);
    std::vector<char> is_delete(query_order.size(), 0);
    const size_t deletes = static_cast<size_t>(
        static_cast<double>(is_delete.size()) * kDeleteShare);
    std::fill(is_delete.begin(), is_delete.begin() + deletes, 1);
    SeededShuffle(&is_delete, kRepositorySeed + 23);
    std::deque<std::string> named;  // nulls named and not yet replaced
    size_t fresh = 0;
    // An insert value, or the constant replacing a null.
    auto draw_value = [&] {
      return rng.Chance(p_fresh) ? "f" + std::to_string(fresh++)
                                 : pool[rng.Uniform(pool.size())];
    };
    uint64_t steps = 0;
    uint64_t frontier_ops = 0;
    uint64_t round_committed = 0;
    uint64_t versions_before = 0;
    for (RelationId rel = 0; rel < db.num_relations(); ++rel) {
      versions_before += db.relation(rel).num_versions();
    }
    uint64_t answers = 0;
    double call_seconds = 0;
    const auto round0 = Clock::now();

    for (size_t step = 0; step < query_order.size(); ++step) {
      std::string relation;
      std::vector<std::string> values;
      std::string null_name;
      std::string constant;
      if (is_delete[step]) {
        Snapshot snap(&db, kReadLatest);
        for (int attempt = 0; attempt < 1000 && values.empty(); ++attempt) {
          const RelationId rel = static_cast<RelationId>(rng.Uniform(catalog.size()));
          std::vector<TupleData> candidates;
          snap.ForEachVisible(rel, [&](RowId, const TupleData& t) {
            if (!ContainsAnyNull(t)) candidates.push_back(t);
          });
          if (candidates.empty()) continue;
          relation = catalog.schema(rel).name;
          for (const Value& v : candidates[rng.Uniform(candidates.size())]) {
            values.emplace_back(db.symbols().Text(v));
          }
        }
        CHECK(!values.empty());
      } else if (!named.empty()) {
        null_name = named.front();
        named.pop_front();
        constant = draw_value();
      } else {
        const RelationId rel = static_cast<RelationId>(rng.Uniform(catalog.size()));
        relation = catalog.schema(rel).name;
        for (size_t j = 0; j < catalog.schema(rel).arity(); ++j) {
          if (rng.Chance(p_fresh) && rng.Chance(kNamedNullShare)) {
            named.push_back("?n" + std::to_string(fresh++));
            values.push_back(named.back());
          } else {
            values.push_back(draw_value());
          }
        }
      }

      Result<UpdateReport> report = Status::Internal("not run");
      auto t0 = Clock::now();
      {
        ScopedSpan span("Youtopia.Update", "core", step);
        if (is_delete[step]) {
          report = yt.Delete(relation, values);
        } else if (!null_name.empty()) {
          report = yt.ReplaceNull(null_name, constant);
        } else {
          report = yt.Insert(relation, values);
        }
      }
      auto t1 = Clock::now();
      update_us.push_back(Micros(t0, t1));
      call_seconds += Seconds(t0, t1);
      ++out.attempted;
      if (report.ok() && report->completed) {
        ++round_committed;
        steps += report->steps;
        frontier_ops += report->frontier_ops;
        if (traced) {
          traced_update_us += Micros(t0, t1);
          traced_steps += report->steps;
        }
      } else {
        ++out.failed;
      }

      const PremiseQuery& q = session->queries[query_order[step]];
      t0 = Clock::now();
      Result<Youtopia::QueryAnswer> answer = Status::Internal("not run");
      {
        ScopedSpan span("Youtopia.Query", "core", step);
        answer = yt.Query(q.body, q.head, QuerySemantics::kCertain);
      }
      t1 = Clock::now();
      query_us.push_back(Micros(t0, t1));
      call_seconds += Seconds(t0, t1);
      ++out.attempted;
      if (answer.ok()) {
        answers += answer->tuples.size();
      } else {
        ++out.failed;
      }
    }
    const double round_s = Seconds(round0, Clock::now());
    commit_rates.push_back(round_committed / call_seconds);

    if (r == 0) {
      out.peak_rss_mb = PeakRssMb();
      uint64_t versions_after = 0;
      for (RelationId rel = 0; rel < db.num_relations(); ++rel) {
        versions_after += db.relation(rel).num_versions();
      }
      const double n = static_cast<double>(round_committed);
      out.exact = {{"committed", round_committed},
                   {"steps", steps},
                   {"frontier_ops", frontier_ops},
                   {"versions_written", versions_after - versions_before},
                   {"answers", answers},
                   {"state_digest", Fnv1a(DumpText(db))}};
      out.per_layer.Set("core.steps_per_update", steps / n, "steps");
      out.per_layer.Set("core.writes_per_update",
                        (versions_after - versions_before) / n, "writes");
      out.per_layer.Set("core.frontier_ops_per_update", frontier_ops / n, "ops");
      ReportStorageShape(db, &out);
      out.exact.emplace_back(
          "answers_digest",
          CheckState(&db, session->maps, session->queries, &out,
                     "interactive-session"));
    }
    return round_s;
  };
  DriveRounds(options, build, round,
              [&] { return TailResolved(update_us.size(), 0.99) &&
                           TailResolved(query_us.size(), 0.99); },
              &out);

  out.per_layer.Set("tgd.add_mapping_ms", Median(add_mapping_ms), "ms");
  if (traced_steps > 0) {
    out.per_layer.Set("core.step_us", traced_update_us / traced_steps, "us");
  }
  if (agent_times.decisions > 0) {
    out.per_layer.Set("core.agent_us", agent_times.ns / 1e3 / agent_times.decisions, "us");
  }
  ReportLayerProbes(&session->yt->db(), session->queries, options.seed, &out);
  if (options.trace) FinishTrace(options, &out);

  out.end_to_end.Set("setup_s", Median(setup_s), "s");
  out.end_to_end.Set("commit_per_s", Median(commit_rates), "updates/s");
  out.end_to_end.Set("update_p50_us", Percentile(update_us, 0.50), "us");
  out.end_to_end.Set("update_p99_us", Percentile(update_us, 0.99), "us");
  out.end_to_end.Set("query_p50_us", Percentile(query_us, 0.50), "us");
  out.end_to_end.Set("query_p99_us", Percentile(query_us, 0.99), "us");
  out.end_to_end.Set("peak_rss_mb", out.peak_rss_mb, "MB");
  out.workers = 1;
  out.threads_max = ThreadCount();
  return out;
}

}  // namespace perfbench
