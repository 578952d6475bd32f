#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "query/query_engine.h"
#include "query/specificity.h"
#include "relational/tuple.h"
#include "spans.h"
#include "tgd/parser.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using youtopia::Database;
using youtopia::TupleData;

namespace {

// Hard cap on a run's rounds, far inside the 180-second limit of a run.
constexpr double kMaxRoundSeconds = 120;
// Tuples the layer probes sample from the final state, and their passes.
constexpr size_t kProbeSample = 2000;
constexpr int kProbePasses = 5;

// Traced rounds of the current run (per-layer self times are per round).
size_t g_traced_rounds = 0;

uint64_t NowNs() { return youtopia::obs::MonotonicNs(); }

}  // namespace

youtopia::PositiveDecision TimingAgent::DecidePositive(
    const youtopia::Snapshot& snap, const youtopia::FrontierTuple& tuple,
    const youtopia::Provenance& prov) {
  if (!SpanRecorder::Global().enabled()) {
    return inner_->DecidePositive(snap, tuple, prov);
  }
  const uint64_t t0 = NowNs();
  youtopia::PositiveDecision d;
  {
    ScopedSpan span("agent.DecidePositive", "core", snap.reader());
    d = inner_->DecidePositive(snap, tuple, prov);
  }
  times_->ns += NowNs() - t0;
  ++times_->decisions;
  return d;
}

std::vector<size_t> TimingAgent::DecideNegative(
    const youtopia::Snapshot& snap, const youtopia::NegativeFrontier& nf) {
  if (!SpanRecorder::Global().enabled()) return inner_->DecideNegative(snap, nf);
  const uint64_t t0 = NowNs();
  std::vector<size_t> d;
  {
    ScopedSpan span("agent.DecideNegative", "core", snap.reader());
    d = inner_->DecideNegative(snap, nf);
  }
  times_->ns += NowNs() - t0;
  ++times_->decisions;
  return d;
}

std::vector<PremiseQuery> PremiseQueries(const std::vector<youtopia::Tgd>& tgds,
                                         const youtopia::Catalog& catalog,
                                         const youtopia::SymbolTable& from,
                                         youtopia::SymbolTable* to) {
  std::vector<PremiseQuery> out;
  for (const youtopia::Tgd& tgd : tgds) {
    const OMapping m = TranslateMapping(tgd, catalog, from, to);
    std::vector<uint32_t> premise_vars;
    for (const OAtom& a : m.lhs.atoms) {
      for (const OTerm& t : a.terms) {
        if (t.is_var && std::find(premise_vars.begin(), premise_vars.end(),
                                  t.var) == premise_vars.end()) {
          premise_vars.push_back(t.var);
        }
      }
    }
    // Three projections of the premise: its frontier variables, all its
    // variables, and the first frontier variable alone.
    std::vector<std::vector<uint32_t>> heads = {m.frontier, premise_vars};
    if (m.frontier.size() > 1) heads.push_back({m.frontier.front()});
    for (const std::vector<uint32_t>& head : heads) {
      PremiseQuery q;
      q.body = youtopia::QueryToString(tgd.lhs(), catalog, from, tgd.var_names());
      q.oracle = m.lhs;
      q.oracle_head = head;
      for (uint32_t v : head) {
        q.head.push_back(v < tgd.var_names().size() && !tgd.var_names()[v].empty()
                             ? tgd.var_names()[v]
                             : "v" + std::to_string(v));
      }
      out.push_back(std::move(q));
    }
  }
  return out;
}

std::vector<TupleData> ProgramAnswers(Database* db, const PremiseQuery& q) {
  youtopia::TgdParser parser(&db->catalog(), &db->symbols());
  youtopia::Result<youtopia::TgdParser::ParsedQuery> parsed =
      parser.ParseQuery(q.body);
  CHECK(parsed.ok());
  std::vector<youtopia::VarId> head;
  for (const std::string& name : q.head) {
    youtopia::Result<youtopia::VarId> v = parsed->VarByName(name);
    CHECK(v.ok());
    head.push_back(*v);
  }
  youtopia::Snapshot snap(db, youtopia::kReadLatest);
  youtopia::QueryEngine engine(snap);
  std::vector<TupleData> answers =
      engine.Evaluate(parsed->body, head, youtopia::QuerySemantics::kCertain);
  std::sort(answers.begin(), answers.end());
  return answers;
}

uint64_t CheckState(Database* db, const std::vector<OMapping>& maps,
                    const std::vector<PremiseQuery>& queries, Outcome* out,
                    const std::string& where) {
  DumpView dump(*db);
  const std::string violation = CheckMappings(&dump, maps);
  if (!violation.empty()) out->Fail(where + ": " + violation);
  uint64_t digest = Fnv1a(std::to_string(dump.total_tuples()));
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::vector<TupleData> expected =
        CertainAnswers(&dump, queries[i].oracle, queries[i].oracle_head);
    const std::vector<TupleData> got = ProgramAnswers(db, queries[i]);
    if (got != expected) {
      out->Fail(where + ": query " + std::to_string(i) + " [" +
                queries[i].body + "] returned " + std::to_string(got.size()) +
                " certain answers, the oracle " +
                std::to_string(expected.size()));
    }
    digest = Fnv1a(std::to_string(expected.size()) + ";", digest);
  }
  return digest;
}

void ReportStorageShape(const Database& db, Outcome* out) {
  double versions = 0;
  double entries = 0;
  for (youtopia::RelationId r = 0; r < db.num_relations(); ++r) {
    versions += static_cast<double>(db.relation(r).num_versions());
    entries += static_cast<double>(db.relation(r).IndexEntryCount());
  }
  const double visible =
      static_cast<double>(db.CountVisible(youtopia::kReadLatest));
  out->per_layer.Set("relational.versions_per_tuple",
                     visible > 0 ? versions / visible : 0, "ratio");
  out->per_layer.Set("relational.index_entries_per_tuple",
                     visible > 0 ? entries / visible : 0, "ratio");
}

void ReportLayerProbes(Database* db, const std::vector<PremiseQuery>& queries,
                       uint64_t seed, Outcome* out) {
  struct Probe {
    youtopia::RelationId rel;
    TupleData data;
  };
  std::vector<Probe> all;
  youtopia::Snapshot snap(db, youtopia::kReadLatest);
  for (youtopia::RelationId r = 0; r < db->num_relations(); ++r) {
    snap.ForEachVisible(r, [&](youtopia::RowId, const TupleData& t) {
      all.push_back({r, t});
    });
  }
  std::vector<Probe> sample;
  youtopia::Rng rng(seed * 0x9e3779b97f4a7c15ull + 77);
  for (size_t i = 0; i < kProbeSample && !all.empty(); ++i) {
    sample.push_back(all[rng.Uniform(all.size())]);
  }
  if (!sample.empty()) {
    std::vector<double> lookup_us;
    std::vector<double> spec_us;
    std::vector<youtopia::RowId> rows;
    size_t found = 0;
    for (int pass = 0; pass < kProbePasses; ++pass) {
      {
        ScopedSpan span("probe.FindRowWithData", "relational");
        const auto t0 = Clock::now();
        for (const Probe& p : sample) {
          found += db->FindRowWithData(p.rel, p.data, youtopia::kReadLatest)
                       .has_value();
        }
        lookup_us.push_back(Micros(t0, Clock::now()) /
                            static_cast<double>(sample.size()));
      }
      {
        ScopedSpan span("probe.FindMoreSpecificRows", "query");
        const auto t0 = Clock::now();
        for (const Probe& p : sample) {
          rows.clear();
          youtopia::FindMoreSpecificRows(snap, p.rel, p.data,
                                         /*exclude_equal=*/true, &rows);
        }
        spec_us.push_back(Micros(t0, Clock::now()) /
                          static_cast<double>(sample.size()));
      }
    }
    if (found != sample.size() * kProbePasses) {
      out->Fail("FindRowWithData missed a visible tuple of the final state");
    }
    out->per_layer.Set("relational.lookup_us", Median(lookup_us), "us");
    out->per_layer.Set("query.specificity_us", Median(spec_us), "us");
  }

  std::vector<double> parse_us;
  std::vector<double> eval_us;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    for (const PremiseQuery& q : queries) {
      youtopia::TgdParser parser(&db->catalog(), &db->symbols());
      auto t0 = Clock::now();
      youtopia::Result<youtopia::TgdParser::ParsedQuery> parsed = [&] {
        ScopedSpan span("probe.ParseQuery", "tgd");
        return parser.ParseQuery(q.body);
      }();
      parse_us.push_back(Micros(t0, Clock::now()));
      CHECK(parsed.ok());
      std::vector<youtopia::VarId> head;
      for (const std::string& name : q.head) head.push_back(*parsed->VarByName(name));
      youtopia::QueryEngine engine(snap);
      t0 = Clock::now();
      {
        ScopedSpan span("probe.Evaluate", "query");
        engine.Evaluate(parsed->body, head, youtopia::QuerySemantics::kCertain);
      }
      eval_us.push_back(Micros(t0, Clock::now()));
    }
  }
  out->per_layer.Set("tgd.parse_us", Mean(parse_us), "us");
  out->per_layer.Set("query.eval_us", Mean(eval_us), "us");
}

void DriveRounds(const Options& options, const std::function<void()>& rebuild,
                 const std::function<double(size_t)>& round,
                 const std::function<bool()>& enough, Outcome* out) {
  // Round 0 is followed by the output checks, so the window opens after it;
  // its samples count like any other round's.
  round(0);
  size_t i = 1;
  const auto start = Clock::now();
  if (!options.trace) {
    while (Seconds(start, Clock::now()) < options.seconds || !enough()) {
      if (Seconds(start, Clock::now()) > kMaxRoundSeconds) {
        out->Fail("too few samples for a resolved p99 within the round cap");
        break;
      }
      rebuild();
      round(i++);
    }
    out->rounds = i;
    return;
  }
  // Untraced and traced rounds alternate, so that both see the machine in
  // the same state; the window closes on a traced round.
  SpanRecorder& rec = SpanRecorder::Global();
  rec.BeginTracedSection();
  std::vector<double> untraced;
  std::vector<double> traced;
  while (traced.empty() || Seconds(start, Clock::now()) < options.seconds) {
    rec.SetTracing(false);
    rebuild();
    untraced.push_back(round(i++));
    rebuild();
    rec.SetTracing(true);
    traced.push_back(round(i++));
  }
  out->rounds = i;
  g_traced_rounds = traced.size();
  out->per_layer.Set("obs.trace_overhead_ratio",
                     Median(traced) / Median(untraced), "ratio");
}

void FinishTrace(const Options& options, Outcome* out) {
  SpanRecorder& rec = SpanRecorder::Global();
  rec.EndTracedSection();
  const double rounds = static_cast<double>(std::max<size_t>(1, g_traced_rounds));
  for (const char* layer :
       {"core", "ccontrol", "parallel", "query", "tgd", "relational"}) {
    out->per_layer.Set(std::string("trace.self_ms.") + layer, 0, "ms");
  }
  for (const auto& [layer, ns] : rec.SelfNsByLayer()) {
    out->per_layer.Set("trace.self_ms." + layer, ns / 1e6 / rounds, "ms");
  }
  if (rec.dropped() > 0) {
    std::fprintf(stderr, "perfbench: span buffer full, %llu spans dropped\n",
                 static_cast<unsigned long long>(rec.dropped()));
  }
  if (!options.trace_out.empty()) {
    const std::string err = rec.WriteChromeTrace(options.trace_out);
    if (!err.empty()) out->Fail("trace: " + err);
  }
}

void ShuffleInsertRuns(std::vector<youtopia::WriteOp>* ops, uint64_t seed) {
  youtopia::Rng rng(seed);
  size_t begin = 0;
  for (size_t i = 0; i <= ops->size(); ++i) {
    if (i < ops->size() && (*ops)[i].kind != youtopia::WriteOp::Kind::kDelete) {
      continue;
    }
    for (size_t n = i - begin; n > 1; --n) {
      std::swap((*ops)[begin + n - 1], (*ops)[begin + rng.Uniform(n)]);
    }
    begin = i + 1;
  }
}

void ZeroFillPerLayer(Outcome* out) {
  static const char* const kMetrics[][2] = {
      {"relational.lookup_us", "us"},
      {"relational.versions_per_tuple", "ratio"},
      {"relational.index_entries_per_tuple", "ratio"},
      {"query.rows_per_execution", "rows"},
      {"query.specificity_us", "us"},
      {"query.eval_us", "us"},
      {"tgd.parse_us", "us"},
      {"tgd.add_mapping_ms", "ms"},
      {"core.steps_per_update", "steps"},
      {"core.writes_per_update", "writes"},
      {"core.frontier_ops_per_update", "ops"},
      {"core.step_us", "us"},
      {"core.agent_us", "us"},
  };
  for (const auto& m : kMetrics) out->per_layer.Set(m[0], 0, m[1]);
  for (const char* tracker : {"coarse", "precise"}) {
    const std::string t = tracker;
    out->per_layer.Set("ccontrol.aborts." + t, 0, "count");
    out->per_layer.Set("ccontrol.cascading_requests." + t, 0, "count");
    out->per_layer.Set("ccontrol.useful_ratio." + t, 0, "ratio");
    out->per_layer.Set("ccontrol.run_s." + t, 0, "s");
    out->per_layer.Set("ccontrol.read_queries_per_execution." + t, 0, "count");
    out->per_layer.Set("ccontrol.doom.violation." + t, 0, "count");
    out->per_layer.Set("ccontrol.doom.more_specific." + t, 0, "count");
    out->per_layer.Set("ccontrol.doom.null_occurrence." + t, 0, "count");
    out->per_layer.Set("ccontrol.doom.cascade." + t, 0, "count");
  }
  static const char* const kParallel[][2] = {
      {"parallel.submit_p50_us", "us"},   {"parallel.submit_p99_us", "us"},
      {"parallel.flush_ms", "ms"},        {"parallel.producer_stall_s", "s"},
      {"parallel.inbox_wait_mean_us", "us"}, {"parallel.chase_mean_us", "us"},
      {"parallel.commit_mean_us", "us"},  {"parallel.shard_skew", "ratio"},
      {"parallel.worker_busy_ratio", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  for (const auto& m : kParallel) out->per_layer.Set(m[0], 0, m[1]);
}

}  // namespace perfbench
