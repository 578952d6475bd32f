#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads and the pieces they share: the timing wrapper around
// the simulated user, the certain-answer query set, the post-run layer
// probes and the round loop.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/agent.h"
#include "oracle.h"
#include "relational/database.h"
#include "tgd/tgd.h"
#include "util/rng.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace file of a traced run
};

// Every workload's repository (schema, mappings, seeded data) and the
// content of its traffic (batches, stream, session script) come from this
// fixed generator seed; --seed draws the order in which the traffic is
// issued and, on interactive-session, the simulated user's choices (the
// batches' users are fixed; see batch.cc). Random traffic has heavy-tailed
// chase costs (one insert can derive thousands of tuples), so traffic drawn
// afresh per seed would make a figure's spread over seeds the spread of the
// inputs rather than of the program.
inline constexpr uint64_t kRepositorySeed = 1;

// Shuffles `v` into the order seed `seed` draws.
template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  youtopia::Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

// Reorders the inserts between each pair of consecutive deletes, as seed
// `seed` draws, and leaves every delete where it is. Without existentials
// inserts commute, so the instance each delete meets, and the final
// instance, stay those of the generated order; moving a delete across
// inserts can change the final instance by tens of thousands of tuples.
void ShuffleInsertRuns(std::vector<youtopia::WriteOp>* ops, uint64_t seed);
// Set-ups before round 0; setup_s is the median of these and of the
// rebuilds before later rounds.
inline constexpr int kSetups = 3;

Outcome RunOptimisticBatch(const Options& options);
Outcome RunShardedStream(const Options& options);
Outcome RunInteractiveSession(const Options& options);

// Frontier-decision time and count of one agent (one thread's worth).
struct AgentTimes {
  uint64_t decisions = 0;
  uint64_t ns = 0;
};

// Forwards to `inner`; while the span recorder is on, times every decision
// into `times` and records an agent span for it.
class TimingAgent : public youtopia::FrontierAgent {
 public:
  TimingAgent(std::unique_ptr<youtopia::FrontierAgent> inner, AgentTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  youtopia::PositiveDecision DecidePositive(
      const youtopia::Snapshot& snap, const youtopia::FrontierTuple& tuple,
      const youtopia::Provenance& prov) override;
  std::vector<size_t> DecideNegative(
      const youtopia::Snapshot& snap,
      const youtopia::NegativeFrontier& nf) override;

 private:
  std::unique_ptr<youtopia::FrontierAgent> inner_;
  AgentTimes* times_;
};

// One certain-answer query: a mapping premise projected onto the mapping's
// frontier variables, as text for the program and as atoms for the oracle.
struct PremiseQuery {
  std::string body;
  std::vector<std::string> head;
  OQuery oracle;
  std::vector<uint32_t> oracle_head;
};

// Builds one query per mapping. `tgds` live in `from`'s symbol space;
// `to` is the repository the queries run against.
std::vector<PremiseQuery> PremiseQueries(const std::vector<youtopia::Tgd>& tgds,
                                         const youtopia::Catalog& catalog,
                                         const youtopia::SymbolTable& from,
                                         youtopia::SymbolTable* to);

// Parses and evaluates `q` with certain semantics through the program's
// query path (the same calls Youtopia::Query makes); sorted answers.
std::vector<youtopia::TupleData> ProgramAnswers(youtopia::Database* db,
                                                const PremiseQuery& q);

// Runs the oracles over `db`'s visible state: every mapping must hold and
// every query's certain answers must equal the program's. Failures go to
// `out`. Returns a digest of the oracle's answers.
uint64_t CheckState(youtopia::Database* db, const std::vector<OMapping>& maps,
                    const std::vector<PremiseQuery>& queries, Outcome* out,
                    const std::string& where);

// Structural counters of the final state (exact across runs).
void ReportStorageShape(const youtopia::Database& db, Outcome* out);

// Timed layer probes over a seeded sample of the final state's tuples:
// relational.lookup_us, query.specificity_us, and (over `queries`)
// query.eval_us and tgd.parse_us.
void ReportLayerProbes(youtopia::Database* db,
                       const std::vector<PremiseQuery>& queries, uint64_t seed,
                       Outcome* out);

// Runs round(i) for i = 0, 1, ... (each returns its measured wall
// seconds), calling rebuild() before every round but the first, so that
// every round runs the same work on a freshly built repository: round 0,
// which also runs the output checks, then rounds until options.seconds
// have passed and enough() holds. After round 0 a traced run alternates
// untraced rounds with traced ones (the benchmark's spans plus the
// program's obs::Tracer), reports obs.trace_overhead_ratio (median traced
// over median untraced round) and leaves the recorder on for the post-run
// probes; FinishTrace() closes it. A run that cannot collect enough
// samples within the hard cap fails rather than report an unresolved tail.
void DriveRounds(const Options& options, const std::function<void()>& rebuild,
                 const std::function<double(size_t)>& round,
                 const std::function<bool()>& enough, Outcome* out);

// Ends a traced run: stops both recorders, reports the per-layer self times
// per traced round and writes the Chrome trace file.
void FinishTrace(const Options& options, Outcome* out);

// Emits every per-layer metric name, zero-filled, so that each workload
// prints the full list; workloads then overwrite what they measure.
void ZeroFillPerLayer(Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
