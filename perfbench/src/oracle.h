#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Output checks written apart from the program: a mapping-satisfaction
// checker and a certain-answer evaluator, both by hash joins over a dump of
// the visible tuples, where a labeled null equals only itself. Neither uses
// the program's evaluator, planner, chase or indexes; they read the
// program's final state once, through Snapshot::ForEachVisible, and take
// the mappings' atoms as data.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/database.h"
#include "relational/write.h"
#include "tgd/tgd.h"

namespace perfbench {

using youtopia::RelationId;
using youtopia::TupleData;
using youtopia::Value;

struct OTerm {
  bool is_var = true;
  uint32_t var = 0;
  Value value;  // constant, when !is_var
};
struct OAtom {
  RelationId rel = 0;
  std::vector<OTerm> terms;
};

// A conjunctive query, or one side of a mapping.
struct OQuery {
  std::vector<OAtom> atoms;
  uint32_t num_vars = 0;
};

struct OMapping {
  OQuery lhs;
  OQuery rhs;  // shares variable ids with lhs
  std::vector<uint32_t> frontier;
  std::string text;
};

// Copies a mapping's atoms, re-interning its constants by text from `from`
// into `to` (the two may be the same table).
OMapping TranslateMapping(const youtopia::Tgd& tgd,
                          const youtopia::Catalog& catalog,
                          const youtopia::SymbolTable& from,
                          youtopia::SymbolTable* to);

// The visible tuples of every relation, with hash indexes built on demand
// per (relation, bound positions).
class DumpView {
 public:
  explicit DumpView(const youtopia::Database& db);

  const std::vector<TupleData>& tuples(RelationId r) const {
    return tuples_[r];
  }
  size_t total_tuples() const;

  // Calls fn() for every extension of the partial `binding` (bound[v] says
  // which variables are set) that matches every atom; fn returns false to
  // stop. Returns false iff stopped.
  bool Match(const std::vector<OAtom>& atoms, std::vector<Value>* binding,
             std::vector<bool>* bound, const std::function<bool()>& fn);

 private:
  using Index = std::unordered_map<TupleData, std::vector<uint32_t>,
                                   youtopia::TupleDataHash>;
  const Index& IndexFor(RelationId rel, const std::vector<size_t>& positions);
  bool MatchRest(const std::vector<OAtom>& atoms, std::vector<bool>* done,
                 size_t remaining, std::vector<Value>* binding,
                 std::vector<bool>* bound, const std::function<bool()>& fn);

  std::vector<std::vector<TupleData>> tuples_;
  std::map<std::pair<RelationId, uint64_t>, Index> indexes_;
};

// Empty if every mapping holds on `dump`; otherwise names the first
// violated mapping and the premise match that has no conclusion.
std::string CheckMappings(DumpView* dump, const std::vector<OMapping>& maps);

// Distinct null-free projections onto `head` of every match of `query`,
// sorted.
std::vector<TupleData> CertainAnswers(DumpView* dump, const OQuery& query,
                                      const std::vector<uint32_t>& head);

// Sorted rendering of every relation's visible tuples: equal strings mean
// literally equal instances.
std::string DumpText(const youtopia::Database& db);

// True iff `a` and `b` hold the same initial operations, in any order.
bool SameOpMultiset(const std::vector<youtopia::WriteOp>& a,
                    const std::vector<youtopia::WriteOp>& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
