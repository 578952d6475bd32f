#include "oracle.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "relational/tuple.h"

namespace perfbench {

using youtopia::Database;
using youtopia::SymbolTable;

namespace {

OQuery TranslateQuery(const youtopia::ConjunctiveQuery& cq,
                      const SymbolTable& from, SymbolTable* to,
                      uint32_t num_vars) {
  OQuery out;
  out.num_vars = num_vars;
  for (const youtopia::Atom& atom : cq.atoms) {
    OAtom a;
    a.rel = atom.rel;
    for (const youtopia::Term& t : atom.terms) {
      OTerm term;
      term.is_var = t.is_variable();
      if (term.is_var) {
        term.var = t.var();
        out.num_vars = std::max(out.num_vars, term.var + 1);
      } else {
        term.value = &from == to ? t.constant() : to->Intern(from.Text(t.constant()));
      }
      a.terms.push_back(term);
    }
    out.atoms.push_back(std::move(a));
  }
  return out;
}

}  // namespace

OMapping TranslateMapping(const youtopia::Tgd& tgd,
                          const youtopia::Catalog& catalog,
                          const SymbolTable& from, SymbolTable* to) {
  OMapping m;
  m.lhs = TranslateQuery(tgd.lhs(), from, to, tgd.num_vars());
  m.rhs = TranslateQuery(tgd.rhs(), from, to, tgd.num_vars());
  const uint32_t n = std::max(m.lhs.num_vars, m.rhs.num_vars);
  m.lhs.num_vars = m.rhs.num_vars = n;
  // Frontier = variables on both sides, recomputed from the atoms.
  std::set<uint32_t> lhs_vars;
  for (const OAtom& a : m.lhs.atoms) {
    for (const OTerm& t : a.terms) {
      if (t.is_var) lhs_vars.insert(t.var);
    }
  }
  std::set<uint32_t> frontier;
  for (const OAtom& a : m.rhs.atoms) {
    for (const OTerm& t : a.terms) {
      if (t.is_var && lhs_vars.count(t.var) > 0) frontier.insert(t.var);
    }
  }
  m.frontier.assign(frontier.begin(), frontier.end());
  m.text = tgd.ToString(catalog, from);
  return m;
}

DumpView::DumpView(const Database& db) : tuples_(db.num_relations()) {
  youtopia::Snapshot snap(&db, youtopia::kReadLatest);
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    snap.ForEachVisible(r, [&](youtopia::RowId, const TupleData& t) {
      tuples_[r].push_back(t);
    });
  }
}

size_t DumpView::total_tuples() const {
  size_t n = 0;
  for (const auto& rel : tuples_) n += rel.size();
  return n;
}

const DumpView::Index& DumpView::IndexFor(RelationId rel,
                                          const std::vector<size_t>& positions) {
  uint64_t mask = 0;
  for (size_t p : positions) mask |= uint64_t{1} << p;
  auto [it, inserted] = indexes_.try_emplace({rel, mask});
  if (inserted) {
    const std::vector<TupleData>& rows = tuples_[rel];
    for (uint32_t i = 0; i < rows.size(); ++i) {
      TupleData key;
      for (size_t p : positions) key.push_back(rows[i][p]);
      it->second[key].push_back(i);
    }
  }
  return it->second;
}

bool DumpView::Match(const std::vector<OAtom>& atoms,
                     std::vector<Value>* binding, std::vector<bool>* bound,
                     const std::function<bool()>& fn) {
  std::vector<bool> done(atoms.size(), false);
  return MatchRest(atoms, &done, atoms.size(), binding, bound, fn);
}

bool DumpView::MatchRest(const std::vector<OAtom>& atoms,
                         std::vector<bool>* done, size_t remaining,
                         std::vector<Value>* binding, std::vector<bool>* bound,
                         const std::function<bool()>& fn) {
  if (remaining == 0) return fn();
  // Next atom: the one with the most positions already fixed.
  size_t best = atoms.size();
  size_t best_fixed = 0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if ((*done)[i]) continue;
    size_t fixed = 0;
    for (const OTerm& t : atoms[i].terms) {
      if (!t.is_var || (*bound)[t.var]) ++fixed;
    }
    if (best == atoms.size() || fixed > best_fixed) {
      best = i;
      best_fixed = fixed;
    }
  }
  const OAtom& atom = atoms[best];
  std::vector<size_t> positions;
  TupleData key;
  for (size_t p = 0; p < atom.terms.size(); ++p) {
    const OTerm& t = atom.terms[p];
    if (!t.is_var) {
      positions.push_back(p);
      key.push_back(t.value);
    } else if ((*bound)[t.var]) {
      positions.push_back(p);
      key.push_back((*binding)[t.var]);
    }
  }
  const Index& index = IndexFor(atom.rel, positions);
  auto hit = index.find(key);
  if (hit == index.end()) return true;
  (*done)[best] = true;
  const std::vector<TupleData>& rows = tuples_[atom.rel];
  std::vector<uint32_t> newly;
  for (uint32_t row : hit->second) {
    const TupleData& t = rows[row];
    bool ok = true;
    newly.clear();
    for (size_t p = 0; p < atom.terms.size() && ok; ++p) {
      const OTerm& term = atom.terms[p];
      if (!term.is_var) continue;
      if ((*bound)[term.var]) {
        ok = (*binding)[term.var] == t[p];
      } else {
        (*bound)[term.var] = true;
        (*binding)[term.var] = t[p];
        newly.push_back(term.var);
      }
    }
    const bool go_on =
        !ok || MatchRest(atoms, done, remaining - 1, binding, bound, fn);
    for (uint32_t v : newly) (*bound)[v] = false;
    if (!go_on) {
      (*done)[best] = false;
      return false;
    }
  }
  (*done)[best] = false;
  return true;
}

std::string CheckMappings(DumpView* dump, const std::vector<OMapping>& maps) {
  for (size_t m = 0; m < maps.size(); ++m) {
    const OMapping& map = maps[m];
    std::vector<Value> binding(map.lhs.num_vars);
    std::vector<bool> bound(map.lhs.num_vars, false);
    std::unordered_set<TupleData, youtopia::TupleDataHash> checked;
    std::string violation;
    dump->Match(map.lhs.atoms, &binding, &bound, [&]() {
      TupleData key;
      for (uint32_t v : map.frontier) key.push_back(binding[v]);
      if (!checked.insert(key).second) return true;
      std::vector<Value> rhs_binding(map.rhs.num_vars);
      std::vector<bool> rhs_bound(map.rhs.num_vars, false);
      for (uint32_t v : map.frontier) {
        rhs_binding[v] = binding[v];
        rhs_bound[v] = true;
      }
      const bool satisfied =
          !dump->Match(map.rhs.atoms, &rhs_binding, &rhs_bound,
                       [] { return false; });
      if (!satisfied) {
        violation = "mapping " + std::to_string(m) + " [" + map.text +
                    "] has a premise match with no conclusion";
      }
      return satisfied;
    });
    if (!violation.empty()) return violation;
  }
  return "";
}

std::vector<TupleData> CertainAnswers(DumpView* dump, const OQuery& query,
                                      const std::vector<uint32_t>& head) {
  std::set<TupleData> answers;
  std::vector<Value> binding(query.num_vars);
  std::vector<bool> bound(query.num_vars, false);
  dump->Match(query.atoms, &binding, &bound, [&]() {
    TupleData answer;
    for (uint32_t v : head) {
      if (binding[v].is_null()) return true;  // not certain
      answer.push_back(binding[v]);
    }
    answers.insert(std::move(answer));
    return true;
  });
  return std::vector<TupleData>(answers.begin(), answers.end());
}

std::string DumpText(const Database& db) {
  std::string out;
  youtopia::Snapshot snap(&db, youtopia::kReadLatest);
  std::vector<std::string> rows;
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    rows.clear();
    snap.ForEachVisible(r, [&](youtopia::RowId, const TupleData& t) {
      rows.push_back(youtopia::TupleToString(t, db.symbols()));
    });
    std::sort(rows.begin(), rows.end());
    out += db.catalog().schema(r).name + ":";
    for (const std::string& s : rows) out += " " + s + ";";
    out += "\n";
  }
  return out;
}

namespace {

// A stable key of an initial operation.
std::string OpKey(const youtopia::WriteOp& op) {
  auto value = [](const Value& v) {
    return std::string(v.is_null() ? "n" : "c") + std::to_string(v.id());
  };
  std::string key = std::to_string(static_cast<int>(op.kind)) + "|" +
                    std::to_string(op.rel) + "|";
  switch (op.kind) {
    case youtopia::WriteOp::Kind::kInsert:
      for (const Value& v : op.data) key += value(v) + ",";
      break;
    case youtopia::WriteOp::Kind::kDelete:
      key += std::to_string(op.row);
      break;
    case youtopia::WriteOp::Kind::kNullReplace:
      key += value(op.from) + ">" + value(op.to);
      break;
  }
  return key;
}

}  // namespace

bool SameOpMultiset(const std::vector<youtopia::WriteOp>& a,
                    const std::vector<youtopia::WriteOp>& b) {
  std::vector<std::string> ka, kb;
  for (const youtopia::WriteOp& op : a) ka.push_back(OpKey(op));
  for (const youtopia::WriteOp& op : b) kb.push_back(OpKey(op));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

}  // namespace perfbench
