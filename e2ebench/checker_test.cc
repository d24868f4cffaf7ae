// The answer checker must accept the reference answer to every request kind
// and flag one perturbed answer per kind; the string-level reference
// predicates it rests on are pinned to hand-checked values.
//
//   cmake --build .bench_build/e2ebench/cmake --target e2ebench_checker_test
//   .bench_build/e2ebench/cmake/e2ebench_checker_test
#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"
#include "workloads.h"

namespace e2ebench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void ReferencePredicates() {
  Expect(LikeMatch("abcd", "a%d"), "like a%d");
  Expect(LikeMatch("abcd", "%b_d"), "like %b_d");
  Expect(!LikeMatch("abcd", "%b_"), "like %b_ rejects");
  Expect(LikeMatch("", "%"), "like % matches the empty string");
  Expect(!LikeMatch("", "_"), "like _ needs one symbol");
  Expect(LikeMatch("abab", "%ab%ab%"), "like two windows");
  Expect(Levenshtein("kitten", "sitting") == 3, "levenshtein kitten");
  Expect(Levenshtein("", "abc") == 3, "levenshtein empty");
  Expect(Levenshtein("abcd", "acbd") == 2, "levenshtein transposition");
  Expect(IsPrefix("", "a") && IsPrefix("ab", "ab") && !IsPrefix("b", "ab"),
         "prefix");
  Expect(LastSymbolIs("cab", 'b') && !LastSymbolIs("", 'b'), "last symbol");
  Expect(ShortlexLess({"d"}, {"aa"}) && ShortlexLess({"ab"}, {"ba"}) &&
             !ShortlexLess({"ab"}, {"ab"}),
         "shortlex");
}

RefDb SmallDb() {
  RefDb db;
  db.r = {"ab", "abc", "abd", "ca", "cab", "dddd"};
  db.s = {{"ab", "ca"}, {"abc", "dd"}, {"ca", "cab"}};
  return db;
}

Request Req(Kind kind, Shape shape, std::string lit, size_t k = 0) {
  Request req;
  req.kind = kind;
  req.spec.shape = shape;
  req.spec.lit = std::move(lit);
  req.k = k;
  return req;
}

// Accepts the reference answer, rejects `bad`.
void Case(const std::string& name, const Request& req, const RefDb& db,
          const Response& good, const Response& bad) {
  const Expected want = Expect(req, db);
  std::string why;
  Expect(Check(req, want, good, &why), name + ": reference answer accepted");
  why.clear();
  Expect(!Check(req, want, bad, &why), name + ": perturbed answer flagged");
  Expect(!why.empty(), name + ": the flag says why");
}

void PerturbedAnswers() {
  const RefDb db = SmallDb();

  // Query: answer {ab, abc, abd}; one tuple dropped.
  Request query = Req(Kind::kQuery, Shape::kPrefix, "ab");
  Response good, bad;
  good.tuples = {{"ab"}, {"abc"}, {"abd"}};
  bad.tuples = {{"ab"}, {"abd"}};
  Case("query", query, db, good, bad);

  // Sentence: true; flipped.
  Request sentence = Req(Kind::kSentence, Shape::kLikeSentence, "%a_");
  good = {};
  good.truth = true;
  bad = {};
  bad.truth = false;
  Case("sentence", sentence, db, good, bad);

  // Contains: 'dddd' is not in R(x) & like(x, '%b%'); claimed present.
  Request contains = Req(Kind::kContains, Shape::kLike, "%b%");
  contains.probe = {"dddd"};
  good = {};
  good.truth = false;
  bad = {};
  bad.truth = true;
  Case("contains", contains, db, good, bad);

  // ExistsWitness: any stored string ending in 'b' or 'c' under '%b_' is
  // fine; 'ca' does not satisfy the formula.
  Request witness = Req(Kind::kWitness, Shape::kLike, "%b_");
  good = {};
  good.witness = Tuple{"abd"};
  bad = {};
  bad.witness = Tuple{"ca"};
  Case("witness", witness, db, good, bad);
  // ...and a missing witness for a non-empty answer is flagged too.
  Response none;
  Case("witness-missing", witness, db, good, none);

  // TopK: shortlex first 3 of {ab, abc, abd, cab} under '%b%' are
  // ab, abc, abd; a lexicographic-only order would put cab last as well,
  // so perturb by swapping two.
  Request topk = Req(Kind::kTopK, Shape::kLike, "%b%", 3);
  good = {};
  good.tuples = {{"ab"}, {"abc"}, {"abd"}};
  bad = {};
  bad.tuples = {{"ab"}, {"abd"}, {"abc"}};
  Case("topk", topk, db, good, bad);
  // Shortlex puts the shorter 'cab' before 'dddd' and after 'ab'.
  Request topk_len = Req(Kind::kTopK, Shape::kPrefix, "", 3);
  good = {};
  good.tuples = {{"ab"}, {"ca"}, {"abc"}};
  bad = {};
  bad.tuples = {{"ab"}, {"abc"}, {"abd"}};
  Case("topk-shortlex", topk_len, db, good, bad);

  // IsSafe: R(x) | 'w' <= x is infinite; claimed safe.
  Request unsafe = Req(Kind::kIsSafe, Shape::kUnsafeUnion, "ab");
  good = {};
  good.truth = false;
  bad = {};
  bad.truth = true;
  Case("is_safe", unsafe, db, good, bad);
}

void Answers() {
  const RefDb db = SmallDb();
  QuerySpec q;
  q.shape = Shape::kPrefixClosure;
  q.lit = "ca%";
  Expect(Answer(q, db) == TupleSet{{""}, {"c"}, {"ca"}, {"cab"}},
         "prefix closure");
  q.shape = Shape::kNoProperPrefix;
  Expect(Answer(q, db) == TupleSet{{"ab"}, {"ca"}, {"dddd"}},
         "no proper prefix");
  q.shape = Shape::kJoin;
  q.lit = "c";
  Expect(Answer(q, db) == TupleSet{{"ab"}, {"ca"}}, "join");
  q.shape = Shape::kNear;
  q.lit = "abcd";
  q.k = 1;
  Expect(Answer(q, db) == TupleSet{{"abc"}, {"abd"}}, "near");
  q.shape = Shape::kDenseSentence;
  q.lit = "x";
  q.lit2 = "dddd";
  Expect(Truth(q, db), "dense sentence true through the equality");
}

void Generators() {
  // Inputs are a function of the seed alone.
  const WorkloadSpec spec = SpecFor(WorkloadId::kReadCold);
  RefDb a = MakeDb(7, spec.db);
  RefDb b = MakeDb(7, spec.db);
  Expect(a.r == b.r && a.s == b.s, "same seed, same database");
  LiteralSource sa(7, a, true);
  LiteralSource sb(7, b, true);
  for (int i = 0; i < spec.ops_per_round * 4; ++i) {
    Request x = ColdRequest(sa, i / spec.ops_per_round, i % spec.ops_per_round);
    Request y = ColdRequest(sb, i / spec.ops_per_round, i % spec.ops_per_round);
    Expect(FormulaText(x.spec) == FormulaText(y.spec) && x.probe == y.probe,
           "same seed, same request stream");
    if (x.kind == Kind::kTopK || x.kind == Kind::kWitness ||
        x.kind == Kind::kQuery) {
      Expect(IsFinite(x.spec.shape), "open requests are finite");
    }
  }
  // Every pair of update batches leaves |R| unchanged.
  RefDb u = MakeDb(3, SpecFor(WorkloadId::kUpdateStream).db);
  const size_t size = u.r.size();
  SeededRng rng(3);
  for (int k = 0; k < 40; ++k) {
    for (const Write& w : UpdateBatch(rng, u.r, k, 4, 10)) {
      Expect(w.insert ? u.r.insert(w.value).second : u.r.erase(w.value) == 1,
             "update batches insert absent and delete present strings");
    }
    if (k % 2 == 1) Expect(u.r.size() == size, "balanced pair of batches");
  }
}

}  // namespace
}  // namespace e2ebench

int main() {
  e2ebench::ReferencePredicates();
  e2ebench::PerturbedAnswers();
  e2ebench::Answers();
  e2ebench::Generators();
  if (e2ebench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", e2ebench::failures);
    return 1;
  }
  std::printf("e2ebench_checker_test: all checks passed\n");
  return 0;
}
