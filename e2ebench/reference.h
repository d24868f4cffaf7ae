// The benchmark's own model of every request it sends: the formula text,
// and the answer computed by plain string functions over the benchmark's
// copy of the relations. Nothing here links against strq, so the reference
// answers are independent of the automata the program builds.
#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Tuple = std::vector<std::string>;
// Sorted and duplicate-free, the order strq::Relation keeps its tuples in.
using TupleSet = std::vector<Tuple>;

// splitmix64: the only source of randomness in the benchmark, so a seed
// fixes every input.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // Uniform in [lo, hi].
  int Int(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  std::string String(const std::string& alphabet, int min_len, int max_len);

 private:
  uint64_t state_;
};

// --- String-level reference predicates -----------------------------------

bool IsPrefix(const std::string& p, const std::string& s);
bool LastSymbolIs(const std::string& s, char a);
// SQL LIKE without escapes: '%' matches any string, '_' any one symbol.
bool LikeMatch(const std::string& s, const std::string& pattern);
// Edit distance (insert, delete, substitute; unit costs) by the textbook DP.
int Levenshtein(const std::string& a, const std::string& b);
// Shortlex on unary tuples: shorter first, then symbol by symbol. The
// benchmark's alphabets list their symbols in ascending character order, so
// the symbol order is the character order.
bool ShortlexLess(const Tuple& a, const Tuple& b);

// --- The benchmark's copy of the database --------------------------------

struct RefDb {
  std::set<std::string> r;                            // R/1
  std::set<std::pair<std::string, std::string>> s;   // S/2
};

// --- Requests -------------------------------------------------------------

// The six read kinds of serve::Session.
enum class Kind { kQuery, kSentence, kContains, kWitness, kTopK, kIsSafe };
inline constexpr int kNumKinds = 6;
const char* KindName(Kind kind);

// Query templates. `lit` / `lit2` are string literals, `k` an edit budget.
enum class Shape {
  kAll,             // R(x)
  kLike,            // R(x) & like(x, 'lit')
  kPrefix,          // R(x) & 'lit' <= x
  kLast,            // R(x) & last[lit](x)
  kNear,            // R(x) & x ~k 'lit'
  kLikeNotPrefix,   // R(x) & like(x, 'lit') & !('lit2' <= x)
  kPrefixClosure,   // exists y. R(y) & x <= y & like(y, 'lit')
  kNoProperPrefix,  // R(x) & !(exists y. R(y) & y < x)
  kPairPrefix,      // S(x, y) & 'lit' <= x
  kPairLike,        // S(x, y) & like(y, 'lit')
  kJoin,            // exists y. S(x, y) & R(y) & 'lit' <= y
  kDenseSentence,   // exists x. R(x) & ('lit' <= x | x = 'lit2')
  kLikeSentence,    // exists x. R(x) & like(x, 'lit')
  kUnsafeUnion,     // R(x) | 'lit' <= x        (always infinite)
};

struct QuerySpec {
  Shape shape = Shape::kLike;
  std::string lit;
  std::string lit2;
  int k = 0;
};

bool IsSentence(Shape shape);
// Known by construction: only kUnsafeUnion has an infinite answer.
bool IsFinite(Shape shape);
std::string FormulaText(const QuerySpec& spec);

struct Request {
  Kind kind = Kind::kQuery;
  QuerySpec spec;
  Tuple probe;    // kContains
  size_t k = 0;   // kTopK
};

// The expected response: `tuples` for kQuery (the answer set), kWitness (the
// set a witness must come from) and kTopK (the first k in shortlex order);
// `truth` for kSentence, kContains and kIsSafe.
struct Expected {
  TupleSet tuples;
  bool truth = false;
};

// What the program answered, in the same terms.
struct Response {
  TupleSet tuples;                 // kQuery (as a set), kTopK (in order)
  std::optional<Tuple> witness;    // kWitness
  bool truth = false;              // kSentence, kContains, kIsSafe
};

// The answer set of an open, finite query over `db`, sorted.
TupleSet Answer(const QuerySpec& spec, const RefDb& db);
// The truth value of a sentence over `db`.
bool Truth(const QuerySpec& spec, const RefDb& db);
Expected Expect(const Request& request, const RefDb& db);

// True iff `got` is a correct answer to `request`; otherwise `why` says
// what is wrong.
bool Check(const Request& request, const Expected& want, const Response& got,
           std::string* why);

}  // namespace e2ebench

#endif  // E2EBENCH_REFERENCE_H_
