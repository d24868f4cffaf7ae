#include "reference.h"

#include <algorithm>

namespace e2ebench {

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string SeededRng::String(const std::string& alphabet, int min_len,
                              int max_len) {
  int len = Int(min_len, max_len);
  std::string out;
  for (int i = 0; i < len; ++i) out += alphabet[Below(alphabet.size())];
  return out;
}

bool IsPrefix(const std::string& p, const std::string& s) {
  return p.size() <= s.size() && s.compare(0, p.size(), p) == 0;
}

bool LastSymbolIs(const std::string& s, char a) {
  return !s.empty() && s.back() == a;
}

bool LikeMatch(const std::string& s, const std::string& pattern) {
  // match[j]: pattern[0, i) matches s[0, j).
  std::vector<char> match(s.size() + 1, 0);
  match[0] = 1;
  for (char p : pattern) {
    std::vector<char> next(s.size() + 1, 0);
    if (p == '%') {
      char any = 0;
      for (size_t j = 0; j <= s.size(); ++j) {
        any = any || match[j];
        next[j] = any;
      }
    } else {
      for (size_t j = 1; j <= s.size(); ++j) {
        next[j] = match[j - 1] && (p == '_' || s[j - 1] == p);
      }
    }
    match = std::move(next);
  }
  return match[s.size()] != 0;
}

int Levenshtein(const std::string& a, const std::string& b) {
  std::vector<int> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    int diag = row[0];
    row[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int up = row[j];
      row[j] = std::min({up + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

bool ShortlexLess(const Tuple& a, const Tuple& b) {
  const std::string& x = a.at(0);
  const std::string& y = b.at(0);
  if (x.size() != y.size()) return x.size() < y.size();
  return x < y;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kQuery: return "query";
    case Kind::kSentence: return "sentence";
    case Kind::kContains: return "contains";
    case Kind::kWitness: return "witness";
    case Kind::kTopK: return "topk";
    case Kind::kIsSafe: return "is_safe";
  }
  return "?";
}

bool IsSentence(Shape shape) {
  return shape == Shape::kDenseSentence || shape == Shape::kLikeSentence;
}

bool IsFinite(Shape shape) { return shape != Shape::kUnsafeUnion; }

std::string FormulaText(const QuerySpec& q) {
  const std::string lit = "'" + q.lit + "'";
  const std::string lit2 = "'" + q.lit2 + "'";
  switch (q.shape) {
    case Shape::kAll: return "R(x)";
    case Shape::kLike: return "R(x) & like(x, " + lit + ")";
    case Shape::kPrefix: return "R(x) & " + lit + " <= x";
    case Shape::kLast: return "R(x) & last[" + q.lit + "](x)";
    case Shape::kNear:
      return "R(x) & x ~" + std::to_string(q.k) + " " + lit;
    case Shape::kLikeNotPrefix:
      return "R(x) & like(x, " + lit + ") & !(" + lit2 + " <= x)";
    case Shape::kPrefixClosure:
      return "exists y. R(y) & x <= y & like(y, " + lit + ")";
    case Shape::kNoProperPrefix: return "R(x) & !(exists y. R(y) & y < x)";
    case Shape::kPairPrefix: return "S(x, y) & " + lit + " <= x";
    case Shape::kPairLike: return "S(x, y) & like(y, " + lit + ")";
    case Shape::kJoin:
      return "exists y. S(x, y) & R(y) & " + lit + " <= y";
    case Shape::kDenseSentence:
      return "exists x. R(x) & (" + lit + " <= x | x = " + lit2 + ")";
    case Shape::kLikeSentence: return "exists x. R(x) & like(x, " + lit + ")";
    case Shape::kUnsafeUnion: return "R(x) | " + lit + " <= x";
  }
  return "";
}

namespace {

TupleSet Unary(const std::set<std::string>& values) {
  TupleSet out;
  for (const std::string& v : values) out.push_back({v});
  return out;
}

std::set<std::string> Filter(const RefDb& db,
                             bool (*keep)(const std::string&,
                                          const QuerySpec&),
                             const QuerySpec& q) {
  std::set<std::string> out;
  for (const std::string& r : db.r) {
    if (keep(r, q)) out.insert(r);
  }
  return out;
}

}  // namespace

TupleSet Answer(const QuerySpec& q, const RefDb& db) {
  switch (q.shape) {
    case Shape::kAll:
      return Unary(db.r);
    case Shape::kLike:
      return Unary(Filter(db, [](const std::string& r, const QuerySpec& s) {
        return LikeMatch(r, s.lit);
      }, q));
    case Shape::kPrefix:
      return Unary(Filter(db, [](const std::string& r, const QuerySpec& s) {
        return IsPrefix(s.lit, r);
      }, q));
    case Shape::kLast:
      return Unary(Filter(db, [](const std::string& r, const QuerySpec& s) {
        return LastSymbolIs(r, s.lit.at(0));
      }, q));
    case Shape::kNear:
      return Unary(Filter(db, [](const std::string& r, const QuerySpec& s) {
        return Levenshtein(r, s.lit) <= s.k;
      }, q));
    case Shape::kLikeNotPrefix:
      return Unary(Filter(db, [](const std::string& r, const QuerySpec& s) {
        return LikeMatch(r, s.lit) && !IsPrefix(s.lit2, r);
      }, q));
    case Shape::kPrefixClosure: {
      std::set<std::string> out;
      for (const std::string& r : db.r) {
        if (!LikeMatch(r, q.lit)) continue;
        for (size_t n = 0; n <= r.size(); ++n) out.insert(r.substr(0, n));
      }
      return Unary(out);
    }
    case Shape::kNoProperPrefix: {
      std::set<std::string> out;
      for (const std::string& r : db.r) {
        bool has_proper_prefix = false;
        for (size_t n = 0; n < r.size() && !has_proper_prefix; ++n) {
          has_proper_prefix = db.r.count(r.substr(0, n)) > 0;
        }
        if (!has_proper_prefix) out.insert(r);
      }
      return Unary(out);
    }
    case Shape::kPairPrefix:
    case Shape::kPairLike: {
      TupleSet out;
      for (const auto& [x, y] : db.s) {
        bool keep = q.shape == Shape::kPairPrefix ? IsPrefix(q.lit, x)
                                                  : LikeMatch(y, q.lit);
        if (keep) out.push_back({x, y});
      }
      return out;
    }
    case Shape::kJoin: {
      std::set<std::string> out;
      for (const auto& [x, y] : db.s) {
        if (db.r.count(y) > 0 && IsPrefix(q.lit, y)) out.insert(x);
      }
      return Unary(out);
    }
    case Shape::kDenseSentence:
    case Shape::kLikeSentence:
    case Shape::kUnsafeUnion:
      break;
  }
  return {};
}

bool Truth(const QuerySpec& q, const RefDb& db) {
  for (const std::string& r : db.r) {
    if (q.shape == Shape::kDenseSentence &&
        (IsPrefix(q.lit, r) || r == q.lit2)) {
      return true;
    }
    if (q.shape == Shape::kLikeSentence && LikeMatch(r, q.lit)) return true;
  }
  return false;
}

Expected Expect(const Request& req, const RefDb& db) {
  Expected want;
  switch (req.kind) {
    case Kind::kQuery:
    case Kind::kWitness:
      want.tuples = Answer(req.spec, db);
      break;
    case Kind::kSentence:
      want.truth = Truth(req.spec, db);
      break;
    case Kind::kContains: {
      TupleSet all = Answer(req.spec, db);
      want.truth = std::binary_search(all.begin(), all.end(), req.probe);
      break;
    }
    case Kind::kTopK: {
      TupleSet all = Answer(req.spec, db);
      std::sort(all.begin(), all.end(), ShortlexLess);
      if (all.size() > req.k) all.resize(req.k);
      want.tuples = std::move(all);
      break;
    }
    case Kind::kIsSafe:
      want.truth = IsFinite(req.spec.shape);
      break;
  }
  return want;
}

bool Check(const Request& req, const Expected& want, const Response& got,
           std::string* why) {
  switch (req.kind) {
    case Kind::kQuery:
      if (got.tuples == want.tuples) return true;
      *why = "answer set differs: " + std::to_string(got.tuples.size()) +
             " tuples, want " + std::to_string(want.tuples.size());
      return false;
    case Kind::kTopK:
      if (got.tuples == want.tuples) return true;
      *why = "top-k differs from the first " + std::to_string(req.k) +
             " answers in shortlex order";
      return false;
    case Kind::kWitness:
      if (!got.witness.has_value()) {
        if (want.tuples.empty()) return true;
        *why = "no witness, but the answer is non-empty";
        return false;
      }
      if (std::binary_search(want.tuples.begin(), want.tuples.end(),
                             *got.witness)) {
        return true;
      }
      *why = "witness does not satisfy the formula";
      return false;
    case Kind::kSentence:
    case Kind::kContains:
    case Kind::kIsSafe:
      if (got.truth == want.truth) return true;
      *why = std::string("got ") + (got.truth ? "true" : "false") +
             ", want " + (want.truth ? "true" : "false");
      return false;
  }
  *why = "unknown request kind";
  return false;
}

}  // namespace e2ebench
