#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace e2ebench {

std::optional<WorkloadId> ParseWorkload(const std::string& name) {
  if (name == "read-warm") return WorkloadId::kReadWarm;
  if (name == "read-cold") return WorkloadId::kReadCold;
  if (name == "update-stream") return WorkloadId::kUpdateStream;
  return std::nullopt;
}

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kReadWarm: return "read-warm";
    case WorkloadId::kReadCold: return "read-cold";
    case WorkloadId::kUpdateStream: return "update-stream";
  }
  return "?";
}

WorkloadSpec SpecFor(WorkloadId id) {
  switch (id) {
    case WorkloadId::kReadWarm:
      return {{256, 192, 4, 10}, 3, 400, 20.0};
    case WorkloadId::kReadCold:
      return {{384, 256, 4, 12}, 1, 12, 22.0};
    case WorkloadId::kUpdateStream:
      return {{128, 0, 4, 10}, 1, 2, 42.0};
  }
  return {};
}

RefDb MakeDb(uint64_t seed, const DbShape& shape) {
  SeededRng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  RefDb db;
  while (static_cast<int>(db.r.size()) < shape.r_size) {
    db.r.insert(rng.String(kAlphabet, shape.min_len, shape.max_len));
  }
  std::vector<std::string> r(db.r.begin(), db.r.end());
  while (static_cast<int>(db.s.size()) < shape.s_size) {
    std::string x = r[rng.Below(r.size())];
    std::string y = rng.Below(2) == 0
                        ? r[rng.Below(r.size())]
                        : rng.String(kAlphabet, shape.min_len, shape.max_len);
    db.s.insert({x, y});
  }
  return db;
}

LiteralSource::LiteralSource(uint64_t seed, const RefDb& db, bool fresh)
    : db_(db),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 7),
      r_(db.r.begin(), db.r.end()),
      s_(db.s.begin(), db.s.end()),
      fresh_(fresh) {
  if (fresh_) {
    // Fresh prefixes must come from a space large enough not to run dry.
    prefix_min_ = 3;
    prefix_max_ = 7;
  }
}

std::string LiteralSource::StoredString() { return r_[rng_.Below(r_.size())]; }

std::string LiteralSource::Prefix(int min_len, int max_len) {
  const std::string r = StoredString();
  int len = std::min<int>(rng_.Int(min_len, max_len), r.size());
  return r.substr(0, len);
}

std::string LiteralSource::LikePattern(int style) {
  // Wildcard-heavy patterns cut from a stored string, so at least that
  // string matches, with one symbol of a window replaced by '_' half of the
  // time.
  const std::string r = StoredString();
  const int n = static_cast<int>(r.size());
  auto window = [&](int at, int len) {
    std::string w = r.substr(at, len);
    if (rng_.Below(2) == 0) w[rng_.Below(w.size())] = '_';
    return w;
  };
  std::string out;
  switch (style) {
    case 0: {
      int len = rng_.Int(2, 3);
      out.append("%").append(window(rng_.Int(0, n - len), len)).append("%");
      break;
    }
    case 1:
      out.append(window(0, rng_.Int(2, 4))).append("%");
      break;
    case 2: {
      int len = rng_.Int(2, 3);
      out.append("%").append(window(n - len, len));
      break;
    }
    default: {
      int a = rng_.Int(0, n - 4);
      int b = rng_.Int(a + 2, n - 2);
      out.append("%").append(window(a, 2)).append("%");
      out.append(window(b, 2)).append("%");
      break;
    }
  }
  return out;
}

std::string LiteralSource::NearProbe() {
  std::string w = StoredString();
  size_t at = rng_.Below(w.size());
  char c = kAlphabet[rng_.Below(4)];
  switch (rng_.Below(3)) {
    case 0: w[at] = c; break;
    case 1: w.insert(w.begin() + static_cast<long>(at), c); break;
    default: w.erase(at, 1); break;
  }
  return w;
}

void LiteralSource::Draw(QuerySpec* q) {
  switch (q->shape) {
    case Shape::kAll:
    case Shape::kNoProperPrefix:
      break;
    case Shape::kLike:
    case Shape::kLikeSentence:
      q->lit = LikePattern(static_cast<int>(rng_.Below(4)));
      break;
    case Shape::kPrefixClosure:
    case Shape::kPairLike:
      q->lit = LikePattern(wide_style_);
      break;
    case Shape::kPrefix:
    case Shape::kPairPrefix:
    case Shape::kJoin:
      q->lit = Prefix(prefix_min_, prefix_max_);
      break;
    case Shape::kLast:
      q->lit = std::string(1, kAlphabet[rng_.Below(4)]);
      break;
    case Shape::kNear:
      q->lit = NearProbe();
      q->k = rng_.Int(1, 2);
      break;
    case Shape::kLikeNotPrefix:
      q->lit = LikePattern(static_cast<int>(rng_.Below(4)));
      q->lit2 = Prefix(1, 2);
      break;
    case Shape::kDenseSentence:
      // True-dense: a short prefix of a stored string, or a junk string.
      q->lit = Prefix(1, 3);
      q->lit2 = rng_.String(kAlphabet, 10, 14);
      break;
    case Shape::kUnsafeUnion:
      q->lit = rng_.String(kAlphabet, 10, 14);
      break;
  }
}

namespace {

// The literal that makes a request's atoms new.
std::string FreshKey(const QuerySpec& q) {
  if (q.shape == Shape::kDenseSentence) return q.lit2;
  if (q.shape == Shape::kNear) return q.lit + "~" + std::to_string(q.k);
  return q.lit;
}

// Answer sizes a literal is redrawn into.
bool InBand(const QuerySpec& q, const RefDb& db) {
  if (IsSentence(q.shape) || !IsFinite(q.shape)) return true;
  const size_t n = Answer(q, db).size();
  if (q.shape == Shape::kPrefixClosure) return n >= 4 && n <= 40;
  return n >= 1 && n <= 12;
}

}  // namespace

Request LiteralSource::Make(Kind kind, Shape shape, size_t k) {
  constexpr int kMaxAttempts = 256;
  Request req;
  req.kind = kind;
  req.k = k;
  req.spec.shape = shape;
  if (shape == Shape::kPrefixClosure || shape == Shape::kPairLike) {
    // Unanchored patterns under a projection or on a second track cost far
    // more than anchored ones, with a spread that depends on the literal
    // (see e2ebench/README.md). Cold traffic carries them at a fixed share;
    // the warm pool keeps to 'w%', so one seed's hot request cannot set
    // read-warm's figures.
    wide_style_ = fresh_ ? wide_count_ % 4 : 1;
    ++wide_count_;
  }
  for (int attempt = 0;; ++attempt) {
    Draw(&req.spec);
    const std::string key = FreshKey(req.spec);
    const bool fresh = !fresh_ || used_.count(key) == 0;
    if ((fresh && InBand(req.spec, db_)) || attempt == kMaxAttempts) {
      if (fresh_) used_.insert(key);
      break;
    }
  }
  if (kind == Kind::kContains) {
    // Half the probes are stored tuples, half are not.
    const bool pair = shape == Shape::kPairPrefix || shape == Shape::kPairLike;
    if (pair) {
      auto [x, y] = s_[rng_.Below(s_.size())];
      if (rng_.Below(2) == 0) y = rng_.String(kAlphabet, 4, 8);
      req.probe = {x, y};
    } else {
      req.probe = {rng_.Below(2) == 0 ? StoredString()
                                      : rng_.String(kAlphabet, 4, 10)};
    }
  }
  return req;
}

std::vector<Request> WarmPool(LiteralSource& source) {
  // Row `kind` lists the shapes of that kind; rank i = 6 * row + kind, and
  // rows cycle through the shapes, so every kind carries a sixth of the
  // traffic spread over many literals.
  const Shape kShapes[kNumKinds][6] = {
      {Shape::kLike, Shape::kPrefix, Shape::kNear, Shape::kPairPrefix,
       Shape::kJoin, Shape::kPrefixClosure},
      {Shape::kDenseSentence, Shape::kLikeSentence, Shape::kDenseSentence,
       Shape::kLikeSentence, Shape::kDenseSentence, Shape::kLikeSentence},
      {Shape::kLike, Shape::kNear, Shape::kPrefix, Shape::kPairLike,
       Shape::kLike, Shape::kJoin},
      {Shape::kLike, Shape::kPrefix, Shape::kJoin, Shape::kPairLike,
       Shape::kNear, Shape::kLikeNotPrefix},
      {Shape::kLike, Shape::kPrefix, Shape::kPrefixClosure, Shape::kNear,
       Shape::kLast, Shape::kJoin},
      {Shape::kUnsafeUnion, Shape::kLike, Shape::kUnsafeUnion,
       Shape::kPrefixClosure, Shape::kUnsafeUnion, Shape::kJoin},
  };
  const size_t kTopK[3] = {1, 5, 10};
  std::vector<Request> pool;
  for (int row = 0; row < kWarmPoolRows; ++row) {
    for (int kind = 0; kind < kNumKinds; ++kind) {
      pool.push_back(source.Make(static_cast<Kind>(kind),
                                 kShapes[kind][row % 6], kTopK[row % 3]));
    }
  }
  return pool;
}

std::vector<int> ZipfRanks(SeededRng& rng, int n, double s, int count) {
  std::vector<double> cdf(n);
  double total = 0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(i + 1, s);
    cdf[i] = total;
  }
  std::vector<int> out;
  for (int i = 0; i < count; ++i) {
    double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * total;
    int rank = static_cast<int>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back(std::min(rank, n - 1));
  }
  return out;
}

Request ColdRequest(LiteralSource& source, int round, int i) {
  static const Shape kQueryCycle[8] = {
      Shape::kLike,          Shape::kNear,         Shape::kPairPrefix,
      Shape::kJoin,          Shape::kPrefixClosure, Shape::kLikeNotPrefix,
      Shape::kPairLike,      Shape::kPrefix};
  static const Shape kWitnessA[4] = {Shape::kPrefix, Shape::kLike,
                                     Shape::kJoin, Shape::kPairLike};
  static const Shape kWitnessB[3] = {Shape::kLike, Shape::kNear,
                                     Shape::kLikeNotPrefix};
  static const Shape kTopKShapes[4] = {Shape::kLike, Shape::kPrefix,
                                       Shape::kPrefixClosure, Shape::kNear};
  static const Shape kContainsB[3] = {Shape::kLike, Shape::kPrefix,
                                      Shape::kPairLike};
  static const Shape kSafeB[4] = {Shape::kUnsafeUnion, Shape::kLike,
                                  Shape::kUnsafeUnion, Shape::kJoin};
  const size_t kTopK[3] = {1, 5, 10};
  switch (i) {
    case 0: return source.Make(Kind::kQuery, kQueryCycle[(2 * round) % 8]);
    case 1: return source.Make(Kind::kSentence, Shape::kDenseSentence);
    case 2:
      return source.Make(Kind::kContains,
                         round % 2 == 0 ? Shape::kLike : Shape::kNear);
    case 3: return source.Make(Kind::kWitness, kWitnessA[round % 4]);
    case 4:
      return source.Make(Kind::kTopK, kTopKShapes[round % 4],
                         kTopK[round % 3]);
    case 5: return source.Make(Kind::kIsSafe, Shape::kUnsafeUnion);
    case 6:
      return source.Make(Kind::kQuery, kQueryCycle[(2 * round + 1) % 8]);
    case 7: return source.Make(Kind::kSentence, Shape::kLikeSentence);
    case 8: return source.Make(Kind::kContains, kContainsB[round % 3]);
    case 9: return source.Make(Kind::kWitness, kWitnessB[round % 3]);
    case 10:
      // Offset by one round from slot 4, so the prefix closure comes in odd
      // rounds too, which --trace 1 traces.
      return source.Make(Kind::kTopK, kTopKShapes[(round + 1) % 4],
                         kTopK[(round + 1) % 3]);
    default: return source.Make(Kind::kIsSafe, kSafeB[round % 4]);
  }
}

bool WideLike(const QuerySpec& q) {
  return (q.shape == Shape::kPrefixClosure || q.shape == Shape::kPairLike) &&
         !q.lit.empty() && q.lit.front() == '%';
}

std::vector<Write> UpdateBatch(SeededRng& rng, const std::set<std::string>& r,
                               int k, int min_len, int max_len) {
  std::vector<Write> batch;
  std::set<std::string> inserted;
  const int inserts = k % 2 == 0 ? 2 : 1;
  while (static_cast<int>(inserted.size()) < inserts) {
    std::string v = rng.String(kAlphabet, min_len, max_len);
    if (r.count(v) == 0 && inserted.insert(v).second) {
      batch.push_back({v, true});
    }
  }
  if (k % 2 == 1) {
    std::set<std::string> deleted;
    while (deleted.size() < 3) {
      auto it = r.begin();
      std::advance(it, static_cast<long>(rng.Below(r.size())));
      if (deleted.insert(*it).second) batch.push_back({*it, false});
    }
  }
  return batch;
}

std::vector<Request> StandingQueries() {
  std::vector<Request> out(4);
  out[kProbeQuery].kind = Kind::kContains;
  out[kProbeQuery].spec.shape = Shape::kLike;
  out[kProbeQuery].spec.lit = "%a_";
  out[1].kind = Kind::kQuery;
  out[1].spec.shape = Shape::kAll;
  out[2].kind = Kind::kQuery;
  out[2].spec.shape = Shape::kLike;
  out[2].spec.lit = "%cab%";
  out[3].kind = Kind::kQuery;
  out[3].spec.shape = Shape::kNoProperPrefix;
  return out;
}

Tuple UpdateProbe(const std::vector<Write>& batch) {
  // Every batch inserts at least one string; the probe asks for the first.
  return {batch.front().value};
}

}  // namespace e2ebench
