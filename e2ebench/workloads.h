// Input generation for the three workloads. Everything here is a pure
// function of the seed: relations, request streams and write batches.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "reference.h"

namespace e2ebench {

inline constexpr char kAlphabet[] = "abcd";

enum class WorkloadId { kReadWarm, kReadCold, kUpdateStream };
std::optional<WorkloadId> ParseWorkload(const std::string& name);
const char* WorkloadName(WorkloadId id);

// Relation sizes and string lengths of one workload's database.
struct DbShape {
  int r_size;
  int s_size;
  int min_len;
  int max_len;
};

// Fixed per-workload make-up. Run length is a whole number of rounds, set
// from --seconds by `rounds_per_second`, so the operation sequence is fixed
// by the seed and the run length, never by a time window.
struct WorkloadSpec {
  DbShape db;
  int clients;             // closed-loop sessions (read-warm: capped by nproc)
  int ops_per_round;       // per client
  double rounds_per_second;
};
WorkloadSpec SpecFor(WorkloadId id);

RefDb MakeDb(uint64_t seed, const DbShape& shape);

// Draws the literals of requests. Literals are cut from stored strings, and
// each request's literal is redrawn until its reference answer has a size
// within a fixed band, so a request's cost depends on its shape rather than
// on how selective a seed's literal happens to be. With `fresh` set no atom
// literal repeats: a fresh literal means a fresh atom, plan and operation
// memo in the program. With `fresh` set the LIKE patterns of the projection
// and two-track shapes (kPrefixClosure, kPairLike) also cycle through the
// four pattern styles in a fixed order, three of them unanchored, so every
// run carries the same number of each; without it they stay anchored.
class LiteralSource {
 public:
  LiteralSource(uint64_t seed, const RefDb& db, bool fresh);

  // A request of `kind` over `shape`; `k` is the TopK count.
  Request Make(Kind kind, Shape shape, size_t k = 0);

 private:
  void Draw(QuerySpec* q);
  std::string StoredString();
  std::string Prefix(int min_len, int max_len);
  // Pattern styles: 0 '%w%', 1 'w%', 2 '%w', 3 '%w1%w2%'.
  std::string LikePattern(int style);
  std::string NearProbe();  // one edit away from a stored string

  const RefDb& db_;
  SeededRng rng_;
  std::vector<std::string> r_;
  std::vector<std::pair<std::string, std::string>> s_;
  bool fresh_;
  int wide_style_ = 0;  // style of the current kPrefixClosure/kPairLike draw
  int wide_count_ = 0;  // kPrefixClosure/kPairLike requests made so far
  std::set<std::string> used_;
  int prefix_min_ = 1;
  int prefix_max_ = 3;
};

// read-warm: the request pool, in Zipf rank order (rank i has kind i % 6, so
// the hottest six requests are one of each kind whatever the seed). With
// 384 requests and skew 0.6 the hottest request takes 4% of the traffic and
// the hottest six 13%, so the latency quantiles average over many literals
// rather than follow the cost of the few a seed puts at the top.
std::vector<Request> WarmPool(LiteralSource& source);
// Zipf(s) ranks over [0, n) for one client's round.
std::vector<int> ZipfRanks(SeededRng& rng, int n, double s, int count);
inline constexpr int kWarmPoolRows = 64;
inline constexpr double kZipfSkew = 0.6;

// read-cold: the i-th request of round `round` (i < ops_per_round).
Request ColdRequest(LiteralSource& source, int round, int i);
// True for the projection and two-track LIKE requests whose pattern is
// unanchored; traced read-cold runs report their latency apart.
bool WideLike(const QuerySpec& q);

// update-stream: batch `k` against the mirrored relation. Even batches
// insert two fresh strings; odd batches insert one and delete three stored
// ones, so every pair of batches leaves |R| unchanged.
struct Write {
  std::string value;
  bool insert;
};
std::vector<Write> UpdateBatch(SeededRng& rng, const std::set<std::string>& r,
                               int k, int min_len, int max_len);
// The standing queries answered after every commit. The Contains probe
// comes first, so it is the first answer after a write; its tuple is set per
// batch (see UpdateProbe).
std::vector<Request> StandingQueries();
inline constexpr size_t kProbeQuery = 0;
Tuple UpdateProbe(const std::vector<Write>& batch);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
