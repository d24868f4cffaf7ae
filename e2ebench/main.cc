// End-to-end benchmark of strq through the serving API (serve::QueryServer /
// serve::Session), the surface strq_shell uses.
//
//   e2ebench --workload <read-warm|read-cold|update-stream> --seed <n>
//            --seconds <s> --trace <0|1>
//
// One workload per process, so the process-wide AutomatonStore starts empty.
// Set-up loads the generated relations from TSV, builds the server and runs
// a warm-up; then a fixed sequence of whole rounds of operations runs. Each
// round is drawn and its reference answers computed before it is timed, and
// every answer is checked against the benchmark's own string-level
// reference (reference.h) after it. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 turns strq's own
// counters on for every other round and reports the per-layer metrics, and
// writes the benchmark's spans (Chrome trace format, loadable in Perfetto)
// and the per-layer table under .bench_build/e2ebench/traces/.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/alphabet.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "reference.h"
#include "relational/database.h"
#include "relational/tsv.h"
#include "serve/server.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using strq::FormulaPtr;
using strq::Result;
namespace obs = strq::obs;
namespace serve = strq::serve;

// Every time the benchmark reports is wall time, so time a session spends
// blocked on a lock or descheduled counts.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Benchmark spans -------------------------------------------------------

// The calls the benchmark makes into a layer's public functions.
enum SpanName {
  kSpanParse,      // logic: ParseFormula
  kSpanQuery,      // serve: Session::Query ... Session::IsSafe, one per Kind
  kSpanSentence,
  kSpanContains,
  kSpanWitness,
  kSpanTopK,
  kSpanIsSafe,
  kSpanCommit,     // serve: QueryServer::CommitDeltas
  kSpanRefresh,    // serve: Session::Refresh
  kNumSpanNames,
};
const char* const kSpanNames[kNumSpanNames] = {
    "logic.ParseFormula",   "serve.Session.Query",
    "serve.Session.QuerySentence", "serve.Session.Contains",
    "serve.Session.ExistsWitness", "serve.Session.TopK",
    "serve.Session.IsSafe", "serve.QueryServer.CommitDeltas",
    "serve.Session.Refresh"};

SpanName CallSpan(Kind kind) {
  return static_cast<SpanName>(kSpanQuery + static_cast<int>(kind));
}

struct BenchSpan {
  SpanName name;
  int64_t start_ns;
  int64_t dur_ns;
};

// Spans kept for the trace file per client; durations are kept in full.
constexpr size_t kMaxExportSpans = 50000;

// Everything one client records. Written by its own thread only.
struct ClientLog {
  int client = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::string first_problem;
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a over every answer
  std::vector<int64_t> op_ns;                // untraced rounds
  std::vector<int64_t> first_answer_ns;      // untraced early-exit ops
  // Traced rounds only.
  std::vector<int64_t> closure_like_ns;      // WideLike kPrefixClosure calls
  std::vector<int64_t> pair_like_ns;         // WideLike kPairLike calls
  std::array<std::vector<int64_t>, kNumSpanNames> span_ns;
  std::vector<BenchSpan> spans;
  std::array<double, kNumKinds> kind_call_ns{};
  std::array<double, kNumKinds> kind_compile_ns{};

  void Problem(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
  void Digest(const std::string& s) {
    for (unsigned char c : s) digest = (digest ^ c) * 1099511628211ULL;
    digest = (digest ^ 0xff) * 1099511628211ULL;
  }
};

// Times one call into a layer when the round is traced.
class SpanTimer {
 public:
  SpanTimer(ClientLog& log, SpanName name, bool traced)
      : log_(log), name_(name), traced_(traced), start_(NowNs()) {}
  // Ends the span and returns its duration.
  int64_t Stop() {
    int64_t end = NowNs();
    if (traced_) {
      log_.span_ns[name_].push_back(end - start_);
      if (log_.spans.size() < kMaxExportSpans) {
        log_.spans.push_back({name_, start_, end - start_});
      }
    }
    return end - start_;
  }

 private:
  ClientLog& log_;
  SpanName name_;
  bool traced_;
  int64_t start_;
};

double PhaseTotalNs(const char* hist) {
  obs::Histogram::Snapshot h = obs::MetricsRegistry::Global().Hist(hist);
  return h.mean * static_cast<double>(h.count);
}

// Parses `text` and answers `req` through `session`: the timed part of one
// request.
struct Served {
  bool ok = true;
  std::string error;
  Response response;
  int64_t ns = 0;  // latency: parse + call
};

Served ServeRequest(serve::Session& session, const std::string& text,
                    const Request& req, ClientLog& log, bool traced,
                    bool per_kind_phases) {
  Served out;
  const double compile_before =
      per_kind_phases ? PhaseTotalNs(obs::kHistCompileNs) : 0;
  const int64_t start = NowNs();
  SpanTimer parse(log, kSpanParse, traced);
  Result<FormulaPtr> parsed = strq::ParseFormula(text);
  parse.Stop();
  if (!parsed.ok()) {
    out.ok = false;
    out.error = parsed.status().ToString();
    out.ns = NowNs() - start;
    return out;
  }
  const FormulaPtr& f = *parsed;
  SpanTimer call(log, CallSpan(req.kind), traced);
  strq::Status status = strq::Status::Ok();
  Response& r = out.response;
  switch (req.kind) {
    case Kind::kQuery: {
      Result<strq::Relation> rel = session.Query(f);
      if (rel.ok()) r.tuples = rel->tuples(); else status = rel.status();
      break;
    }
    case Kind::kSentence: {
      Result<bool> v = session.QuerySentence(f);
      if (v.ok()) r.truth = *v; else status = v.status();
      break;
    }
    case Kind::kContains: {
      Result<bool> v = session.Contains(f, req.probe);
      if (v.ok()) r.truth = *v; else status = v.status();
      break;
    }
    case Kind::kWitness: {
      auto v = session.ExistsWitness(f);
      if (v.ok()) r.witness = *v; else status = v.status();
      break;
    }
    case Kind::kTopK: {
      auto v = session.TopK(f, req.k);
      if (v.ok()) r.tuples = *v; else status = v.status();
      break;
    }
    case Kind::kIsSafe: {
      Result<bool> v = session.IsSafe(f);
      if (v.ok()) r.truth = *v; else status = v.status();
      break;
    }
  }
  const int64_t call_ns = call.Stop();
  out.ns = NowNs() - start;
  if (traced) {
    const int k = static_cast<int>(req.kind);
    log.kind_call_ns[k] += static_cast<double>(call_ns);
    if (WideLike(req.spec)) {
      (req.spec.shape == Shape::kPairLike ? log.pair_like_ns
                                          : log.closure_like_ns)
          .push_back(call_ns);
    }
    if (per_kind_phases) {
      log.kind_compile_ns[k] +=
          PhaseTotalNs(obs::kHistCompileNs) - compile_before;
    }
  }
  if (!status.ok()) {
    out.ok = false;
    out.error = status.ToString();
  }
  return out;
}

// Checks a served request against its expected answer, outside any timing.
void Record(ClientLog& log, const std::string& text, const Request& req,
            const Expected& want, const Served& served) {
  log.attempted += 1;
  log.Digest(text);
  if (!served.ok) {
    log.failed += 1;
    log.Problem("failed: " + text + ": " + served.error);
    log.Digest("<error>");
    return;
  }
  const Response& r = served.response;
  log.Digest(r.truth ? "1" : "0");
  for (const Tuple& t : r.tuples) {
    for (const std::string& s : t) log.Digest(s);
  }
  if (r.witness.has_value()) {
    for (const std::string& s : *r.witness) log.Digest(s);
  }
  std::string why;
  if (!Check(req, want, r, &why)) {
    log.wrong += 1;
    log.Problem(std::string("wrong answer to ") + KindName(req.kind) + " " +
                text + ": " + why);
  }
}

bool EarlyExit(Kind kind) {
  return kind == Kind::kContains || kind == Kind::kWitness ||
         kind == Kind::kTopK;
}

// Keeps the latency of an untraced request for the end-to-end metrics.
void Keep(ClientLog& log, Kind kind, int64_t ns, bool traced) {
  if (traced) return;
  log.op_ns.push_back(ns);
  if (EarlyExit(kind)) log.first_answer_ns.push_back(ns);
}

// --- Workload runners ------------------------------------------------------

struct SetupInfo {
  double load_s = 0;
  // Set-up time spent on the benchmark's own work: generating the inputs,
  // writing them as TSV, computing reference answers and checking the
  // warm-up's answers. setup_s leaves it out.
  int64_t own_ns = 0;
};

// Adds the time until it goes out of scope to `*sum`.
class OwnTimer {
 public:
  explicit OwnTimer(int64_t* sum) : sum_(sum), start_(NowNs()) {}
  ~OwnTimer() { *sum_ += NowNs() - start_; }
  OwnTimer(const OwnTimer&) = delete;
  OwnTimer& operator=(const OwnTimer&) = delete;

 private:
  int64_t* sum_;
  int64_t start_;
};

// A round runs in three phases. Prepare draws client c's operations and
// computes their reference answers; Serve sends them to the program, the
// only timed phase; Check compares the responses with the reference. The
// main thread runs Prepare and Check, a client thread runs Serve.
class Runner {
 public:
  virtual ~Runner() = default;
  // Loads the relations, builds the server, opens sessions, warms up.
  virtual bool Setup(SetupInfo* info, std::string* error) = 0;
  virtual int clients() const { return 1; }
  virtual void Prepare(int c, int round) = 0;
  virtual void Serve(int c, ClientLog& log, bool traced) = 0;
  virtual void Check(int c, ClientLog& log) = 0;
  // Whole-run checks after the last round.
  virtual bool Finish(std::string* /*why*/) { return true; }
  serve::QueryServer& server() { return *server_; }

 protected:
  // Writes `db` as TSV files under `dir` and loads them through
  // LoadTsvRelation into a fresh server.
  bool LoadServer(const RefDb& db, const std::string& dir, SetupInfo* info,
                  std::string* error) {
    std::vector<std::pair<std::string, std::string>> files;
    {
      OwnTimer own(&info->own_ns);
      std::filesystem::create_directories(dir);
      std::ofstream out(dir + "/R.tsv");
      for (const std::string& r : db.r) out << r << "\n";
      files.push_back({"R", dir + "/R.tsv"});
      if (!db.s.empty()) {
        std::ofstream pairs(dir + "/S.tsv");
        for (const auto& [x, y] : db.s) pairs << x << "\t" << y << "\n";
        files.push_back({"S", dir + "/S.tsv"});
      }
    }
    Result<strq::Alphabet> alphabet = strq::Alphabet::Create(kAlphabet);
    if (!alphabet.ok()) {
      *error = alphabet.status().ToString();
      return false;
    }
    strq::Database loaded(*alphabet);
    const int64_t start = NowNs();
    for (const auto& [name, path] : files) {
      strq::Status s = strq::LoadTsvRelation(loaded, name, path);
      if (!s.ok()) {
        *error = "loading " + path + ": " + s.ToString();
        return false;
      }
    }
    info->load_s = static_cast<double>(NowNs() - start) * 1e-9;
    server_ = std::make_unique<serve::QueryServer>(std::move(loaded));
    return true;
  }

  std::unique_ptr<serve::QueryServer> server_;
};

// read-warm: a Zipf-skewed mix over a small request pool from a few
// closed-loop sessions; after the warm-up every request is a cache hit.
class ReadWarm : public Runner {
 public:
  ReadWarm(uint64_t seed, const WorkloadSpec& spec, std::string dir)
      : seed_(seed), spec_(spec), dir_(std::move(dir)) {
    const int cores = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    clients_ = std::min(spec_.clients, cores);
    ranks_.resize(clients_);
    served_.resize(clients_);
  }
  int clients() const override { return clients_; }

  bool Setup(SetupInfo* info, std::string* error) override {
    {
      OwnTimer own(&info->own_ns);
      db_ = MakeDb(seed_, spec_.db);
    }
    if (!LoadServer(db_, dir_, info, error)) return false;
    {
      OwnTimer own(&info->own_ns);
      LiteralSource source(seed_, db_, /*fresh=*/false);
      pool_ = WarmPool(source);
      for (const Request& req : pool_) {
        texts_.push_back(FormulaText(req.spec));
        want_.push_back(Expect(req, db_));
      }
    }
    ClientLog warm;
    for (int c = 0; c < clients_; ++c) {
      sessions_.push_back(server_->OpenSession());
      for (size_t i = 0; i < pool_.size(); ++i) {
        Served s = ServeRequest(*sessions_[c], texts_[i], pool_[i], warm,
                                false, false);
        OwnTimer own(&info->own_ns);
        Record(warm, texts_[i], pool_[i], want_[i], s);
      }
    }
    if (warm.failed + warm.wrong > 0) {
      *error = "warm-up: " + warm.first_problem;
      return false;
    }
    return true;
  }

  void Prepare(int c, int round) override {
    SeededRng rng(seed_ * 1000003ULL + static_cast<uint64_t>(round) * 131ULL +
                  static_cast<uint64_t>(c) + 17);
    ranks_[c] = ZipfRanks(rng, static_cast<int>(pool_.size()), kZipfSkew,
                          spec_.ops_per_round);
    served_[c].clear();
    served_[c].reserve(ranks_[c].size());
  }

  void Serve(int c, ClientLog& log, bool traced) override {
    for (int i : ranks_[c]) {
      served_[c].push_back(ServeRequest(*sessions_[c], texts_[i], pool_[i],
                                        log, traced, false));
      Keep(log, pool_[i].kind, served_[c].back().ns, traced);
    }
  }

  void Check(int c, ClientLog& log) override {
    for (size_t j = 0; j < ranks_[c].size(); ++j) {
      const int i = ranks_[c][j];
      Record(log, texts_[i], pool_[i], want_[i], served_[c][j]);
    }
  }

 private:
  uint64_t seed_;
  WorkloadSpec spec_;
  std::string dir_;
  int clients_ = 1;
  RefDb db_;
  std::vector<Request> pool_;
  std::vector<std::string> texts_;
  std::vector<Expected> want_;
  std::vector<std::unique_ptr<serve::Session>> sessions_;
  std::vector<std::vector<int>> ranks_;      // per client, this round
  std::vector<std::vector<Served>> served_;  // per client, this round
};

// read-cold: one session; every request carries fresh literals.
class ReadCold : public Runner {
 public:
  ReadCold(uint64_t seed, const WorkloadSpec& spec, std::string dir)
      : seed_(seed), spec_(spec), dir_(std::move(dir)) {}

  bool Setup(SetupInfo* info, std::string* error) override {
    {
      OwnTimer own(&info->own_ns);
      db_ = MakeDb(seed_, spec_.db);
    }
    if (!LoadServer(db_, dir_, info, error)) return false;
    session_ = server_->OpenSession();
    // Warm-up: one round with its own literals, so the relation automata
    // are built before timing starts.
    {
      OwnTimer own(&info->own_ns);
      source_ = std::make_unique<LiteralSource>(seed_, db_, /*fresh=*/true);
      Prepare(0, 0);
    }
    ClientLog warm;
    Serve(0, warm, false);
    {
      OwnTimer own(&info->own_ns);
      Check(0, warm);
    }
    if (warm.failed + warm.wrong > 0) {
      *error = "warm-up: " + warm.first_problem;
      return false;
    }
    return true;
  }

  void Prepare(int /*c*/, int round) override {
    reqs_.clear();
    texts_.clear();
    want_.clear();
    served_.clear();
    for (int i = 0; i < spec_.ops_per_round; ++i) {
      reqs_.push_back(ColdRequest(*source_, round, i));
      texts_.push_back(FormulaText(reqs_.back().spec));
      want_.push_back(Expect(reqs_.back(), db_));
    }
  }

  void Serve(int /*c*/, ClientLog& log, bool traced) override {
    for (size_t i = 0; i < reqs_.size(); ++i) {
      served_.push_back(
          ServeRequest(*session_, texts_[i], reqs_[i], log, traced, traced));
      Keep(log, reqs_[i].kind, served_.back().ns, traced);
    }
  }

  void Check(int /*c*/, ClientLog& log) override {
    for (size_t i = 0; i < reqs_.size(); ++i) {
      Record(log, texts_[i], reqs_[i], want_[i], served_[i]);
    }
  }

 private:
  uint64_t seed_;
  WorkloadSpec spec_;
  std::string dir_;
  RefDb db_;
  std::unique_ptr<LiteralSource> source_;
  std::unique_ptr<serve::Session> session_;
  // This round.
  std::vector<Request> reqs_;
  std::vector<std::string> texts_;
  std::vector<Expected> want_;
  std::vector<Served> served_;
};

// update-stream: one writer commits small batches; after each commit the
// reader session refreshes and answers the standing queries. One operation
// is commit + refresh + probes.
class UpdateStream : public Runner {
 public:
  UpdateStream(uint64_t seed, const WorkloadSpec& spec, std::string dir)
      : seed_(seed), spec_(spec), dir_(std::move(dir)), rng_(seed * 31 + 5) {}

  bool Setup(SetupInfo* info, std::string* error) override {
    std::vector<Expected> want;
    {
      OwnTimer own(&info->own_ns);
      mirror_ = MakeDb(seed_, spec_.db);
    }
    if (!LoadServer(mirror_, dir_, info, error)) return false;
    {
      OwnTimer own(&info->own_ns);
      standing_ = StandingQueries();
      standing_[kProbeQuery].probe = {*mirror_.r.begin()};
      for (const Request& req : standing_) {
        texts_.push_back(FormulaText(req.spec));
        want.push_back(Expect(req, mirror_));
      }
    }
    session_ = server_->OpenSession();
    ClientLog warm;
    for (size_t q = 0; q < standing_.size(); ++q) {
      Served s = ServeRequest(*session_, texts_[q], standing_[q], warm, false,
                              false);
      OwnTimer own(&info->own_ns);
      Record(warm, texts_[q], standing_[q], want[q], s);
    }
    if (warm.failed + warm.wrong > 0) {
      *error = "warm-up: " + warm.first_problem;
      return false;
    }
    return true;
  }

  // Draws the round's batches and advances the mirror through them, keeping
  // the standing queries' reference answers after each.
  void Prepare(int /*c*/, int round) override {
    ops_.clear();
    for (int j = 0; j < spec_.ops_per_round; ++j) {
      const int k = round * spec_.ops_per_round + j;
      Op op;
      op.batch = UpdateBatch(rng_, mirror_.r, k, spec_.db.min_len,
                             spec_.db.max_len);
      for (const Write& w : op.batch) {
        op.deltas.push_back({"R", {w.value}, w.insert});
        if (w.insert) mirror_.r.insert(w.value); else mirror_.r.erase(w.value);
      }
      op.probes = standing_;
      op.probes[kProbeQuery].probe = UpdateProbe(op.batch);
      for (const Request& req : op.probes) {
        op.want.push_back(Expect(req, mirror_));
      }
      ops_.push_back(std::move(op));
    }
  }

  void Serve(int /*c*/, ClientLog& log, bool traced) override {
    for (Op& op : ops_) {
      const int64_t start = NowNs();
      SpanTimer commit(log, kSpanCommit, traced);
      Result<strq::CommitDelta> delta = server_->CommitDeltas(op.deltas);
      commit.Stop();
      if (!delta.ok()) op.commit_error = delta.status().ToString();
      SpanTimer refresh(log, kSpanRefresh, traced);
      session_->Refresh();
      refresh.Stop();
      for (size_t q = 0; q < op.probes.size(); ++q) {
        op.served.push_back(ServeRequest(*session_, texts_[q], op.probes[q],
                                         log, traced, traced));
      }
      const int64_t ns = NowNs() - start;
      if (!traced) {
        log.op_ns.push_back(ns);
        log.first_answer_ns.push_back(op.served[kProbeQuery].ns);
      }
    }
  }

  // One operation fails if the commit or any probe fails, and is wrong if
  // any probe's answer is.
  void Check(int /*c*/, ClientLog& log) override {
    for (const Op& op : ops_) {
      log.attempted += 1;
      if (!op.commit_error.empty()) {
        log.failed += 1;
        log.Problem("commit failed: " + op.commit_error);
        continue;
      }
      ClientLog probes;
      for (size_t q = 0; q < op.probes.size(); ++q) {
        Record(probes, texts_[q], op.probes[q], op.want[q], op.served[q]);
      }
      log.Digest(std::to_string(probes.digest));
      if (probes.failed > 0) {
        log.failed += 1;
        log.Problem(probes.first_problem);
      } else if (probes.wrong > 0) {
        log.wrong += 1;
        log.Problem(probes.first_problem);
      }
    }
  }

  bool Finish(std::string* why) override {
    std::unique_ptr<serve::Session> final_view = server_->OpenSession();
    const strq::Relation* r = final_view->snapshot().db().Find("R");
    TupleSet want;
    for (const std::string& v : mirror_.r) want.push_back({v});
    if (r == nullptr || r->tuples() != want) {
      *why = "relation R differs from the mirrored relation after the run";
      return false;
    }
    return true;
  }

 private:
  struct Op {
    std::vector<Write> batch;
    std::vector<strq::TupleDelta> deltas;
    std::vector<Request> probes;  // the standing queries, probe set
    std::vector<Expected> want;   // after the batch
    std::vector<Served> served;
    std::string commit_error;     // empty if the commit succeeded
  };

  uint64_t seed_;
  WorkloadSpec spec_;
  std::string dir_;
  SeededRng rng_;
  RefDb mirror_;  // advanced by Prepare before the round's commits are served
  std::vector<Request> standing_;
  std::vector<std::string> texts_;
  std::unique_ptr<serve::Session> session_;
  std::vector<Op> ops_;  // this round
};

// --- Closed-loop clients ---------------------------------------------------

// One persistent thread per client; RunRound starts every client's share of
// a round and waits for all of them. Threads start in set-up, never inside a
// timed operation.
class Clients {
 public:
  Clients(int n, std::function<void(int, bool)> body)
      : body_(std::move(body)) {
    for (int c = 0; c < n; ++c) threads_.emplace_back([this, c] { Loop(c); });
  }
  ~Clients() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  void RunRound(bool traced, obs::TraceContext ctx) {
    std::unique_lock<std::mutex> lock(mu_);
    traced_ = traced;
    ctx_ = ctx;
    pending_ = static_cast<int>(threads_.size());
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void Loop(int c) {
    uint64_t seen = 0;
    while (true) {
      bool traced;
      obs::TraceContext ctx;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        traced = traced_;
        ctx = ctx_;
      }
      if (traced) {
        obs::ScopedTraceContext scope(ctx);
        body_(c, true);
      } else {
        body_(c, false);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
      }
      done_cv_.notify_all();
    }
  }

  std::function<void(int, bool)> body_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  bool traced_ = false;
  obs::TraceContext ctx_;
  int pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// --- Per-layer accounting (traced rounds) ----------------------------------

// Every figure strq already exposes that the per-layer table uses.
struct LayerSample {
  std::map<std::string, int64_t> counters;
  double compile_ns = 0;
  double patch_ns = 0;
  strq::plan::Planner::Stats planner;
  strq::AtomCache::Stats atoms;
  strq::AutomatonStore::Stats store;
  strq::incr::Stats incr;
  serve::QueryServer::Stats server;
};

LayerSample Sample(serve::QueryServer& server) {
  LayerSample s;
  s.counters = obs::MetricsRegistry::Global().Snapshot();
  s.compile_ns = PhaseTotalNs(obs::kHistCompileNs);
  s.patch_ns = PhaseTotalNs(obs::kHistIncrPatchNs);
  s.planner = server.planner()->stats();
  s.atoms = server.atom_cache()->stats();
  s.store = server.atom_cache()->store().stats();
  if (server.incremental() != nullptr) s.incr = server.incremental()->stats();
  s.server = server.stats();
  return s;
}

// Sums of (after - before) over the traced rounds.
struct LayerTotals {
  std::map<std::string, double> d;
  double program_span_ns[2] = {0, 0};  // "plan", "eval.enumerate"

  void Add(const LayerSample& a, const LayerSample& b) {
    for (const auto& [name, v] : b.counters) {
      auto it = a.counters.find(name);
      d[name] += static_cast<double>(v - (it == a.counters.end() ? 0
                                                                 : it->second));
    }
    d["phase.compile_ns"] += b.compile_ns - a.compile_ns;
    d["incr.patch_ns"] += b.patch_ns - a.patch_ns;
    d["planner.cache_hits"] += b.planner.cache_hits - a.planner.cache_hits;
    d["planner.cache_misses"] +=
        b.planner.cache_misses - a.planner.cache_misses;
    d["planner.rules_fired"] += b.planner.rules_fired - a.planner.rules_fired;
    d["atoms.hits"] += b.atoms.hits - a.atoms.hits;
    d["atoms.misses"] += b.atoms.misses - a.atoms.misses;
    d["atoms.evictions"] += b.atoms.evictions - a.atoms.evictions;
    d["store.op_hits"] += b.store.op_hits - a.store.op_hits;
    d["store.op_misses"] += b.store.op_misses - a.store.op_misses;
    d["incr.patches"] += b.incr.patches - a.incr.patches;
    d["incr.recompiles"] += b.incr.recompiles - a.incr.recompiles;
    d["incr.compactions"] += b.incr.compactions - a.incr.compactions;
    d["incr.answer_patches"] +=
        b.incr.answer_patches - a.incr.answer_patches;
    d["server.dedup"] +=
        b.server.inflight_dedup_hits - a.server.inflight_dedup_hits;
    d["server.reclaimed"] +=
        b.server.entries_reclaimed - a.server.entries_reclaimed;
  }
  double Get(const std::string& name) const {
    auto it = d.find(name);
    return it == d.end() ? 0 : it->second;
  }
};

// Sums the durations of the program's own spans named "plan" and
// "eval.enumerate" in a trace tree.
void SumProgramSpans(const obs::TraceNode& node, double out[2]) {
  if (node.name == "plan") out[0] += node.seconds * 1e9;
  if (node.name == "eval.enumerate") out[1] += node.seconds * 1e9;
  for (const auto& child : node.children) SumProgramSpans(*child, out);
}

// --- Statistics and output -------------------------------------------------

double Quantile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << FormatNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// A fixed computation owned by the benchmark (edit distances between fixed
// strings), timed between phases so that a drift of the host's speed can be
// told apart from a change in the program. Best of three.
double HostReferenceMs() {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    SeededRng rng(12345);
    int64_t acc = 0;
    for (int i = 0; i < 4000; ++i) {
      acc += Levenshtein(rng.String(kAlphabet, 20, 40),
                         rng.String(kAlphabet, 20, 40));
    }
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    if (acc > 0 && (rep == 0 || ms < best)) best = ms;
  }
  return best;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void WriteTrace(const std::string& path, const std::vector<ClientLog>& logs,
                int64_t epoch_ns) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const ClientLog& log : logs) {
    for (const BenchSpan& s : log.spans) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"cat\": \"e2ebench\", \"ph\": "
                    "\"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": "
                    "%.3f}",
                    first ? "" : ",", kSpanNames[s.name], log.client + 1,
                    static_cast<double>(s.start_ns - epoch_ns) * 1e-3,
                    static_cast<double>(s.dur_ns) * 1e-3);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
}

struct Args {
  WorkloadId workload = WorkloadId::kReadWarm;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      std::optional<WorkloadId> id = ParseWorkload(value);
      if (!id) return false;
      args->workload = *id;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::max(1, std::atoi(value.c_str()));
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int Run(int argc, char** argv) {
  const int64_t process_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload read-warm|read-cold|update-stream"
                 " --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // Untraced unless --trace 1 (and then only in traced rounds), whatever
  // STRQ_OBS says.
  obs::SetEnabled(false);

  const WorkloadSpec spec = SpecFor(args.workload);
  const std::string name = WorkloadName(args.workload);
  const std::string base = ".bench_build/e2ebench";
  const std::string data_dir = base + "/data/" + name + "-" +
                               std::to_string(args.seed) + "-" +
                               std::to_string(getpid());
  std::unique_ptr<Runner> runner;
  switch (args.workload) {
    case WorkloadId::kReadWarm:
      runner = std::make_unique<ReadWarm>(args.seed, spec, data_dir);
      break;
    case WorkloadId::kReadCold:
      runner = std::make_unique<ReadCold>(args.seed, spec, data_dir);
      break;
    case WorkloadId::kUpdateStream:
      runner = std::make_unique<UpdateStream>(args.seed, spec, data_dir);
      break;
  }

  SetupInfo info;
  std::string error;
  if (!runner->Setup(&info, &error)) {
    std::fprintf(stderr, "e2ebench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::vector<ClientLog> logs(runner->clients());
  for (int c = 0; c < runner->clients(); ++c) logs[c].client = c;
  Clients clients(runner->clients(), [&](int c, bool traced) {
    runner->Serve(c, logs[c], traced);
  });
  // One cold set-up from the process's start, less the benchmark's own
  // input generation, TSV writing and reference answers.
  const double setup_s =
      static_cast<double>(NowNs() - process_start - info.own_ns) * 1e-9;
  std::error_code ignored;
  std::filesystem::remove_all(data_dir, ignored);

  const double host_ref_before = HostReferenceMs();
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds * spec.rounds_per_second)));
  // A run on a host many times slower than expected still ends in time:
  // whole rounds stop once this much wall time has passed.
  const int64_t wall_cap_ns =
      std::min<int64_t>(args.seconds * 6LL, 120) * 1'000'000'000;
  LayerTotals totals;
  // Wall time of the Serve phases and the operations they completed, for
  // untraced [0] and traced [1] rounds.
  int64_t window_ns[2] = {0, 0};
  int64_t window_ops[2] = {0, 0};
  auto attempted_so_far = [&] {
    int64_t n = 0;
    for (const ClientLog& log : logs) n += log.attempted;
    return n;
  };
  const int64_t timed_start = NowNs();
  int rounds_run = 0;
  for (int round = 0; round < rounds; ++round) {
    if (NowNs() - timed_start > wall_cap_ns && round % 2 == 0) break;
    const bool traced = args.trace && round % 2 == 1;
    for (int c = 0; c < runner->clients(); ++c) runner->Prepare(c, round);
    const int64_t before_ops = attempted_so_far();
    int64_t round_ns = 0;
    if (!traced) {
      const int64_t start = NowNs();
      clients.RunRound(false, obs::TraceContext{});
      round_ns = NowNs() - start;
    } else {
      obs::SetEnabled(true);
      LayerSample before = Sample(runner->server());
      {
        obs::TraceSession session("round");
        const obs::TraceContext ctx{session.generation(), session.root_id()};
        const int64_t start = NowNs();
        clients.RunRound(true, ctx);
        round_ns = NowNs() - start;
        std::unique_ptr<obs::TraceNode> tree = session.Take();
        SumProgramSpans(*tree, totals.program_span_ns);
      }
      LayerSample after = Sample(runner->server());
      obs::SetEnabled(false);
      totals.Add(before, after);
    }
    for (int c = 0; c < runner->clients(); ++c) runner->Check(c, logs[c]);
    window_ns[traced] += round_ns;
    window_ops[traced] += attempted_so_far() - before_ops;
    ++rounds_run;
  }
  const double host_ref_after = HostReferenceMs();

  std::string why;
  bool correct = runner->Finish(&why);
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<int64_t> op_ns;
  std::vector<int64_t> first_ns;
  std::array<std::vector<int64_t>, kNumSpanNames> span_ns;
  std::vector<int64_t> closure_like_ns;
  std::vector<int64_t> pair_like_ns;
  std::array<double, kNumKinds> kind_call{};
  std::array<double, kNumKinds> kind_compile{};
  uint64_t digest = 0;
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    if (log.wrong > 0) correct = false;
    if (!log.first_problem.empty()) {
      std::fprintf(stderr, "e2ebench: client %d: %s\n", log.client,
                   log.first_problem.c_str());
    }
    op_ns.insert(op_ns.end(), log.op_ns.begin(), log.op_ns.end());
    first_ns.insert(first_ns.end(), log.first_answer_ns.begin(),
                    log.first_answer_ns.end());
    for (int n = 0; n < kNumSpanNames; ++n) {
      span_ns[n].insert(span_ns[n].end(), log.span_ns[n].begin(),
                        log.span_ns[n].end());
    }
    closure_like_ns.insert(closure_like_ns.end(), log.closure_like_ns.begin(),
                           log.closure_like_ns.end());
    pair_like_ns.insert(pair_like_ns.end(), log.pair_like_ns.begin(),
                        log.pair_like_ns.end());
    for (int k = 0; k < kNumKinds; ++k) {
      kind_call[k] += log.kind_call_ns[k];
      kind_compile[k] += log.kind_compile_ns[k];
    }
    digest = digest * 1099511628211ULL ^ log.digest;
  }
  if (!why.empty()) std::fprintf(stderr, "e2ebench: %s\n", why.c_str());
  // Operations completed per second of the rounds' Serve phases: all
  // sessions' operations over the wall time from a round's start until its
  // last session is done. Drawing requests and checking answers fall
  // outside these windows.
  const double ops_per_s = Ratio(static_cast<double>(window_ops[0]),
                                 static_cast<double>(window_ns[0]) * 1e-9);

  std::fprintf(stderr,
               "e2ebench: workload=%s seed=%llu rounds=%d ops=%lld "
               "answers_digest=%016llx host_ref_ms before=%.3f after=%.3f\n",
               name.c_str(), static_cast<unsigned long long>(args.seed),
               rounds_run, static_cast<long long>(attempted),
               static_cast<unsigned long long>(digest), host_ref_before,
               host_ref_after);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"latency_p50_ms", Quantile(op_ns, 0.5) * 1e-6, "ms"},
        {"latency_p99_ms", Quantile(op_ns, 0.99) * 1e-6, "ms"},
        {"first_answer_p50_ms", Quantile(first_ns, 0.5) * 1e-6, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    // In-program phase totals may not exceed the benchmark's own spans
    // around the same calls: per request kind where one session runs them
    // all, in total where several sessions share the histograms.
    double call_total = 0;
    double compile_total = totals.Get("phase.compile_ns");
    for (int k = 0; k < kNumKinds; ++k) {
      call_total += kind_call[k];
      if (runner->clients() == 1 && kind_compile[k] > kind_call[k] + 1e3) {
        correct = false;
        std::fprintf(stderr,
                     "e2ebench: phase.compile_ns %.0f exceeds the %s spans "
                     "%.0f\n",
                     kind_compile[k], KindName(static_cast<Kind>(k)),
                     kind_call[k]);
      }
    }
    // The serving path observes phase.compile_ns only; phase.plan_ns and
    // phase.enumerate_ns stay empty outside ExplainAnalyze, so the plan and
    // enumerate totals come from the program's "plan" / "eval.enumerate"
    // spans instead.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    std::fprintf(stderr,
                 "e2ebench: samples phase.compile_ns=%lld phase.plan_ns=%lld "
                 "phase.enumerate_ns=%lld\n",
                 static_cast<long long>(registry.Hist(obs::kHistCompileNs).count),
                 static_cast<long long>(registry.Hist(obs::kHistPlanNs).count),
                 static_cast<long long>(
                     registry.Hist(obs::kHistEnumerateNs).count));
    const double plan_ns = totals.program_span_ns[0];
    const double enumerate_ns = totals.program_span_ns[1];
    if (compile_total > call_total + 1e3 || plan_ns > call_total + 1e3 ||
        enumerate_ns > call_total + 1e3) {
      correct = false;
      std::fprintf(stderr,
                   "e2ebench: in-program totals (compile %.0f, plan %.0f, "
                   "enumerate %.0f ns) exceed the session-call spans %.0f\n",
                   compile_total, plan_ns, enumerate_ns, call_total);
    }
    auto median_ms = [&](SpanName n) { return Quantile(span_ns[n], 0.5) * 1e-6; };
    const double traced_ops_per_s =
        Ratio(static_cast<double>(window_ops[1]),
              static_cast<double>(window_ns[1]) * 1e-9);
    const strq::AutomatonStore& store = runner->server().atom_cache()->store();
    const obs::Histogram::Snapshot queue_wait =
        obs::MetricsRegistry::Global().Hist(obs::kHistServeQueueWaitNs);
    const double lazy_created = totals.Get(obs::kLazyStatesCreated);
    const double lazy_hits = totals.Get(obs::kLazyCacheHits);
    metrics = {
        {"logic.parse_us", Quantile(span_ns[kSpanParse], 0.5) * 1e-3, "us"},
        {"plan.cache_hit_ratio",
         Ratio(totals.Get("planner.cache_hits"),
               totals.Get("planner.cache_hits") +
                   totals.Get("planner.cache_misses")),
         "ratio"},
        {"plan.plan_ms", plan_ns * 1e-6, "ms"},
        {"plan.rules_fired", totals.Get("planner.rules_fired"), "count"},
        {"mta.atom_cache_hit_ratio",
         Ratio(totals.Get("atoms.hits"),
               totals.Get("atoms.hits") + totals.Get("atoms.misses")),
         "ratio"},
        {"mta.atom_builds", totals.Get("atoms.misses"), "count"},
        {"mta.intermediate_states", totals.Get(obs::kMtaIntermediateStates),
         "count"},
        {"mta.atom_cache_evictions", totals.Get("atoms.evictions"), "count"},
        {"automata.product_states_explored",
         totals.Get(obs::kDfaProductStatesExplored), "count"},
        {"automata.product_transitions",
         totals.Get(obs::kDfaProductTransitions), "count"},
        {"automata.determinizations", totals.Get(obs::kDfaDeterminizations),
         "count"},
        {"automata.minimizations", totals.Get(obs::kDfaMinimizations),
         "count"},
        {"automata.store_op_hit_ratio",
         Ratio(totals.Get("store.op_hits"),
               totals.Get("store.op_hits") + totals.Get("store.op_misses")),
         "ratio"},
        {"automata.store_mb", static_cast<double>(store.stats().bytes) / 1e6,
         "MB"},
        {"automata.store_entries", static_cast<double>(store.unique_size()),
         "count"},
        {"eval.compile_ms", compile_total * 1e-6, "ms"},
        {"eval.enumerate_ms", enumerate_ns * 1e-6, "ms"},
        {"eval.tuples_enumerated", totals.Get(obs::kEvalTuplesEnumerated),
         "count"},
        {"eval.materialize_p50_ms", median_ms(kSpanQuery), "ms"},
        {"eval.sentence_p50_ms", median_ms(kSpanSentence), "ms"},
        {"eval.like_closure_p50_ms", Quantile(closure_like_ns, 0.5) * 1e-6,
         "ms"},
        {"eval.like_pair_p50_ms", Quantile(pair_like_ns, 0.5) * 1e-6, "ms"},
        {"lazy.contains_p50_ms", median_ms(kSpanContains), "ms"},
        {"lazy.witness_p50_ms", median_ms(kSpanWitness), "ms"},
        {"lazy.topk_p50_ms", median_ms(kSpanTopK), "ms"},
        {"lazy.states_created", lazy_created, "count"},
        {"lazy.cache_hit_ratio",
         Ratio(lazy_hits, lazy_hits + lazy_created), "ratio"},
        {"safety.is_safe_p50_ms", median_ms(kSpanIsSafe), "ms"},
        {"incr.patch_ratio",
         Ratio(totals.Get("incr.patches"),
               totals.Get("incr.patches") + totals.Get("incr.recompiles")),
         "ratio"},
        {"incr.answer_patches", totals.Get("incr.answer_patches"), "count"},
        {"incr.recompiles", totals.Get("incr.recompiles"), "count"},
        {"incr.compactions", totals.Get("incr.compactions"), "count"},
        {"incr.patch_ms", totals.Get("incr.patch_ns") * 1e-6, "ms"},
        {"relational.commit_p50_ms", median_ms(kSpanCommit), "ms"},
        {"relational.load_s", info.load_s, "s"},
        {"serve.refresh_p50_us", Quantile(span_ns[kSpanRefresh], 0.5) * 1e-3,
         "us"},
        {"serve.queue_wait_p99_us", queue_wait.p99 * 1e-3, "us"},
        {"serve.inflight_dedup_hits", totals.Get("server.dedup"), "count"},
        {"serve.entries_reclaimed", totals.Get("server.reclaimed"), "count"},
        {"serve.self_ms", (call_total - compile_total - enumerate_ns) * 1e-6,
         "ms"},
        {"obs.overhead_pct",
         100.0 * (1.0 - Ratio(traced_ops_per_s, ops_per_s)), "%"},
    };
    const std::string trace_dir = base + "/traces";
    std::filesystem::create_directories(trace_dir, ignored);
    const std::string stem =
        trace_dir + "/" + name + "-" + std::to_string(args.seed);
    WriteTrace(stem + ".trace.json", logs, timed_start);
    std::ofstream table(stem + ".layers.tsv");
    table << "metric\tvalue\tunit\n";
    for (const Metric& m : metrics) {
      table << m.name << "\t" << FormatNumber(m.value) << "\t" << m.unit
            << "\n";
      std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Run(argc, argv); }
