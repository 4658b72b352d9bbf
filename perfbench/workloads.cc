#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "eval/evaluator.h"
#include "eval/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "server/client.h"
#include "server/concurrency.h"
#include "server/server.h"
#include "storage/recovery.h"
#include "storage/version.h"
#include "storage/wal.h"
#include "typing/planner.h"
#include "typing/type_checker.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace perfbench {

namespace {

// ---- Statement texts ------------------------------------------------------

/// The B6 set-oriented paper queries (bench/bench_paper_queries.cc).
struct PathQuery {
  const char* name;
  const char* text;
  /// Reads Employee.Salary, which the mixed writer updates: in mixed
  /// its reply is only required to succeed, not to match.
  bool reads_salary;
};

const PathQuery kPathQueries[] = {
    {"Q3", "SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']",
     false},
    {"Q4",
     "SELECT Z FROM Employee X, Automobile Y "
     "WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
     false},
    {"Q5", "SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']", false},
    {"Q6", "SELECT $X WHERE TurboEngine subclassOf $X", false},
    {"Q7", "SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20", false},
    {"Q8",
     "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] "
     "and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} "
     "and X.President.Age < 30",
     false},
    {"Q10",
     "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 "
     "and X.Salary < 35000",
     true},
    {"Q11",
     "SELECT X.Name, W.Salary FROM Company X "
     "WHERE X.Divisions.Employees[W]",
     true},
    {"Q12",
     "SELECT X, Y FROM Company X "
     "WHERE X.Name =some X.Divisions.Employees[Y].Name",
     false},
};
constexpr size_t kNumPath = std::size(kPathQueries);

/// The B16 `=all` joins (bench/bench_exec.cc).
const char* const kJoins[] = {
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary =all Y.Age",
};

/// Durable writes between auto-checkpoints (ServerOptions), the same
/// flush policy on every workload.
constexpr uint64_t kCheckpointEvery = 64;
/// analytic: one statement in this many is a join.
constexpr size_t kJoinEvery = 50;
constexpr double kZipfExponent = 0.99;
/// Browse warm pass: enough statements to fill the 64-entry plan cache.
constexpr size_t kBrowseWarm = 64;
/// Measurements of a sampled statement before the stage-sum check
/// counts it as outside kStageShareBound.
constexpr int kStageAttempts = 3;
/// Closed-loop reader clients on every workload.
constexpr int kReaders = 2;

/// Closed-loop writer clients: one on mixed, none elsewhere.
int Writers(WorkloadKind kind) {
  return kind == WorkloadKind::kMixed ? 1 : 0;
}

std::string BrowseText(const std::string& emp, size_t shape) {
  switch (shape) {
    case 0:
      return "SELECT T WHERE " + emp + ".Salary[T]";
    case 1:
      return "SELECT C WHERE " + emp + ".Residence.City[C]";
    default:
      return "SELECT N WHERE " + emp + ".FamMembers.Name[N]";
  }
}

std::string UpdateText(const std::string& emp, int64_t salary) {
  return "UPDATE CLASS Employee SET " + emp + ".Salary = " +
         std::to_string(salary);
}

/// A statement a client sends, with what checking its reply requires.
struct Stmt {
  std::string text;
  bool is_write = false;
  bool is_join = false;
  /// Reply must equal the reference answer (else: must only succeed).
  bool exact = true;
  /// Writes: the employee and the value written.
  std::string employee;
  int64_t salary = 0;
};

/// Everything shared by the statement streams of one run.
struct Universe {
  WorkloadKind kind;
  uint64_t seed;
  /// Employees in zipf rank order (a seed-dependent permutation).
  std::vector<std::string> employees;
  ZipfSampler zipf;

  Universe(WorkloadKind k, uint64_t s, std::vector<std::string> emps)
      : kind(k),
        seed(s),
        employees(std::move(emps)),
        zipf(employees.size(), kZipfExponent) {}
};

/// One client's deterministic statement sequence: a function of the
/// seed, the window and the client index only.
class Stream {
 public:
  Stream(const Universe* u, uint64_t window, uint64_t client)
      : u_(u),
        rng_(u->seed * 0x9E3779B97F4A7C15ull + window * 1000003ull + client +
             1),
        client_(client) {
    path_offset_ = rng_.Uniform(kNumPath);
    join_phase_ = rng_.Uniform(2);
  }

  Stmt NextRead() {
    Stmt s;
    const uint64_t k = count_++;
    switch (u_->kind) {
      case WorkloadKind::kBrowse: {
        const std::string& emp = u_->employees[u_->zipf.Next(&rng_)];
        const size_t shape = rng_.Uniform(3);
        s.text = BrowseText(emp, shape);
        return s;
      }
      case WorkloadKind::kAnalytic:
        // Clients take their join slots half a cycle apart.
        if ((k + client_ * (kJoinEvery / 2)) % kJoinEvery ==
            kJoinEvery - 1) {
          const size_t j = (join_phase_ + joins_++) % 2;
          s.text = kJoins[j];
          s.is_join = true;
          return s;
        }
        [[fallthrough]];
      case WorkloadKind::kMixed: {
        const PathQuery& q = kPathQueries[(path_offset_ + k) % kNumPath];
        s.text = q.text;
        s.exact = !(u_->kind == WorkloadKind::kMixed && q.reads_salary);
        return s;
      }
    }
    return s;
  }

  Stmt NextWrite() {
    Stmt s;
    s.is_write = true;
    s.employee = u_->employees[u_->zipf.Next(&rng_)];
    s.salary = rng_.Range(20000, 120000);
    s.text = UpdateText(s.employee, s.salary);
    return s;
  }

 private:
  const Universe* u_;
  Rng rng_;
  uint64_t client_;
  uint64_t count_ = 0;
  uint64_t joins_ = 0;
  uint64_t path_offset_ = 0;
  uint64_t join_phase_ = 0;
};

/// The fixed texts a warm pass sends (and the reference must cover).
std::vector<std::string> FixedTexts(WorkloadKind kind) {
  std::vector<std::string> texts;
  if (kind == WorkloadKind::kBrowse) return texts;
  for (const PathQuery& q : kPathQueries) texts.push_back(q.text);
  if (kind == WorkloadKind::kAnalytic) {
    for (const char* j : kJoins) texts.push_back(j);
  }
  return texts;
}

// ---- Instances ------------------------------------------------------------

workload::WorkloadParams Params(const Config& config) {
  workload::WorkloadParams params;
  params.seed = config.seed;
  return params.Scaled(config.scale);
}

Status Populate(Database* db, const Config& config) {
  XSQL_RETURN_IF_ERROR(workload::BuildFig1Schema(db));
  return workload::GenerateFig1Data(db, Params(config)).status();
}

/// Reference answers from an in-process Session on an identically
/// generated instance, computed before any timing starts.
struct Reference {
  std::map<std::string, std::string> replies;
  std::vector<std::string> employees;  // zipf rank order
};

Result<Reference> BuildReference(const Config& config) {
  Reference ref;
  Database db;
  XSQL_RETURN_IF_ERROR(Populate(&db, config));
  Session session(&db);
  for (const Oid& e : db.Extent(workload::fig1::Employee())) {
    ref.employees.push_back(e.ToString());
  }
  std::sort(ref.employees.begin(), ref.employees.end());
  // Popularity must not follow generation order: permute by the seed.
  Rng rng(config.seed ^ 0x5DEECE66Dull);
  for (size_t i = ref.employees.size(); i > 1; --i) {
    std::swap(ref.employees[i - 1], ref.employees[rng.Uniform(i)]);
  }
  std::vector<std::string> texts = FixedTexts(config.kind);
  if (config.kind == WorkloadKind::kBrowse) {
    for (const std::string& e : ref.employees) {
      for (size_t shape = 0; shape < 3; ++shape) {
        texts.push_back(BrowseText(e, shape));
      }
    }
  }
  for (const std::string& text : texts) {
    Result<EvalOutput> out = session.Execute(text);
    if (!out.ok()) {
      return Status::RuntimeError("reference failed on '" + text +
                                  "': " + out.status().ToString());
    }
    ref.replies[text] = RenderEvalOutput(*out);
  }
  return ref;
}

// ---- A live server --------------------------------------------------------

struct Live {
  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  std::string dir;
  std::unique_ptr<storage::DurableDatabase> dd;
  std::unique_ptr<server::Server> server;
  /// Reader clients first, then writer clients.
  std::vector<server::Client> clients;

  ~Live() { Stop(); }
  void Stop() {
    for (server::Client& c : clients) (void)c.Quit();
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    dd.reset();
  }
};

/// Run-wide bookkeeping of answers checked and writes acknowledged.
struct Ledger {
  std::mutex mu;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// Last acknowledged Salary per written employee.
  std::map<std::string, int64_t> acked;

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Checks one reply; returns whether it was right.
bool CheckReply(const Stmt& s, const Result<std::string>& reply,
                const Reference& ref, Ledger* ledger) {
  if (!reply.ok()) {
    ledger->Fail("'" + s.text + "' failed: " + reply.status().ToString());
    return false;
  }
  if (s.is_write || !s.exact) return true;
  auto it = ref.replies.find(s.text);
  if (it == ref.replies.end()) {
    ledger->Fail("'" + s.text + "' has no reference answer");
    return false;
  }
  if (*reply != it->second) {
    ledger->Fail("'" + s.text + "' differs from the reference answer");
    return false;
  }
  return true;
}

Result<std::unique_ptr<Live>> SetUp(const Config& config, const Universe& u,
                                    const Reference& ref, int index,
                                    Ledger* ledger) {
  auto live = std::make_unique<Live>();
  live->dir = config.work_dir + "/db-" + std::to_string(index);
  std::filesystem::remove_all(live->dir);
  XSQL_ASSIGN_OR_RETURN(live->dd, storage::DurableDatabase::Open(live->dir));
  XSQL_RETURN_IF_ERROR(Populate(&live->dd->db(), config));
  XSQL_RETURN_IF_ERROR(live->dd->Checkpoint());
  server::ServerOptions options;
  options.checkpoint_every = kCheckpointEvery;
  // Start() builds the ConcurrencyManager, which prewarms the active
  // domain before installing the first readable version.
  XSQL_ASSIGN_OR_RETURN(live->server,
                        server::Server::Start(live->dd.get(), options));
  for (int i = 0; i < kReaders + Writers(config.kind); ++i) {
    XSQL_ASSIGN_OR_RETURN(server::Client c,
                          server::Client::Connect("127.0.0.1",
                                                  live->server->port()));
    live->clients.push_back(std::move(c));
  }
  // Warm pass: fill the plan cache with the fixed texts (browse: with
  // one cache's worth of its own statement stream).
  // No write has run yet, so every warm reply must match exactly.
  std::vector<Stmt> warm;
  for (const std::string& text : FixedTexts(config.kind)) {
    Stmt s;
    s.text = text;
    warm.push_back(s);
  }
  if (config.kind == WorkloadKind::kBrowse) {
    Stream stream(&u, /*window=*/999, /*client=*/0);
    for (size_t i = 0; i < kBrowseWarm; ++i) warm.push_back(stream.NextRead());
  }
  for (const Stmt& s : warm) {
    ++ledger->attempted;
    (void)CheckReply(s, live->clients[0].Execute(s.text), ref, ledger);
  }
  return live;
}

// ---- Timed window ---------------------------------------------------------

struct Window {
  LatencyHistogram reads;
  LatencyHistogram writes;
  uint64_t reads_ok = 0;
  uint64_t writes_ok = 0;
  double elapsed_s = 0;
  int64_t live_versions_max = 0;
  /// CPU time of the live-version poller, and of the whole process,
  /// during the window (traced runs only).
  double monitor_cpu_s = 0;
  double process_cpu_s = 0;
};

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

/// Runs the timed window. With `monitor`, a poller samples the
/// live-version gauge every 5 ms; it is the only instrumentation that
/// runs inside the window.
Window RunWindow(const Config& config, const Universe& u,
                 const Reference& ref, Live* live, bool monitor,
                 Ledger* ledger) {
  Window w;
  std::mutex mu;
  std::atomic<bool> stop_monitor{false};
  const double process_cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(
                  static_cast<int64_t>(config.seconds * 1e6));
  std::thread monitor_thread;
  if (monitor) {
    monitor_thread = std::thread([&] {
      while (!stop_monitor.load()) {
        const int64_t v = storage::VersionChain::live_versions();
        w.live_versions_max = std::max(w.live_versions_max, v);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      w.monitor_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    });
  }
  std::vector<std::thread> threads;
  const int total = kReaders + Writers(config.kind);
  for (int c = 0; c < total; ++c) {
    threads.emplace_back([&, c] {
      const bool writer = c >= kReaders;
      Stream stream(&u, /*window=*/0, static_cast<uint64_t>(c));
      server::Client& client = live->clients[c];
      LatencyHistogram lat;
      uint64_t ok = 0, attempted = 0;
      std::map<std::string, int64_t> acked;
      while (Clock::now() < deadline) {
        const Stmt s = writer ? stream.NextWrite() : stream.NextRead();
        const Clock::time_point t0 = Clock::now();
        Result<std::string> reply = client.Execute(s.text);
        lat.Add(MicrosSince(t0));
        ++attempted;
        if (CheckReply(s, reply, ref, ledger)) {
          ++ok;
          if (writer) acked[s.employee] = s.salary;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      ledger->attempted += attempted;
      (writer ? w.writes_ok : w.reads_ok) += ok;
      (writer ? w.writes : w.reads).Merge(lat);
      // A single writer: its last acknowledgement per employee wins.
      for (const auto& [emp, salary] : acked) ledger->acked[emp] = salary;
    });
  }
  for (std::thread& t : threads) t.join();
  w.elapsed_s = MicrosSince(start) / 1e6;
  stop_monitor.store(true);
  if (monitor_thread.joinable()) monitor_thread.join();
  w.process_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
  return w;
}

void AddWindowMetrics(const Window& w, bool has_writes, MetricSet* m) {
  m->Add("read_qps", static_cast<double>(w.reads_ok) / w.elapsed_s, "1/s",
         "n=" + std::to_string(w.reads.count()));
  m->AddPercentile("read_p50_ms", w.reads.Quantile(0.50), 1e-3, "ms");
  m->AddPercentile("read_p90_ms", w.reads.Quantile(0.90), 1e-3, "ms");
  m->AddPercentile("read_p99_ms", w.reads.Quantile(0.99), 1e-3, "ms");
  if (!has_writes) return;
  m->Add("write_qps", static_cast<double>(w.writes_ok) / w.elapsed_s, "1/s",
         "n=" + std::to_string(w.writes.count()));
  m->AddPercentile("write_p50_ms", w.writes.Quantile(0.50), 1e-3, "ms");
  m->AddPercentile("write_p90_ms", w.writes.Quantile(0.90), 1e-3, "ms");
}

// ---- Registry deltas ------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

obs::Histogram::Sample HistogramSample(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name).TakeSample();
}

/// The counters the traced window reads, sampled before and after.
const char* const kCounters[] = {
    "xsql.plan.cache_hits",        "xsql.plan.cache_misses",
    "xsql.plan.cache_invalidations", "xsql.exec.batch_filtered",
    "xsql.exec.batch_rows",        "xsql.path.values",
    "xsql.eval.rows",              "xsql.exec.parallel_queries",
    "xsql.mvcc.cow_bytes",         "xsql.storage.fsyncs",
    "xsql.storage.wal_bytes",      "xsql.storage.checkpoints",
    "xsql.server.shed_statements",
};
const char* const kHistograms[] = {
    "xsql.server.latch_wait_us",
    "xsql.storage.group_commit_batch_size",
};

struct RegistryState {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, obs::Histogram::Sample> histograms;

  static RegistryState Take() {
    RegistryState s;
    for (const char* c : kCounters) s.counters[c] = CounterValue(c);
    for (const char* h : kHistograms) s.histograms[h] = HistogramSample(h);
    return s;
  }
};

struct RegistryDelta {
  std::map<std::string, double> counters;
  std::map<std::string, obs::Histogram::Sample> histograms;

  double operator[](const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

RegistryDelta Diff(const RegistryState& before, const RegistryState& after) {
  RegistryDelta d;
  for (const auto& [name, v] : after.counters) {
    d.counters[name] = static_cast<double>(v - before.counters.at(name));
  }
  for (const auto& [name, a] : after.histograms) {
    const obs::Histogram::Sample& b = before.histograms.at(name);
    obs::Histogram::Sample s;
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
      s.buckets[i] = a.buckets[i] - b.buckets[i];
      s.count += s.buckets[i];
    }
    s.sum = a.sum - b.sum;
    d.histograms[name] = s;
  }
  return d;
}

// ---- Traced replay --------------------------------------------------------

/// Repetitions for a measurement whose first reading took `us`: short
/// calls are repeated more often so their median is steady. Never fewer
/// than 3, so one disturbed repetition cannot decide a median.
int RepsFor(double us) {
  return us < 100 ? 9 : us < 1000 ? 5 : 3;
}

template <typename F>
double MedianOf(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  return Median(v);
}

/// Times `f()` once, in microseconds.
template <typename F>
double Time(F&& f) {
  const Clock::time_point t = Clock::now();
  f();
  return MicrosSince(t);
}

/// Self times of one sampled read statement, in microseconds: of one
/// repetition, or their medians over the repetitions. Both paths a
/// statement can take through ConcurrencyManager::Execute are measured:
/// a plan-cache miss (parse + typecheck + plan) and a hit.
struct StageSample {
  std::string text;
  bool is_join = false;
  double core_miss = 0;  // ConcurrencyManager::Execute, plan cache cleared
  double core_hit = 0;   // ConcurrencyManager::Execute, plan cached
  double pin = 0;        // session lookup + PinSnapshot
  double classify = 0;   // ClassifyStatement + ClassifyMode
  double session = 0;    // per-statement snapshot Session (ctor + dtor)
  double parse = 0;      // ParseAndResolve
  double typecheck = 0;  // TypeChecker::Check (strict)
  double plan = 0;       // Planner::Plan
  double exec = 0;       // Session::ExecuteReadOnly, fresh Session,
                         // plan cached
  double render = 0;     // RenderEvalOutput
  double wire = 0;       // Client::Execute - ConcurrencyManager::Execute
  /// Stage-sum check: 1 - stage sum / core, for each path.
  double miss_unaccounted = 0;
  double hit_unaccounted = 0;

  double HitSum() const { return pin + classify + session + exec; }
  double MissSum() const { return HitSum() + parse + typecheck + plan; }
  /// The path mix of the timed window: `hit_ratio` of the statements
  /// found their plan cached.
  double Core(double hit_ratio) const {
    return hit_ratio * core_hit + (1 - hit_ratio) * core_miss;
  }
  double Sum(double hit_ratio) const {
    return hit_ratio * HitSum() + (1 - hit_ratio) * MissSum();
  }
  bool Outside() const {
    return std::fabs(miss_unaccounted) > kStageShareBound ||
           std::fabs(hit_unaccounted) > kStageShareBound;
  }
};

Result<StageSample> MeasureStages(server::ConcurrencyManager* cm,
                                  uint64_t sid, server::Client* client,
                                  const Stmt& s, const Reference& ref,
                                  Ledger* ledger) {
  StageSample out;
  out.text = s.text;
  out.is_join = s.is_join;
  PlanCache& plans = cm->durable().session().plan_cache();
  const SessionOptions options = cm->session(sid)->options();
  auto check = [&](const Result<std::string>& reply) {
    ++ledger->attempted;
    return CheckReply(s, reply, ref, ledger);
  };
  auto execute = [&] {
    Result<EvalOutput> r = Status::OK();
    const double us = Time([&] { r = cm->Execute(sid, s.text); });
    check(r.ok() ? Result<std::string>(RenderEvalOutput(*r))
                 : Result<std::string>(r.status()));
    return us;
  };
  std::shared_ptr<const storage::DatabaseVersion> snap = cm->PinSnapshot();
  const Database& db = *snap->db;
  server::StatementMode mode = server::ClassifyMode(
      s.text, storage::ClassifyStatement(s.text, db), db, *snap->views);
  if (mode != server::StatementMode::kSharedRead) {
    return Status::RuntimeError("'" + s.text +
                                "' is not a shared snapshot read");
  }
  Result<Statement> stmt = ParseAndResolve(s.text, db);
  if (!stmt.ok() || stmt->query == nullptr ||
      stmt->query->kind != QueryExpr::Kind::kSimple) {
    return Status::RuntimeError("'" + s.text + "' is not a simple query");
  }
  const Query& query = *stmt->query->simple;

  // Each repetition times a miss (cache cleared) and then a hit, each
  // stage right after the ConcurrencyManager::Execute call it is
  // compared with. A repetition's calls run back to back, so they share
  // the CPU's speed at that moment even where CPUs and their speeds
  // differ; the check takes the median of the per-repetition shares.
  std::vector<StageSample> runs;
  int reps = 1;
  for (int i = 0; i < reps; ++i) {
    StageSample r;
    plans.Clear();
    r.core_miss = execute();
    if (i == 0) reps = RepsFor(r.core_miss);
    r.parse = Time([&] { (void)ParseAndResolve(s.text, db); });
    TypingResult typing;
    r.typecheck = Time([&] {
      typing = TypeChecker(db).Check(query, options.typing_mode,
                                     options.exemptions);
    });
    const RangeMap* ranges =
        typing.well_typed && typing.in_fragment ? &typing.ranges : nullptr;
    r.plan = Time([&] {
      (void)Planner(db, options.indexes).Plan(query, ranges);
    });
    // Hit path: the plan is cached from here on. The first execution
    // after the planner runs on caches the planner evicted; time the
    // second, which runs as warm as the stages timed after it.
    (void)execute();
    r.core_hit = execute();
    r.pin = Time([&] {
      (void)cm->session(sid);
      (void)cm->PinSnapshot();
    });
    r.classify = Time([&] {
      mode = server::ClassifyMode(
          s.text, storage::ClassifyStatement(s.text, db), db, *snap->views);
    });
    // A fresh per-statement Session, as the server builds one: its
    // evaluator starts cold.
    std::optional<Session> reader;
    r.session = Time([&] {
      reader.emplace(snap->db.get(), options, snap->views.get(), &plans);
    });
    Result<EvalOutput> result = Status::OK();
    r.exec = Time([&] { result = reader->ExecuteReadOnly(s.text); });
    if (!result.ok()) return result.status();
    r.render = Time([&] { (void)RenderEvalOutput(*result); });
    r.session += Time([&] { reader.reset(); });
    r.miss_unaccounted = 1 - r.MissSum() / r.core_miss;
    r.hit_unaccounted = 1 - r.HitSum() / r.core_hit;
    runs.push_back(std::move(r));
  }
  auto median = [&](double StageSample::*field) {
    std::vector<double> v;
    for (const StageSample& r : runs) v.push_back(r.*field);
    return Median(v);
  };
  for (double StageSample::*field :
       {&StageSample::core_miss, &StageSample::core_hit, &StageSample::pin,
        &StageSample::classify, &StageSample::session, &StageSample::parse,
        &StageSample::typecheck, &StageSample::plan, &StageSample::exec,
        &StageSample::render, &StageSample::miss_unaccounted,
        &StageSample::hit_unaccounted}) {
    out.*field = median(field);
  }
  // Wire: the same statement over the socket and in-process, in
  // alternation, plan cached.
  std::vector<double> wire;
  for (int i = 0; i < std::max(reps, 5); ++i) {
    const double core_us = execute();
    Result<std::string> reply = Status::OK();
    wire.push_back(Time([&] { reply = client->Execute(s.text); }) - core_us);
    check(reply);
  }
  out.wire = Median(wire);
  return out;
}

/// Wall time of the first span named `name` in a tracer's tree.
double SpanMicros(const obs::SpanNode& node, const std::string& name) {
  if (node.name == name) return static_cast<double>(node.wall_ns) / 1e3;
  for (const auto& child : node.children) {
    const double us = SpanMicros(*child, name);
    if (us >= 0) return us;
  }
  return -1;
}

}  // namespace

// ---- Public ---------------------------------------------------------------

Result<WorkloadKind> ParseWorkload(const std::string& name) {
  if (name == "browse") return WorkloadKind::kBrowse;
  if (name == "analytic") return WorkloadKind::kAnalytic;
  if (name == "mixed") return WorkloadKind::kMixed;
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (browse | analytic | mixed)");
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kBrowse:
      return "browse";
    case WorkloadKind::kAnalytic:
      return "analytic";
    case WorkloadKind::kMixed:
      return "mixed";
  }
  return "?";
}

Config DefaultConfig(WorkloadKind kind) {
  Config c;
  c.kind = kind;
  // Four of each fixed path query; browse statements are cheap.
  c.trace_samples = kind == WorkloadKind::kBrowse ? 200 : 4 * kNumPath;
  return c;
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s", "read_qps", "read_p50_ms", "read_p90_ms", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "server.wire_us",
      "server.pin_us",
      "server.classify_us",
      "server.session_us",
      "server.core_us",
      "server.latch_wait_p50_us",
      "server.latch_waits",
      "server.shed_statements",
      "server.writes",
      "parser.parse_us",
      "typing.typecheck_us",
      "typing.plan_us",
      "eval.plan_cache_hit_ratio",
      "eval.plan_cache_lookups",
      "eval.plan_cache_hits",
      "eval.plan_cache_misses",
      "eval.plan_cache_invalidations_per_write",
      "eval.exec_us",
      "eval.join_exec_us",
      "eval.render_us",
      "eval.batch_filtered_ratio",
      "eval.batch_rows",
      "eval.values_per_row",
      "eval.rows",
      "eval.parallel_queries",
      "eval.parallel_exec_us",
      "store.fork_us",
      "store.active_domain_us",
      "store.cow_bytes_per_write",
      "store.live_versions_max",
      "storage.wal_sync_us",
      "storage.fsyncs_per_write",
      "storage.group_commit_batch_mean",
      "storage.group_commit_batches",
      "storage.wal_bytes_per_write",
      "storage.checkpoint_ms",
      "storage.checkpoints",
      "storage.replay_us_per_record",
      "storage.replayed_records",
      "trace.unaccounted_share",
      "trace.statements_sampled",
      "trace.statements_outside",
      "trace.overhead_share",
  };
  return names;
}

Result<RunResult> RunBenchmark(const Config& config) {
  RunResult result;
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    return Status::RuntimeError("cannot create " + config.work_dir + ": " +
                                ec.message());
  }
  const HostInfo host = DetectHost();
  result.record = {
      "workload=" + std::string(WorkloadName(config.kind)),
      "seed=" + std::to_string(config.seed),
      "scale=" + std::to_string(config.scale),
      "seconds=" + FormatNumber(config.seconds),
      "trace=" + std::string(config.trace ? "1" : "0"),
      "clients=" + std::to_string(kReaders) + " readers + " +
          std::to_string(Writers(config.kind)) + " writers (closed loop)",
      "flush_policy=group-commit fsync before every write ack",
      "checkpoint_every=" + std::to_string(kCheckpointEvery) +
          " durable writes",
      "nproc=" + std::to_string(host.nproc),
      "cpu_model=" + host.cpu_model,
      "build_type=" + host.build_type,
      "compiler=" + host.compiler,
  };

  // Reference answers: before any timing, outside setup_s.
  XSQL_ASSIGN_OR_RETURN(Reference ref, BuildReference(config));
  const Universe universe(config.kind, config.seed, ref.employees);
  Ledger ledger;
  MetricSet& m = result.metrics;
  const bool has_writes = Writers(config.kind) > 0;

  // Set-up, several times; the last instance serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Live> live;
  for (int i = 0; i < config.setup_repeats; ++i) {
    if (live != nullptr) {
      live->Stop();
      std::filesystem::remove_all(live->dir, ec);
      live.reset();
    }
    const Clock::time_point t = Clock::now();
    XSQL_ASSIGN_OR_RETURN(live, SetUp(config, universe, ref, i, &ledger));
    setup_s.push_back(MicrosSince(t) / 1e6);
  }
  m.Add("setup_s", Median(setup_s), "s",
        "median of " + std::to_string(setup_s.size()) + " set-ups");

  // Registry deltas are read outside the window; inside it, a traced
  // run adds only the live-version poller.
  const RegistryState before = RegistryState::Take();
  const Window w = RunWindow(config, universe, ref, live.get(),
                             /*monitor=*/config.trace, &ledger);
  const RegistryDelta d = Diff(before, RegistryState::Take());
  AddWindowMetrics(w, has_writes, &m);

  if (config.trace) {
    server::ConcurrencyManager& cm = live->server->manager();
    const double writes = static_cast<double>(w.writes_ok);
    const obs::Histogram::Sample& latch =
        d.histograms.at("xsql.server.latch_wait_us");
    m.AddOver("server.latch_wait_p50_us",
              latch.count == 0 ? 0 : static_cast<double>(latch.Quantile(0.5)),
              "us", "server.latch_waits", static_cast<double>(latch.count),
              "count");
    m.Add("server.shed_statements", d["xsql.server.shed_statements"],
          "count");
    m.Add("server.writes", writes, "count", "acknowledged in the window");
    const double hits = d["xsql.plan.cache_hits"];
    const double misses = d["xsql.plan.cache_misses"];
    m.AddRatio("eval.plan_cache_hit_ratio", hits, hits + misses, "ratio",
               "eval.plan_cache_lookups", "count");
    m.Add("eval.plan_cache_hits", hits, "count");
    m.Add("eval.plan_cache_misses", misses, "count");
    m.AddRatio("eval.plan_cache_invalidations_per_write",
               d["xsql.plan.cache_invalidations"], writes, "count/write",
               "server.writes", "count");
    m.AddRatio("eval.batch_filtered_ratio", d["xsql.exec.batch_filtered"],
               d["xsql.exec.batch_rows"], "ratio", "eval.batch_rows",
               "count");
    m.AddRatio("eval.values_per_row", d["xsql.path.values"],
               d["xsql.eval.rows"], "values/row", "eval.rows", "count");
    m.Add("eval.parallel_queries", d["xsql.exec.parallel_queries"], "count",
          "Server never sets exec_workers");
    m.AddRatio("store.cow_bytes_per_write", d["xsql.mvcc.cow_bytes"], writes,
               "B/write", "server.writes", "count");
    m.Add("store.live_versions_max",
          static_cast<double>(w.live_versions_max), "count");
    m.AddRatio("storage.fsyncs_per_write", d["xsql.storage.fsyncs"], writes,
               "count/write", "server.writes", "count");
    const obs::Histogram::Sample& batch =
        d.histograms.at("xsql.storage.group_commit_batch_size");
    m.AddRatio("storage.group_commit_batch_mean",
               static_cast<double>(batch.sum),
               static_cast<double>(batch.count), "records/batch",
               "storage.group_commit_batches", "count");
    m.AddRatio("storage.wal_bytes_per_write", d["xsql.storage.wal_bytes"],
               writes, "B/write", "server.writes", "count");
    m.Add("storage.checkpoints", d["xsql.storage.checkpoints"], "count");
    m.Add("trace.overhead_share",
          w.process_cpu_s == 0 ? 0 : w.monitor_cpu_s / w.process_cpu_s,
          "share",
          "poller CPU / process CPU in the window; the replay runs after it");

    // Replay: sampled reads of the workload's own stream through each
    // layer's public functions, with the server idle. Stage times are
    // weighted by the window's plan-cache hit ratio.
    const double hit_ratio = hits + misses == 0 ? 0 : hits / (hits + misses);
    XSQL_ASSIGN_OR_RETURN(uint64_t sid, cm.CreateSession(SessionOptions{}));
    Stream reads(&universe, /*window=*/2, /*client=*/0);
    std::vector<StageSample> samples;
    for (size_t i = 0; i < config.trace_samples; ++i) {
      const Stmt stmt = reads.NextRead();
      StageSample sample;
      // On a shared host, interference can last through every
      // repetition of one measurement. A gap in the stages would show in
      // each measurement, so a statement is outside the share only when
      // every one of kStageAttempts measurements is.
      for (int a = 0; a < kStageAttempts; ++a) {
        XSQL_ASSIGN_OR_RETURN(sample,
                              MeasureStages(&cm, sid, &live->clients[0],
                                            stmt, ref, &ledger));
        if (!sample.Outside()) break;
      }
      samples.push_back(std::move(sample));
    }
    std::vector<double> wire, pin, classify, session, core, parse, typecheck,
        plan, exec, render;
    double core_total = 0, stage_total = 0;
    size_t outside = 0;
    for (const StageSample& s : samples) {
      wire.push_back(s.wire);
      pin.push_back(s.pin);
      classify.push_back(s.classify);
      session.push_back(s.session);
      core.push_back(s.Core(hit_ratio));
      parse.push_back(s.parse);
      typecheck.push_back(s.typecheck);
      plan.push_back(s.plan);
      render.push_back(s.render);
      if (!s.is_join) exec.push_back(s.exec);
      core_total += s.Core(hit_ratio);
      stage_total += s.Sum(hit_ratio);
      ++ledger.attempted;
      if (s.Outside()) {
        ++outside;
        ledger.Fail("stage sum misses server.core_us by more than " +
                    FormatNumber(kStageShareBound) + ": unaccounted " +
                    FormatNumber(s.miss_unaccounted) + " of miss core_us " +
                    FormatNumber(s.core_miss) + ", " +
                    FormatNumber(s.hit_unaccounted) + " of hit core_us " +
                    FormatNumber(s.core_hit) + " (pin " +
                    FormatNumber(s.pin) + ", classify " +
                    FormatNumber(s.classify) + ", session " +
                    FormatNumber(s.session) + ", exec " +
                    FormatNumber(s.exec) + ", parse " +
                    FormatNumber(s.parse) + ", typecheck " +
                    FormatNumber(s.typecheck) + ", plan " +
                    FormatNumber(s.plan) + "): " + s.text);
      }
    }
    const double unaccounted =
        core_total == 0 ? 0 : (core_total - stage_total) / core_total;
    ++ledger.attempted;
    if (std::fabs(unaccounted) > kStageShareBound) {
      ledger.Fail("stage sums leave " + FormatNumber(unaccounted) +
                  " of server.core_us unaccounted over the sample");
    }
    m.Add("server.wire_us", Median(wire), "us",
          "Client::Execute - ConcurrencyManager::Execute, plan cached");
    m.Add("server.pin_us", Median(pin), "us",
          "session lookup + PinSnapshot");
    m.Add("server.classify_us", Median(classify), "us");
    m.Add("server.session_us", Median(session), "us");
    m.Add("server.core_us", Median(core), "us",
          "hit/miss paths weighted by the window's hit ratio; mean " +
              FormatNumber(Mean(core)));
    m.Add("parser.parse_us", Median(parse), "us");
    m.Add("typing.typecheck_us", Median(typecheck), "us");
    m.Add("typing.plan_us", Median(plan), "us",
          "mean " + FormatNumber(Mean(plan)));
    m.Add("eval.exec_us", Median(exec), "us", "path queries, plan cached");
    m.Add("eval.render_us", Median(render), "us",
          "mean " + FormatNumber(Mean(render)));
    m.Add("trace.unaccounted_share", unaccounted, "share",
          "1 - stage sum / server.core_us over the sample");
    m.AddOver("trace.statements_outside", static_cast<double>(outside),
              "count", "trace.statements_sampled",
              static_cast<double>(samples.size()), "count");

    // The joins on the pinned snapshot, serial (every workload, so the
    // figure exists wherever the snapshot does).
    {
      std::shared_ptr<const storage::DatabaseVersion> snap = cm.PinSnapshot();
      Session reader(snap->db.get(), cm.session(sid)->options(),
                     snap->views.get(), &cm.durable().session().plan_cache());
      std::vector<double> join_us;
      for (const char* j : kJoins) {
        XSQL_RETURN_IF_ERROR(reader.ExecuteReadOnly(j).status());  // warm
        join_us.push_back(MedianOf(3, [&] {
          return Time([&] { (void)reader.ExecuteReadOnly(j); });
        }));
      }
      m.Add("eval.join_exec_us", Mean(join_us), "us", "mean of W0, W1");
    }

    // Write path, on forks of the pinned snapshot (never the master).
    {
      std::shared_ptr<const storage::DatabaseVersion> snap = cm.PinSnapshot();
      m.Add("store.fork_us", MedianOf(21, [&] {
              std::unique_ptr<Database> fork;
              return Time([&] { fork = snap->db->Fork(); });
            }),
            "us", "excludes releasing the fork");
      Stream probe_writes(&universe, /*window=*/3, /*client=*/99);
      std::vector<std::string> records;
      std::vector<double> domain_us;
      for (int i = 0; i < 5; ++i) {
        std::unique_ptr<Database> fork = snap->db->Fork();
        Session writer(fork.get());
        const Stmt ws = probe_writes.NextWrite();
        records.push_back(ws.text);
        XSQL_RETURN_IF_ERROR(writer.Execute(ws.text).status());
        domain_us.push_back(Time([&] { (void)fork->ActiveDomain(); }));
      }
      m.Add("store.active_domain_us", Median(domain_us), "us",
            "after replaying one workload write on a fork");
      const std::string wal_path = config.work_dir + "/scratch.wal";
      std::filesystem::remove(wal_path, ec);
      XSQL_RETURN_IF_ERROR(storage::Wal::Create(wal_path));
      XSQL_ASSIGN_OR_RETURN(
          storage::Wal wal,
          storage::Wal::OpenAppender(
              wal_path, std::char_traits<char>::length(storage::Wal::kMagic)));
      std::vector<double> sync_us;
      for (int i = 0; i < 21; ++i) {
        Status appended = Status::OK();
        sync_us.push_back(Time(
            [&] { appended = wal.Append(records[i % records.size()]); }));
        XSQL_RETURN_IF_ERROR(appended);
      }
      m.Add("storage.wal_sync_us", Median(sync_us), "us",
            "Wal::Append (append + fsync) of a workload record");
      std::filesystem::remove(wal_path, ec);
    }
    cm.CloseSession(sid);
  }

  // Shut down, then reopen the directory: recovery time, and (mixed)
  // every acknowledged write must read back.
  const std::string dir = live->dir;
  live->Stop();
  live.reset();
  obs::Tracer tracer;  // recovery's own spans time the WAL replay
  std::unique_ptr<storage::DurableDatabase> reopened;
  double reopen_s = 0;
  {
    obs::ScopedTracer install(&tracer);
    const Clock::time_point t = Clock::now();
    XSQL_ASSIGN_OR_RETURN(reopened, storage::DurableDatabase::Open(dir));
    reopen_s = MicrosSince(t) / 1e6;
  }
  const double replayed =
      static_cast<double>(reopened->replayed_statements());
  m.Add("reopen_s", reopen_s, "s",
        FormatNumber(replayed) + " WAL records replayed");
  for (const auto& [emp, salary] : ledger.acked) {
    ++ledger.attempted;
    Result<Relation> rel = reopened->Query(BrowseText(emp, /*shape=*/0));
    if (!rel.ok() || rel->size() != 1 ||
        !(rel->rows()[0][0] == Oid::Int(salary))) {
      ledger.Fail("acknowledged write " + emp + ".Salary = " +
                  std::to_string(salary) + " not found after reopen");
    }
  }
  if (has_writes) {
    m.Add("reopen_checked_writes", static_cast<double>(ledger.acked.size()),
          "count", "employees whose last acknowledged Salary was read back");
  }

  if (config.trace) {
    const double replay_us =
        std::max(0.0, SpanMicros(tracer.root(), "recovery/wal-replay"));
    m.AddRatio("storage.replay_us_per_record", replay_us, replayed,
               "us/record", "storage.replayed_records", "count");
    std::vector<double> ckpt_ms;
    for (int i = 0; i < 3; ++i) {
      Status checkpointed = Status::OK();
      ckpt_ms.push_back(
          Time([&] { checkpointed = reopened->Checkpoint(); }) / 1e3);
      XSQL_RETURN_IF_ERROR(checkpointed);
    }
    m.Add("storage.checkpoint_ms", Median(ckpt_ms), "ms",
          "DurableDatabase::Checkpoint, median of 3");
    // What wiring intra-query fan-out into the server would buy.
    server::ConcurrencyManager::Options options;
    options.exec_workers = std::max(2u, host.nproc);
    server::ConcurrencyManager parallel(reopened.get(), options);
    XSQL_ASSIGN_OR_RETURN(uint64_t psid, parallel.CreateSession({}));
    std::vector<double> par_us;
    for (const char* j : kJoins) {
      XSQL_RETURN_IF_ERROR(parallel.Execute(psid, j).status());  // warm
      par_us.push_back(MedianOf(3, [&] {
        return Time([&] { (void)parallel.Execute(psid, j); });
      }));
    }
    parallel.CloseSession(psid);
    m.Add("eval.parallel_exec_us", Mean(par_us), "us",
          "mean of W0, W1 with exec_workers=" +
              std::to_string(options.exec_workers));
  }
  reopened.reset();
  std::filesystem::remove_all(config.work_dir, ec);

  m.AddRatio("failed_share", static_cast<double>(ledger.failed),
             static_cast<double>(ledger.attempted), "share", "attempted",
             "count");
  m.Add("peak_rss_mb", PeakRssMb(), "MiB", "getrusage ru_maxrss");
  result.attempted = ledger.attempted;
  result.failed = ledger.failed;
  result.failures = ledger.failures;
  return result;
}

}  // namespace perfbench
}  // namespace xsql
