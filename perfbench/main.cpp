// perfbench — the repository's end-to-end benchmark (README.md here).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload through the public front doors (parfw::solve and
// serve::PathService) in one closed loop with a single caller, checks
// every output (oracle.hpp), and prints each metric as "name = value unit"
// followed, as the last line, by one JSON object:
//   --trace 0: the end-to-end metrics, measured with tracing off;
//   --trace 1: the same untraced pass, then a traced pass through the
//              existing seams, and the per-layer metrics from it.
// Scratch files (checkpoints, published tiles) live under DIR/tmp-<pid>
// and are removed; the traced pass leaves DIR/trace-<workload>.json.
// Exit status: 0 ok; 1 a wrong output or a failed operation; 2 usage.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/apsp.hpp"
#include "core/checkpoint_store.hpp"
#include "dist/solve.hpp"
#include "graph/generators.hpp"
#include "mpisim/runtime.hpp"
#include "oracle.hpp"
#include "probes.hpp"
#include "sched/trace.hpp"
#include "serve/path_service.hpp"
#include "serve/workload.hpp"
#include "srgemm/srgemm.hpp"
#include "telemetry/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fs = std::filesystem;
using namespace parfw;
using perfbench::Oracle;
using perfbench::Result;
using perfbench::S;
using perfbench::Span;

namespace {

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool serve;  ///< query replay instead of timed solves
  std::size_t n, b;
  double p;  ///< Erdős–Rényi edge probability (solve workloads)
  ApspAlgorithm algorithm;
  bool track_paths;
  std::size_t checkpoint_every;  ///< pivot rounds per checkpoint cut
};

// Why each workload exists is recorded in README.md.
constexpr Workload kWorkloads[] = {
    {"dist-values", false, 4224, 132, 0.05, ApspAlgorithm::kDistributed,
     false, 0},
    {"dist-paths", false, 2112, 132, 0.01, ApspAlgorithm::kDistributed, true,
     4},
    {"node-pool-4096", false, 4096, 256, 0.05,
     ApspAlgorithm::kBlockedParallel, false, 0},
    {"serve-zipf", true, 1536, 64, 0.0, ApspAlgorithm::kDistributed, true, 0},
};

constexpr int kGridRows = 2, kGridCols = 2;  ///< every distributed solve
constexpr vertex_t kRoadRows = 32, kRoadCols = 48;  ///< serve-zipf graph
constexpr double kZipf = 1.1;
constexpr std::int64_t kHubStride = 977;  ///< prime, so coprime to n
constexpr double kBudgetShare = 0.2;  ///< cache budget / published bytes
constexpr std::size_t kSetupReps = 15;  ///< setup_s is their median
constexpr std::size_t kMinSolves = 3;  ///< per timed pass
constexpr std::size_t kOracleSources = 6;
constexpr std::size_t kQueryChunk = 4096;     ///< queries checked per batch
constexpr std::size_t kTraceQueries = 10000;  ///< traced serve pass
constexpr std::size_t kMaxTraceEvents = 250000;

/// Every per-layer metric with its unit; --trace 1 reports all of them on
/// every workload (0 where the workload does not drive the layer).
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kLayerMetrics[] = {
    {"graph.gen_s", "s"},
    {"graph.dense_s", "s"},
    {"srgemm.outer_gflops", "GF/s"},
    {"srgemm.pred_gflops", "GF/s"},
    {"srgemm.insolve_gflops", "GF/s"},
    {"srgemm.insolve_ratio", "ratio"},
    {"srgemm.flops", "flop"},
    {"srgemm.calls", "count"},
    {"dist.outer_s", "s"},
    {"dist.panel_s", "s"},
    {"dist.diag_s", "s"},
    {"dist.lookahead_s", "s"},
    {"dist.bcast_s", "s"},
    {"dist.checkpoint_s", "s"},
    {"dist.unaccounted_share", "ratio"},
    {"dist.ops", "count"},
    {"mpisim.messages", "count"},
    {"mpisim.bytes", "B"},
    {"mpisim.recv_wait_s", "s"},
    {"mpisim.bcast_gbps", "GB/s"},
    {"store.put_calls", "count"},
    {"store.put_bytes", "B"},
    {"store.put_s", "s"},
    {"store.read_calls", "count"},
    {"store.read_bytes", "B"},
    {"store.read_s", "s"},
    {"serve.open_s", "s"},
    {"serve.cache.hit_rate", "ratio"},
    {"serve.cache.evictions", "count"},
    {"serve.stage.route_share", "ratio"},
    {"serve.stage.cache_share", "ratio"},
    {"serve.stage.io_share", "ratio"},
    {"serve.stage.walk_share", "ratio"},
    {"serve.path_hops_mean", "count"},
    {"pool.tasks", "count"},
    {"pool.run_s", "s"},
    {"pool.wait_s", "s"},
    {"trace.overhead", "ratio"},
};

// --- small helpers -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(i, v.size() - 1)];
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(const char* f, double v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// Metrics in print order, each with its unit and an optional note (the
/// base of a ratio, a sample count).
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }
  void print(const char* title) const {
    std::printf("-- %s\n", title);
    for (const Row& r : rows_)
      std::printf("%-26s = %.6g %s%s%s\n", r.name.c_str(), r.value,
                  r.unit.c_str(), r.note.empty() ? "" : "  # ",
                  r.note.c_str());
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " +
             fmt("%.17g", rows_[i].value) + ", \"unit\": \"" + rows_[i].unit +
             "\"}";
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

/// Per-layer values keyed by kLayerMetrics name; report() lists the whole
/// table, so every workload emits the same metric set.
class Layers {
 public:
  void set(const std::string& name, double value,
           const std::string& note = "") {
    const auto known = [&](const MetricSpec& m) { return name == m.name; };
    PARFW_CHECK_MSG(std::any_of(std::begin(kLayerMetrics),
                                std::end(kLayerMetrics), known),
                    "unknown per-layer metric " << name);
    values_[name] = {value, note};
  }
  Report report() const {
    Report r;
    for (const MetricSpec& m : kLayerMetrics) {
      auto it = values_.find(m.name);
      if (it == values_.end())
        r.add(m.name, 0.0, m.unit, "layer not driven by this workload");
      else
        r.add(m.name, it->second.first, m.unit, it->second.second);
    }
    return r;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

struct Reports {
  Report e2e;   ///< BENCHMARK.json end_to_end: the --trace 0 result
  Report info;  ///< printed only: solve_s, query_p99_us, ... with bases
  Layers layers;
};

/// One count of checked operations, shared by every pass of a run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Everything a traced pass attaches to the existing seams.
struct Tracing {
  sched::CollectTraceSink events{kMaxTraceEvents};
  telemetry::Registry registry;  ///< fw.phase.* and serve.* series
  perfbench::StoreCounts store;
  perfbench::PoolCounter pool;
};

/// Σ of a metric over its label sets (counter/gauge value, or histogram
/// sum), optionally only those whose labels contain `label`.
double registry_sum(const telemetry::Registry& reg, const std::string& name,
                    const std::string& label = "") {
  double total = 0.0;
  for (const telemetry::MetricRow& r : reg.snapshot()) {
    if (r.name != name) continue;
    if (!label.empty() && r.labels.find(label) == std::string::npos) continue;
    total += r.kind == telemetry::MetricKind::kHistogram ? r.hist.sum : r.value;
  }
  return total;
}

/// Write the traced pass as one Chrome trace for trace_analyze: every
/// benchmark span, plus the library's events from the last solve on (all
/// of them for the query pass). Each solve starts a fresh mpisim world
/// whose message sequence numbers restart at 0, so the events of two
/// solves in one document would join each other's messages.
void write_trace(const Workload& w, const sched::CollectTraceSink& sink,
                 const fs::path& workdir, Reports& r) {
  const std::vector<sched::TraceEvent> all = sink.events();
  double from = -1e300;
  for (const sched::TraceEvent& e : all)
    if (e.rank == perfbench::kBenchTrack &&
        std::string_view(e.name) == "bench.solve")
      from = std::max(from, e.t_begin);
  std::vector<sched::TraceEvent> kept;
  for (const sched::TraceEvent& e : all)
    if (e.rank == perfbench::kBenchTrack || e.t_begin >= from)
      kept.push_back(e);
  const fs::path out = workdir / (std::string("trace-") + w.name + ".json");
  std::ofstream os(out);
  sched::write_chrome_trace(kept, os);
  PARFW_CHECK_MSG(os.good(), "cannot write " << out);
  r.info.add("trace.events", static_cast<double>(kept.size()), "count",
             "written to " + out.string() +
                 fmt("; %.0f dropped past the capture cap",
                     static_cast<double>(sink.truncated())));
}

/// Switches on the instrumentation that is not plumbed per call — the
/// srgemm.* series and the global pool's observer — for the traced pass,
/// and off again on every way out, so the pool never keeps a dangling
/// observer.
class AmbientProbes {
 public:
  explicit AmbientProbes(PoolObserver* pool) {
    telemetry::set_enabled(true);
    ThreadPool::global().set_observer(pool);
  }
  ~AmbientProbes() {
    ThreadPool::global().set_observer(nullptr);
    telemetry::set_enabled(false);
  }
  AmbientProbes(const AmbientProbes&) = delete;
  AmbientProbes& operator=(const AmbientProbes&) = delete;
};

/// The run's scratch directory (checkpoints, published tiles), removed
/// with its contents when the run ends, on an exception too.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// --- inputs ------------------------------------------------------------------

struct Input {
  Graph graph;
  Matrix<float> dense;
  double gen_s = 0.0, dense_s = 0.0;
};

/// The workload's graph from `seed`, always with integral weights so every
/// distance is exact: Erdős–Rényi for the solves, a road-like 4-neighbour
/// grid (grid2d weights floored to 1..9) for serving.
Input make_input(const Workload& w, std::uint64_t seed,
                 sched::TraceSink* sink) {
  Input in;
  Span gen(sink, "bench.gen");
  if (w.serve) {
    const Graph road = gen::grid2d(kRoadRows, kRoadCols, seed);
    std::vector<Edge> edges = road.edges();
    for (Edge& e : edges)
      e.weight = static_cast<double>(static_cast<long long>(e.weight));
    in.graph = Graph(road.num_vertices(), std::move(edges));
  } else {
    in.graph = gen::erdos_renyi(static_cast<vertex_t>(w.n), w.p, seed, 1.0,
                                100.0, /*integral=*/true);
  }
  in.gen_s = gen.end();
  Span dense(sink, "bench.dense");
  in.dense = in.graph.distance_matrix<S>();
  in.dense_s = dense.end();
  return in;
}

ApspOptions solve_options(const Workload& w, Tracing* tr) {
  ApspOptions opt;
  opt.algorithm = w.algorithm;
  opt.block_size = w.b;
  opt.track_paths = w.track_paths;
  opt.dist.variant = sched::Variant::kAsync;
  opt.dist.grid_rows = kGridRows;
  opt.dist.grid_cols = kGridCols;
  if (tr != nullptr) {
    opt.dist.metrics = &tr->registry;
    opt.dist.trace = &tr->events;
  }
  return opt;
}

// --- solve workloads ---------------------------------------------------------

struct SolvePass {
  double warmup = 0.0;         ///< wall time of the warm-up solve
  std::vector<double> times;   ///< wall time of each timed, passing solve
};

/// Closed loop of parfw::solve calls for `seconds` (at least kMinSolves)
/// after one warm-up solve. The warm-up is checked like the others but
/// kept out of `times`: it pays the process's first-touch costs, which a
/// long-running caller pays once. Checkpointing workloads get a fresh
/// FileCheckpointStore directory per solve. Checks, clean-up and handing
/// freed heap back (malloc_trim, so peak RSS is one solve's footprint
/// rather than what the allocator kept from earlier solves) happen off
/// the clock.
SolvePass run_solves(const Workload& w, const Input& in, const Oracle& oracle,
                     double seconds, const fs::path& tmp, Tracing* tr,
                     Tally& tally) {
  SolvePass pass;
  std::optional<Timer> loop;
  for (std::size_t i = 0; i <= kMinSolves || loop->seconds() < seconds; ++i) {
    ApspOptions opt = solve_options(w, tr);
    const fs::path dir = tmp / ("ckpt-" + std::to_string(i));
    std::optional<FileCheckpointStore> file;
    std::optional<perfbench::CountingStore> counted;
    if (w.checkpoint_every > 0) {
      file.emplace(dir);
      CheckpointStore* store = &*file;
      if (tr != nullptr) store = &counted.emplace(*file, tr->store);
      opt.dist.resilience.checkpoint_every = w.checkpoint_every;
      opt.dist.resilience.store = store;
    }
    ++tally.attempted;
    Span span(tr != nullptr ? &tr->events : nullptr, "bench.solve");
    try {
      const Result r = solve<S>(in.graph, opt);
      const double t = span.end();
      if (const std::size_t bad = perfbench::check_solve(r, oracle, in.dense)) {
        ++tally.failed;
        std::fprintf(stderr, "solve %zu: %zu mismatches against the oracle\n",
                     i, bad);
      } else if (i == 0) {
        pass.warmup = t;
      } else {
        pass.times.push_back(t);
      }
    } catch (const std::exception& e) {
      ++tally.failed;
      std::fprintf(stderr, "solve %zu threw: %s\n", i, e.what());
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    malloc_trim(0);
    if (i == 0) loop.emplace();
  }
  return pass;
}

/// Single-threaded rate (GF/s) of one min-plus kernel at shape m x n x k:
/// median of timed repetitions after one warm-up. C is restored before
/// each repetition so every one does the same work.
template <typename Kernel>
double kernel_gflops(std::size_t m, std::size_t n, std::size_t k,
                     std::uint64_t seed, const Kernel& kernel) {
  Matrix<float> A(m, k), B(k, n), C0(m, n), C(m, n);
  Rng rng = Rng::split(seed, 0x6e33ull);
  for (Matrix<float>* M : {&A, &B, &C0}) {
    auto v = M->view();
    for (std::size_t i = 0; i < v.rows(); ++i)
      for (std::size_t j = 0; j < v.cols(); ++j)
        v(i, j) = static_cast<float>(1 + rng.next_below(99));
  }
  std::vector<double> rates;
  const Timer total;
  for (int rep = 0; rep < 4 || (total.seconds() < 0.3 && rep < 50); ++rep) {
    C.view().copy_from(C0.view());
    const Timer t;
    kernel(A.view(), B.view(), C.view());
    const double s = t.seconds();
    if (rep > 0) rates.push_back(2.0 * m * n * k / s / 1e9);
  }
  return median(rates);
}

double outer_gflops(std::size_t m, std::size_t n, std::size_t k,
                    std::uint64_t seed) {
  return kernel_gflops(
      m, n, k, seed,
      [](MatrixView<const float> A, MatrixView<const float> B,
         MatrixView<float> C) { srgemm::multiply<S>(A, B, C); });
}

double pred_gflops(std::size_t m, std::size_t n, std::size_t k,
                   std::uint64_t seed) {
  Matrix<std::int64_t> predB(k, n), predC(m, n);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < n; ++j)
      predB.view()(i, j) = static_cast<std::int64_t>(i);
  return kernel_gflops(m, n, k, seed,
                       [&](MatrixView<const float> A, MatrixView<const float> B,
                           MatrixView<float> C) {
                         srgemm::multiply_with_pred<S>(A, B, C, predB.view(),
                                                       predC.view());
                       });
}

/// Ring-broadcast bandwidth (GB/s) of one `bytes` payload over a 2-rank
/// mpisim world: median of three trials of 50 broadcasts each.
double bcast_gbps(std::size_t bytes) {
  constexpr int kReps = 50;
  std::vector<double> rates;
  for (int trial = 0; trial < 3; ++trial) {
    double secs = 0.0;
    mpi::Runtime::run(2, [&](mpi::Comm& c) {
      std::vector<std::uint8_t> buf(bytes, static_cast<std::uint8_t>(trial));
      c.ring_bcast(std::span<std::uint8_t>(buf), 0);  // warm-up
      c.barrier();
      const Timer t;
      for (int r = 0; r < kReps; ++r)
        c.ring_bcast(std::span<std::uint8_t>(buf), 0);
      c.barrier();
      if (c.rank() == 0) secs = t.seconds();
    });
    rates.push_back(static_cast<double>(bytes) * kReps / secs / 1e9);
  }
  return median(rates);
}

/// Per-layer metrics of a traced solve pass, per solve unless a rate. The
/// seams record the warm-up solve too, so it counts in the normalisation.
void solve_layers(const Workload& w, const Input& traced_in,
                  const SolvePass& untraced, const SolvePass& traced,
                  const Tracing& tr, std::uint64_t seed, Layers& L) {
  const double solves = static_cast<double>(traced.times.size() + 1);
  double wall = traced.warmup;
  for (double s : traced.times) wall += s;
  const bool dist = w.algorithm == ApspAlgorithm::kDistributed;
  const std::string per = "per solve, " +
                          std::to_string(traced.times.size() + 1) +
                          " traced solves";

  L.set("graph.gen_s", traced_in.gen_s);
  L.set("graph.dense_s", traced_in.dense_s);

  // srgemm: isolated ceilings at the solve's own OuterUpdate shape,
  // (n/P_r) x (n/P_c) x b, against the in-solve rate.
  const std::size_t m = dist ? w.n / kGridRows : w.n;
  const std::size_t nn = dist ? w.n / kGridCols : w.n;
  const std::string shape = std::to_string(m) + "x" + std::to_string(nn) +
                            "x" + std::to_string(w.b);
  const double outer = outer_gflops(m, nn, w.b, seed);
  const telemetry::Registry& g = telemetry::Registry::global();
  const double flops = registry_sum(g, "srgemm.flops");
  const double insolve = ratio(flops, registry_sum(g, "srgemm.seconds")) / 1e9;
  L.set("srgemm.outer_gflops", outer, "isolated multiply, 1 thread, " + shape);
  if (dist)
    L.set("srgemm.pred_gflops", pred_gflops(m, nn, w.b, seed),
          "isolated multiply_with_pred, 1 thread, " + shape);
  L.set("srgemm.insolve_gflops", insolve,
        "sum srgemm.flops / sum srgemm.seconds (multiply_with_pred records "
        "no srgemm.* series)");
  L.set("srgemm.insolve_ratio", ratio(insolve, outer),
        fmt("%.2f GF/s in-solve / ", insolve) +
            fmt("%.2f GF/s isolated", outer) +
            (dist ? "" : "; in-solve calls run on the 4-thread pool"));
  L.set("srgemm.flops", flops / solves, per);
  L.set("srgemm.calls", registry_sum(g, "srgemm.calls") / solves, per);

  if (dist) {
    // dist: Σ over ranks of fw.phase.seconds by op kind.
    auto phase = [&](std::initializer_list<const char*> ops) {
      double s = 0.0;
      for (const char* op : ops)
        s += registry_sum(tr.registry, "fw.phase.seconds",
                          std::string("phase=") + op + ",");
      return s / solves;
    };
    L.set("dist.outer_s", phase({"OuterUpdate"}), per);
    L.set("dist.panel_s", phase({"PanelUpdateRow", "PanelUpdateCol"}), per);
    L.set("dist.diag_s", phase({"DiagUpdate"}), per);
    L.set("dist.lookahead_s", phase({"LookaheadRow", "LookaheadCol"}), per);
    const double bcast_s = phase(
        {"DiagBcastRow", "DiagBcastCol", "RowPanelBcast", "ColPanelBcast"});
    L.set("dist.bcast_s", bcast_s, per);
    L.set("dist.checkpoint_s", phase({"Checkpoint"}), per);
    const double phases = registry_sum(tr.registry, "fw.phase.seconds");
    const int ranks = kGridRows * kGridCols;
    L.set("dist.unaccounted_share", 1.0 - ratio(phases, ranks * wall),
          fmt("1 - %.3f phase s / ", phases) +
              fmt("(4 ranks x %.3f s traced solve wall)", wall));
    L.set("dist.ops", registry_sum(tr.registry, "fw.phase.count") / solves,
          per);

    // mpisim: message anchors and receive spans from the trace.
    double messages = 0.0, bytes = 0.0, recv_wait = 0.0;
    for (const sched::TraceEvent& e : tr.events.events()) {
      if (e.ek == sched::EventKind::kSend && std::string(e.name) == "msg") {
        messages += 1.0;
        bytes += static_cast<double>(e.bytes);
      } else if (e.ek == sched::EventKind::kRecv) {
        recv_wait += e.t_end - e.t_begin;
      }
    }
    const std::size_t panel_bytes = m * w.b * sizeof(float);
    const double isolated = bcast_gbps(panel_bytes);
    L.set("mpisim.messages", messages / solves, per);
    L.set("mpisim.bytes", bytes / solves, per);
    L.set("mpisim.recv_wait_s", recv_wait / solves, per);
    L.set("mpisim.bcast_gbps", isolated,
          "isolated ring_bcast, 2 ranks, " + std::to_string(panel_bytes) +
              " B panel; in-solve " +
              fmt("%.3f GB/s = mpisim.bytes / dist.bcast_s",
                  ratio(bytes / solves, bcast_s) / 1e9));
  }

  if (w.checkpoint_every > 0) {
    const perfbench::StoreCounts& st = tr.store;
    L.set("store.put_calls", st.puts.calls.load() / solves, per);
    L.set("store.put_bytes", st.puts.bytes.load() / solves, per);
    L.set("store.put_s", st.puts.time.seconds() / solves, per);
    L.set("store.read_calls", st.reads.calls.load() / solves, per);
    L.set("store.read_bytes", st.reads.bytes.load() / solves, per);
    L.set("store.read_s", st.reads.time.seconds() / solves, per);
  }
  if (!dist) {
    L.set("pool.tasks", tr.pool.tasks() / solves, per);
    L.set("pool.run_s", tr.pool.run_seconds() / solves, per);
    L.set("pool.wait_s", tr.pool.wait_seconds() / solves, per);
  }
  const double base = median(untraced.times);
  L.set("trace.overhead", ratio(median(traced.times), base) - 1.0,
        fmt("median traced / median untraced solve - 1; untraced %.4f s",
            base));
}

void run_solve_workload(const Workload& w, std::uint64_t seed, double seconds,
                        bool trace, const fs::path& workdir,
                        const fs::path& tmp, Tally& tally, Reports& r) {
  std::vector<double> setup;
  std::optional<Input> in;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    in.emplace(make_input(w, seed, nullptr));
    setup.push_back(in->gen_s + in->dense_s);
  }
  const Oracle oracle =
      perfbench::make_oracle(in->graph, seed, kOracleSources);
  const SolvePass pass =
      run_solves(w, *in, oracle, seconds, tmp, nullptr, tally);
  const std::vector<double>& times = pass.times;
  if (times.empty()) return;  // every solve failed: nothing to time

  const double solve_s = median(times);
  const std::string samples = std::to_string(times.size()) + " solves";
  r.e2e.add("setup_s", median(setup), "s",
            "median of " + std::to_string(kSetupReps) + " gen + dense");
  r.e2e.add("latency_ms", solve_s * 1e3, "ms",
            "median parfw::solve wall of " + samples + " after a warm-up");
  r.e2e.add("peak_rss_mb", peak_rss_mib(), "MiB");
  r.info.add("solve_s", solve_s, "s",
             "median of " + samples + fmt(", fastest %.4g s", fastest(times)) +
                 fmt(", slowest %.4g s",
                     *std::max_element(times.begin(), times.end())));
  r.info.add("solve_gflops", ratio(2.0 * w.n * w.n * w.n, solve_s) / 1e9,
             "GF/s", "2n^3 / solve_s, n=" + std::to_string(w.n));
  if (!trace) return;

  auto tr = std::make_unique<Tracing>();
  Span setup_span(&tr->events, "bench.setup");
  const Input traced_in = make_input(w, seed, &tr->events);
  setup_span.end();
  SolvePass traced;
  {
    const AmbientProbes probes(&tr->pool);
    traced =
        run_solves(w, traced_in, oracle, seconds / 2, tmp, tr.get(), tally);
  }
  if (traced.times.empty()) return;
  solve_layers(w, traced_in, pass, traced, *tr, seed, r.layers);
  write_trace(w, tr->events, workdir, r);
}

// --- serve workload ----------------------------------------------------------

/// A solved, published and opened serving stack (one set-up repetition).
/// Members are declared in dependency order: the service reads the store
/// and the counting decorator wraps the file store.
struct ServeStack {
  Input in;
  std::unique_ptr<FileCheckpointStore> file;
  std::unique_ptr<perfbench::CountingStore> counted;
  Result result;  ///< the in-memory oracle for every served answer
  std::unique_ptr<serve::PathService<S>> service;
  double solve_s = 0.0, open_s = 0.0, setup_s = 0.0;
};

/// Generate, solve with paths on 2x2 while publishing into a fresh
/// FileCheckpointStore under `dir`, and open a PathService over it with
/// second-touch admission and a budget of kBudgetShare of the published
/// bytes. The set-up solve is checked against Dijkstra like any other.
std::unique_ptr<ServeStack> setup_serve(const Workload& w, std::uint64_t seed,
                                        const fs::path& dir, Tracing* tr,
                                        Tally& tally) {
  sched::TraceSink* sink = tr != nullptr ? &tr->events : nullptr;
  auto st = std::make_unique<ServeStack>();
  Span setup(sink, "bench.setup");
  st->in = make_input(w, seed, sink);
  st->file = std::make_unique<FileCheckpointStore>(dir);
  CheckpointStore* store = st->file.get();
  if (tr != nullptr) {
    st->counted =
        std::make_unique<perfbench::CountingStore>(*st->file, tr->store);
    store = st->counted.get();
  }
  ApspOptions opt = solve_options(w, nullptr);  // serve traces queries only
  opt.dist.publish_store = store;
  Span solve_span(sink, "bench.solve_publish");
  st->result = solve<S>(st->in.graph, opt);
  st->solve_s = solve_span.end();
  std::uint64_t footprint = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) footprint += e.file_size();

  serve::ServeOptions so;
  so.cache_budget_bytes = static_cast<std::size_t>(
      kBudgetShare * static_cast<double>(footprint));
  so.admission = serve::CacheAdmission::kSecondTouch;
  if (tr != nullptr) {
    so.metrics = &tr->registry;
    so.trace = &tr->events;
  }
  Span open(sink, "bench.open");
  st->service = std::make_unique<serve::PathService<S>>(*store, so);
  st->open_s = open.end();
  st->setup_s = setup.end();

  ++tally.attempted;
  const Oracle oracle =
      perfbench::make_oracle(st->in.graph, seed, kOracleSources);
  if (const std::size_t bad =
          perfbench::check_solve(st->result, oracle, st->in.dense)) {
    ++tally.failed;
    std::fprintf(stderr, "serve set-up solve: %zu mismatches\n", bad);
  }
  return st;
}

struct QueryPass {
  std::vector<double> latency;  ///< seconds per query, in stream order
  double wall = 0.0;            ///< Σ timed chunk wall
  double hops = 0.0;            ///< Σ path hops of found answers
  std::size_t found = 0;
};

/// Replays the seeded Zipf stream against `st` in checked chunks until
/// `seconds` of timed query wall (or exactly `max_queries` when nonzero).
/// Popularity rank i is vertex (kHubStride * i) mod n: the hubs sit at
/// fixed places scattered over the whole grid, the same for every seed
/// (which draws the weights and the request stream). With the identity
/// map the hubs would be the grid's first row, and the median would hinge
/// on a few neighbouring corner pairs whose paths change with the seed.
QueryPass run_queries(ServeStack& st, std::uint64_t seed, double seconds,
                      std::size_t max_queries, Tally& tally) {
  const auto n = static_cast<std::int64_t>(st.in.graph.num_vertices());
  const serve::ZipfSampler zipf(n, kZipf);
  auto draw = [&](Rng& rng) { return kHubStride * zipf(rng) % n; };
  Rng src_rng = Rng::split(seed, 0x5ecull);
  Rng dst_rng = Rng::split(seed, 0xd57ull);
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs(kQueryChunk);
  std::vector<QueryResult<float>> answers(kQueryChunk);
  std::vector<char> ok(kQueryChunk);
  QueryPass pass;
  while (max_queries > 0 ? pass.latency.size() < max_queries
                         : pass.wall < seconds) {
    std::size_t count = kQueryChunk;
    if (max_queries > 0)
      count = std::min(count, max_queries - pass.latency.size());
    for (std::size_t i = 0; i < count; ++i)
      pairs[i] = {draw(src_rng), draw(dst_rng)};
    const Timer chunk;
    for (std::size_t i = 0; i < count; ++i) {
      const Timer q;
      try {
        answers[i] = st.service->query(pairs[i].first, pairs[i].second, true);
        ok[i] = 1;
      } catch (const std::exception& e) {
        ok[i] = 0;
        std::fprintf(stderr, "query (%lld, %lld) threw: %s\n",
                     static_cast<long long>(pairs[i].first),
                     static_cast<long long>(pairs[i].second), e.what());
      }
      pass.latency.push_back(q.seconds());
    }
    pass.wall += chunk.seconds();
    for (std::size_t i = 0; i < count; ++i) {
      ++tally.attempted;
      if (!ok[i] || !perfbench::same_answer(
                        answers[i], st.result.query(pairs[i].first,
                                                    pairs[i].second, true))) {
        ++tally.failed;
        continue;
      }
      if (answers[i].status == PathStatus::kFound) {
        ++pass.found;
        pass.hops += static_cast<double>(answers[i].path.size() - 1);
      }
    }
  }
  return pass;
}

void run_serve_workload(const Workload& w, std::uint64_t seed, double seconds,
                        bool trace, const fs::path& workdir,
                        const fs::path& tmp, Tally& tally, Reports& r) {
  const fs::path tiles = tmp / "tiles";
  std::vector<double> setup;
  std::unique_ptr<ServeStack> st;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    st.reset();  // the previous stack's files go before the next publish
    fs::remove_all(tiles);
    st = setup_serve(w, seed, tiles, nullptr, tally);
    setup.push_back(st->setup_s);
  }
  const QueryPass pass = run_queries(*st, seed, seconds, 0, tally);
  const std::string samples = std::to_string(pass.latency.size()) + " queries";
  const double p50 = median(pass.latency);
  r.e2e.add("setup_s", median(setup), "s",
            "median of " + std::to_string(kSetupReps) +
                " gen + dense + solve + publish + open");
  r.e2e.add("latency_ms", p50 * 1e3, "ms", "median query() wall, " + samples);
  r.e2e.add("peak_rss_mb", peak_rss_mib(), "MiB");
  r.info.add("query_p50_us", p50 * 1e6, "us", samples);
  r.info.add("query_p99_us", quantile(pass.latency, 0.99) * 1e6, "us",
             samples);
  r.info.add("query_qps",
             ratio(static_cast<double>(pass.latency.size()), pass.wall), "1/s",
             "queries / timed loop wall");
  r.info.add("setup_solve_s", st->solve_s, "s",
             "last set-up solve + publish, n=" + std::to_string(w.n) +
                 " paths, 2x2");
  const double untraced_hit_rate = st->service->cache_stats().hit_rate();
  st.reset();
  fs::remove_all(tiles);
  if (!trace) return;

  auto tr = std::make_unique<Tracing>();
  st = setup_serve(w, seed, tiles, tr.get(), tally);
  const perfbench::StoreCounts& io = tr->store;
  const double put_calls = static_cast<double>(io.puts.calls.load());
  const double open_reads = static_cast<double>(io.reads.calls.load());
  const double open_read_bytes = static_cast<double>(io.reads.bytes.load());
  const double open_read_s = io.reads.time.seconds();
  Span loop_span(&tr->events, "bench.query_loop");
  const QueryPass traced = run_queries(*st, seed, 0.0, kTraceQueries, tally);
  loop_span.end();

  Layers& L = r.layers;
  const std::string per =
      "traced pass of " + std::to_string(kTraceQueries) + " queries";
  L.set("graph.gen_s", st->in.gen_s);
  L.set("graph.dense_s", st->in.dense_s);
  L.set("store.put_calls", put_calls, "publish, in set-up");
  L.set("store.put_bytes", static_cast<double>(io.puts.bytes.load()),
        "publish, in set-up");
  L.set("store.put_s", io.puts.time.seconds(), "publish, in set-up");
  L.set("store.read_calls", io.reads.calls.load() - open_reads, per);
  L.set("store.read_bytes", io.reads.bytes.load() - open_read_bytes, per);
  L.set("store.read_s", io.reads.time.seconds() - open_read_s, per);
  const serve::TileCacheStats& c = st->service->cache_stats();
  const double latency_sum = registry_sum(tr->registry, "serve.query.latency");
  auto share = [&](const char* stage) {
    return ratio(registry_sum(tr->registry, std::string("serve.stage.") +
                                                stage + ".latency"),
                 latency_sum);
  };
  L.set("serve.open_s", st->open_s);
  L.set("serve.cache.hit_rate", c.hit_rate(),
        per + fmt("; untraced pass %.4f", untraced_hit_rate));
  L.set("serve.cache.evictions", static_cast<double>(c.evictions), per);
  L.set("serve.stage.route_share", share("route"), per);
  L.set("serve.stage.cache_share", share("cache"), per);
  L.set("serve.stage.io_share", share("io"), per);
  L.set("serve.stage.walk_share", share("walk"), per);
  L.set("serve.path_hops_mean",
        ratio(traced.hops, static_cast<double>(traced.found)), per);
  // Same stream prefix on both sides: the untraced pass's first
  // kTraceQueries latencies.
  const std::size_t k = std::min(kTraceQueries, pass.latency.size());
  const double base = median(std::vector<double>(
      pass.latency.begin(), pass.latency.begin() + static_cast<long>(k)));
  L.set("trace.overhead", ratio(median(traced.latency), base) - 1.0,
        fmt("traced / untraced median query - 1 over the first %.0f "
            "queries; untraced ",
            static_cast<double>(k)) +
            fmt("%.3f us", base * 1e6));
  write_trace(w, tr->events, workdir, r);
}

// --- entry point -------------------------------------------------------------

int usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\nworkloads:",
               msg.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  if (argc % 2 == 0) return usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (!key.starts_with("--")) return usage("bad argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "workdir"})
    if (!args.contains(k)) return usage(std::string("missing --") + k);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (args["workload"] == cand.name) w = &cand;
  if (w == nullptr) return usage("unknown workload " + args["workload"]);
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (args["seed"].empty() || *end != '\0')
    return usage("--seed must be a whole number");
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) return usage("--seconds must be > 0");
  if (args["trace"] != "0" && args["trace"] != "1")
    return usage("--trace must be 0 or 1");
  const bool trace = args["trace"] == "1";
  const fs::path workdir = args["workdir"];

  telemetry::set_enabled(false);  // only the traced pass records
  Tally tally;
  Reports r;
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", w->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  try {
    const ScratchDir tmp(workdir / ("tmp-" + std::to_string(::getpid())));
    if (w->serve)
      run_serve_workload(*w, seed, seconds, trace, workdir, tmp.path(), tally,
                         r);
    else
      run_solve_workload(*w, seed, seconds, trace, workdir, tmp.path(), tally,
                         r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  r.info.add("error_rate",
             ratio(static_cast<double>(tally.failed),
                   static_cast<double>(tally.attempted)),
             "ratio",
             std::to_string(tally.failed) + " failed / " +
                 std::to_string(tally.attempted) + " attempted");
  r.e2e.print("end to end (untraced)");
  r.info.print("also reported");
  const Report layers = r.layers.report();
  if (trace) layers.print("per layer (traced pass)");
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", tally.attempted, tally.failed,
      (trace ? layers : r.e2e).json().c_str());
  return correct ? 0 : 1;
}
