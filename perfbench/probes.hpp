// Outside-in probes: the benchmark's own wrappers around the seams the
// library already exposes. Nothing here changes what the program does;
// each probe counts and times calls into one layer from the outside.
//
//   * CountingStore — a CheckpointStore decorator timing put / get /
//     get_ranges and their bytes (the `store.*` metrics).
//   * PoolCounter — a PoolObserver on the global ThreadPool (`pool.*`).
//   * Spans — the benchmark's own spans around each layer call, recorded
//     into the same TraceSink the library's spans go to.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/checkpoint_store.hpp"
#include "sched/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

/// Relaxed atomic sum of non-negative seconds (stored as nanoseconds, so
/// concurrent rank threads can add without a CAS loop).
class SecondsSum {
 public:
  void add(double s) {
    ns_.fetch_add(static_cast<std::uint64_t>(s * 1e9),
                  std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
};

struct IoCounts {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
  SecondsSum time;

  void add(std::uint64_t n_bytes, double seconds) {
    calls.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(n_bytes, std::memory_order_relaxed);
    time.add(seconds);
  }
};

/// Writes (put) and reads (get, get_ranges) seen by a CountingStore.
struct StoreCounts {
  IoCounts puts;
  IoCounts reads;
};

/// Counts and times every write and read that reaches the wrapped store,
/// into `counts` (which may outlive the decorator and collect over
/// several stores). Thread-safe: mpisim ranks checkpoint concurrently.
class CountingStore final : public parfw::CheckpointStore {
 public:
  CountingStore(parfw::CheckpointStore& inner, StoreCounts& counts)
      : inner_(inner), counts_(counts) {}

  void put(const std::string& key,
           std::span<const std::uint8_t> blob) override {
    const parfw::Timer t;
    inner_.put(key, blob);
    counts_.puts.add(blob.size(), t.seconds());
  }
  std::optional<std::vector<std::uint8_t>> get(
      const std::string& key) const override {
    const parfw::Timer t;
    auto blob = inner_.get(key);
    counts_.reads.add(blob.has_value() ? blob->size() : 0, t.seconds());
    return blob;
  }
  bool get_ranges(const std::string& key,
                  std::span<const parfw::ByteRange> ranges,
                  std::uint8_t* out) const override {
    const parfw::Timer t;
    const bool ok = inner_.get_ranges(key, ranges, out);
    std::uint64_t bytes = 0;
    if (ok)
      for (const parfw::ByteRange& r : ranges) bytes += r.length;
    counts_.reads.add(bytes, t.seconds());
    return ok;
  }
  void erase(const std::string& key) override { inner_.erase(key); }
  std::vector<std::string> keys() const override { return inner_.keys(); }

 private:
  parfw::CheckpointStore& inner_;
  StoreCounts& counts_;
};

/// Task count, Σ run time and Σ queue wait of the pool it observes.
class PoolCounter final : public parfw::PoolObserver {
 public:
  void on_queue_depth(std::size_t) override {}
  void on_task(double wait_seconds, double run_seconds) override {
    tasks_.fetch_add(1, std::memory_order_relaxed);
    wait_.add(wait_seconds);
    run_.add(run_seconds);
  }
  std::uint64_t tasks() const {
    return tasks_.load(std::memory_order_relaxed);
  }
  double run_seconds() const { return run_.seconds(); }
  double wait_seconds() const { return wait_.seconds(); }

 private:
  std::atomic<std::uint64_t> tasks_{0};
  SecondsSum wait_;
  SecondsSum run_;
};

/// Track id of the benchmark's own spans: one past the largest rank id a
/// workload uses, so they never share a row with a solver rank.
inline constexpr int kBenchTrack = 4;

/// Times one layer call and, when a sink is attached, records it as a
/// span named `name` (static storage, as TraceSink requires).
class Span {
 public:
  Span(parfw::sched::TraceSink* sink, const char* name)
      : sink_(sink), name_(name), t0_(parfw::sched::now_seconds()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span and return its duration in seconds.
  double end() {
    const double t1 = parfw::sched::now_seconds();
    if (sink_ != nullptr) {
      parfw::sched::TraceEvent e;
      e.rank = kBenchTrack;
      e.name = name_;
      e.t_begin = t0_;
      e.t_end = t1;
      sink_->record(e);
    }
    return t1 - t0_;
  }

 private:
  parfw::sched::TraceSink* sink_;
  const char* name_;
  double t0_;
};

}  // namespace perfbench
