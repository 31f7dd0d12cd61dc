#include "stream/file_ingest.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "core/mpmc_queue.hpp"
#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "simd/scan.hpp"

namespace wss::stream {

namespace {

using Clock = std::chrono::steady_clock;

/// Lines per dispatched batch.
constexpr std::size_t kBatchLines = 1024;

#ifndef WSS_OBS_OFF
/// wss_stream_batch_latency_seconds: the wall time from a batch's
/// dispatch to the end of its in-order apply -- the longest any of its
/// lines waited.
obs::Histogram& batch_latency_histogram() {
  static obs::Histogram& h = obs::registry().histogram(
      "wss_stream_batch_latency_seconds", obs::latency_bounds_seconds());
  return h;
}
#endif

/// One slot of the in-flight window. The engine thread owns it except
/// between PreparePool::dispatch and PreparePool::wait, when one
/// worker does.
struct Batch {
  std::vector<std::string_view> lines;
  std::vector<int> years;               ///< lookahead year per line
  std::vector<PreparedLine> prepared;   ///< grows to the largest batch
  std::size_t end_offset = 0;           ///< input offset past the last line
  Clock::time_point dispatched;
  bool done = false;                    ///< guarded by PreparePool::mu_
  std::exception_ptr error;             ///< guarded by PreparePool::mu_
};

/// What one preparing thread owns: a parse scratch, a match scratch and
/// the flusher that publishes the match scratch's tag tallies.
struct Preparer {
  parse::ParseScratch pscratch;
  match::MatchScratch scratch;
  tag::TagMetricsFlusher flusher;

  /// Prepares every line of `b`, then publishes the tag tallies.
  void prepare(const StreamPipeline& pipeline, Batch& b) {
    const std::size_t n = b.lines.size();
    if (b.prepared.size() < n) b.prepared.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      pipeline.prepare(b.lines[i], b.years[i], b.prepared[i], pscratch,
                       scratch);
    }
    flusher.flush(scratch);
  }
};

/// The prepare workers, one Preparer each.
class PreparePool {
 public:
  PreparePool(const StreamPipeline& pipeline, int workers,
              std::size_t max_tasks)
      : pipeline_(pipeline),
        tasks_(core::MpmcQueue<Task>::next_pow2(max_tasks)) {
    for (int i = 0; i < workers; ++i) threads_.emplace_back([this] { run(); });
  }

  /// Closes the queue; workers finish what is queued, flush, and join.
  ~PreparePool() {
    tasks_.close();
    for (std::thread& t : threads_) t.join();
  }

  PreparePool(const PreparePool&) = delete;
  PreparePool& operator=(const PreparePool&) = delete;

  void dispatch(Batch& b) {
    b.done = false;
    tasks_.push([this, &b](Preparer& w) { prepare(b, w); });
  }

  /// Blocks until `b` is prepared; rethrows a prepare failure.
  void wait(Batch& b) {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&b] { return b.done; });
    if (b.error) std::rethrow_exception(b.error);
  }

 private:
  using Task = std::function<void(Preparer&)>;

  void run() {
    Preparer w;
    while (std::optional<Task> task = tasks_.pop()) (*task)(w);
  }

  void prepare(Batch& b, Preparer& w) {
    std::exception_ptr error;
    try {
      w.prepare(pipeline_, b);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      b.error = error;
      b.done = true;
    }
    done_.notify_all();
  }

  const StreamPipeline& pipeline_;
  core::MpmcQueue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable done_;
  std::vector<std::thread> threads_;   // last: runs on everything above
};

}  // namespace

FileIngestResult ingest_file(StreamPipeline& pipeline,
                             logio::InputBuffer& input,
                             const FileIngestOptions& opts) {
  const int threads = core::resolve_threads(opts.threads);
  const std::string_view text = input.view();
  const char* const base = text.data();
  const char* const end = base + text.size();
  const char* p = base;
  // getline semantics: a final line without '\n' still counts.
  const auto next_line = [&p, end](std::string_view& line) {
    if (p == end) return false;
    const char* nl = simd::find_byte(p, end, '\n');
    line = std::string_view(p, static_cast<std::size_t>(nl - p));
    p = nl == end ? end : nl + 1;
    return true;
  };

  std::string_view line;
  for (std::uint64_t i = 0; i < opts.skip_lines && next_line(line); ++i) {
  }
  input.release_before(static_cast<std::size_t>(p - base));

  FileIngestResult res;
  const auto applied_one = [&] {
    ++res.applied;
    if (opts.on_applied) opts.on_applied(res.applied);
  };

  // The window outlives the pool: a pool torn down by an exception
  // still finishes the batches it was handed.
  const std::size_t window =
      threads > 1 ? 2 * static_cast<std::size_t>(threads) : 1;
  std::vector<Batch> slots(window);
  std::optional<PreparePool> pool;
  if (threads > 1) pool.emplace(pipeline, threads - 1, window + 1);
  // Without a pool, the engine thread prepares each batch itself.
  Preparer engine_preparer;
  logio::YearTracker ahead = pipeline.year_tracker();
  // The Table 2 compression fraction, started once its sample freezes.
  std::string_view sample;
  std::future<double> fraction;

  std::uint64_t dispatched = 0;
  std::size_t head = 0;
  std::size_t in_flight = 0;
  bool stopping = false;
  for (;;) {
    // Fill the window.
    while (in_flight < window && p != end && !stopping) {
      std::size_t budget = kBatchLines;
      if (opts.max_lines > 0) {
        if (dispatched >= opts.max_lines) break;
        budget = static_cast<std::size_t>(
            std::min<std::uint64_t>(budget, opts.max_lines - dispatched));
      }
      if (opts.stop && opts.stop()) {
        stopping = true;
        res.truncated = true;
        break;
      }
      Batch& b = slots[(head + in_flight) % window];
      b.lines.clear();
      b.years.clear();
      while (b.lines.size() < budget && next_line(line)) {
        b.lines.push_back(line);
        b.years.push_back(infer_year(ahead, line));
      }
      b.end_offset = static_cast<std::size_t>(p - base);
      dispatched += b.lines.size();
      b.dispatched = Clock::now();
      if (pool) pool->dispatch(b);
      ++in_flight;
    }
    if (in_flight == 0) break;

    // Apply the oldest batch, in file order.
    Batch& b = slots[head];
    if (pool) {
      pool->wait(b);
    } else {
      engine_preparer.prepare(pipeline, b);
    }
    for (std::size_t i = 0; i < b.lines.size(); ++i) {
      pipeline.apply(b.lines[i], b.prepared[i]);
      applied_one();
    }
#ifndef WSS_OBS_OFF
    const std::chrono::duration<double> dt = Clock::now() - b.dispatched;
    batch_latency_histogram().observe(dt.count());
#endif
    // One thread means one: without a pool, snapshot() computes the
    // fraction on the engine thread.
    if (pool && sample.empty()) {
      sample = pipeline.study().frozen_compression_sample();
      if (!sample.empty()) {
        fraction = std::async(std::launch::async,
                              compress::compression_fraction, sample);
      }
    }
    input.release_before(b.end_offset);
    head = (head + 1) % window;
    --in_flight;
  }

  if (opts.max_lines > 0 && res.applied >= opts.max_lines) {
    res.truncated = true;
  }
  if (fraction.valid()) {
    pipeline.study().prime_compression_cache(sample.size(), fraction.get());
  }
  return res;
}

}  // namespace wss::stream
