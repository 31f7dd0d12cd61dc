// File-mode ingestion driver: the one loop behind `wss stream --in`.
//
// StreamPipeline splits file-mode ingestion into prepare() -- parse
// and tag, a pure function of one line and its year -- and apply(),
// the order-dependent rest (Algorithm 3.1, the Table 2-4 accumulators,
// predict). ingest_file() splits the input into batches of lines on
// the calling thread, the engine thread, and applies the prepared
// batches strictly in file order in one loop at every thread count.
// With more than one thread a pool of threads-1 workers prepares the
// batches; with one, the engine thread prepares each batch itself.
// Each preparer owns its parse and match scratch and tag-metrics
// flusher. At most 2 * threads batches are in flight, and the mapped
// pages behind the last applied line are given back
// (InputBuffer::release_before), so a pass keeps only a bounded window
// of the file resident however large it is.
//
// Years: a batch is prepared before the lines ahead of it are applied,
// so the dispatcher infers each line's year on a lookahead copy of the
// engine's YearTracker. The engine's own tracker advances only in
// apply(), so a checkpoint taken after the pass holds exactly what a
// line-by-line run would.
//
// Drain rule: every dispatched line is applied. The dispatcher never
// reads past the max_lines budget; when stop() fires it dispatches no
// more batches and the engine applies the in-flight window before
// returning. Tag counters and a checkpoint written afterwards are
// therefore exact.
//
// Under a pool, when the Table 2 compression sample freezes (its
// 20,000th line is applied), its compression fraction is computed on a
// std::async thread and primes the study state's cache, so snapshot()
// does not pay for it on the engine thread at exit.
//
// Metrics: ingest_file() never calls ingest_line(), so
// wss_stream_ingest_latency_seconds (every 16th ingest_line() call)
// gets no samples from it. Instead each applied batch observes
// wss_stream_batch_latency_seconds: the wall time from its dispatch to
// the end of its in-order apply, the longest any of its lines waited.
//
// Report, --emit stream and checkpoint bytes are identical at every
// thread count (tests/test_stream_file_ingest.cpp).
#pragma once

#include <cstdint>
#include <functional>

#include "logio/input.hpp"
#include "stream/pipeline.hpp"

namespace wss::stream {

struct FileIngestOptions {
  /// Threads, the engine thread included; 0 = hardware concurrency.
  /// 1 starts no pool: the engine thread prepares each batch itself.
  int threads = 1;

  /// Leading lines to skip unread (a checkpoint resume).
  std::uint64_t skip_lines = 0;

  /// Apply at most this many lines; 0 = no limit.
  std::uint64_t max_lines = 0;

  /// Polled before each batch is dispatched; once true, nothing more
  /// is dispatched (SIGINT/SIGTERM drain). May be empty.
  std::function<bool()> stop;

  /// Runs on the engine thread after each applied line, with the
  /// running count of applied lines. May be empty.
  std::function<void(std::uint64_t applied)> on_applied;
};

struct FileIngestResult {
  std::uint64_t applied = 0;  ///< lines applied, skipped lines excluded
  /// The pass stopped early: max_lines was reached (even on the
  /// input's last line) or stop() fired with input left.
  bool truncated = false;
};

/// Feeds `input`'s lines (getline semantics: '\n'-separated, a final
/// unterminated line counts) to `pipeline` in file order, as described
/// above. Does not call pipeline.finish(). Rethrows the first
/// exception a prepare or apply raised, after stopping the pool.
FileIngestResult ingest_file(StreamPipeline& pipeline,
                             logio::InputBuffer& input,
                             const FileIngestOptions& opts);

}  // namespace wss::stream
