#include "dist/worker.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "dist/claim.hpp"
#include "dist/partial.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "tag/metrics.hpp"
#include "tag/rulesets.hpp"
#include "util/strings.hpp"

namespace wss::dist {

namespace {

/// Everything needed to process one system's chunks; owns the
/// simulator and engine so flattened jobs can run in any order.
struct SystemWork {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<tag::TagEngine> engine;
  std::vector<sim::Simulator::EventRange> shards;
  core::detail::ChunkContext ctx;
  std::vector<std::uint64_t> chunk_ids;           ///< ascending
  std::vector<core::PipelineResult> partials;     ///< parallel to chunk_ids
};

/// One flattened unit: chunk `pos` of system `work`.
struct Job {
  std::size_t work = 0;
  std::size_t pos = 0;
};

}  // namespace

WorkerReport run_worker(const StudyManifest& manifest,
                        const WorkerOptions& opts) {
  if (opts.worker_id >= manifest.num_splits) {
    throw std::invalid_argument(util::format(
        "worker: id %u out of range [0, %u)", opts.worker_id,
        manifest.num_splits));
  }
  WorkerReport report;

  const std::string ppath = partial_path(opts.manifest_dir, opts.worker_id);
  if (partial_is_valid(ppath, opts.worker_id)) {
    report.outcome = WorkerOutcome::kAlreadyComplete;
    return report;
  }

  const std::string instance = opts.instance.empty()
                                   ? make_instance_token(opts.worker_id)
                                   : opts.instance;
  const std::string cpath = claim_path(opts.manifest_dir, opts.worker_id);
  const ClaimResult claim =
      try_claim(cpath, opts.worker_id, instance, opts.stale_after_s);
  if (claim.outcome == ClaimOutcome::kHeldByLive) {
    report.outcome = WorkerOutcome::kLostClaim;
    if (claim.holder) {
      report.holder = util::format("worker %u (%s)", claim.holder->worker,
                                   claim.holder->instance.c_str());
    } else {
      report.holder = "unknown holder";
    }
    return report;
  }

  // Baseline counter snapshot: the published deltas are
  // (end - baseline), so a merge folds in exactly the increments this
  // slice caused -- correct even when test harnesses run several
  // workers sequentially in one process.
  std::map<std::string, std::uint64_t> baseline;
  for (const auto& [name, value] : obs::registry().counter_values()) {
    baseline[name] = value;
  }

  const Assignment& assignment = manifest.assignments[opts.worker_id];
  std::vector<SystemWork> works;
  works.reserve(assignment.slices.size());
  std::vector<Job> jobs;
  {
    obs::Span plan_span("dist_worker_setup");
    for (const Slice& slice : assignment.slices) {
      SystemWork work;
      work.sim =
          std::make_unique<sim::Simulator>(slice.system, manifest.options.sim);
      work.engine =
          std::make_unique<tag::TagEngine>(tag::build_ruleset(slice.system));
      work.shards =
          work.sim->event_shards(manifest.options.pipeline.chunk_events);
      work.ctx.simulator = work.sim.get();
      work.ctx.engine = work.engine.get();
      work.ctx.system = slice.system;
      work.ctx.num_categories = tag::categories_of(slice.system).size();
      work.ctx.collect_source_tallies =
          manifest.options.pipeline.collect_source_tallies;
      for (const ChunkRange& range : slice.ranges) {
        for (std::uint64_t c = range.begin; c < range.end; ++c) {
          work.chunk_ids.push_back(c);
        }
      }
      work.partials.resize(work.chunk_ids.size());
      const std::size_t work_idx = works.size();
      for (std::size_t pos = 0; pos < work.chunk_ids.size(); ++pos) {
        jobs.push_back({work_idx, pos});
      }
      works.push_back(std::move(work));
    }
  }

  const int workers =
      std::min<int>(core::resolve_threads(opts.threads),
                    static_cast<int>(std::max<std::size_t>(jobs.size(), 1)));
  std::mutex heartbeat_mu;
  const auto process_job = [&](const Job& job,
                               match::MatchScratch& scratch,
                               tag::TagMetricsFlusher& flusher) {
    SystemWork& work = works[job.work];
    const auto chunk = work.chunk_ids[job.pos];
    const auto& shard = work.shards[chunk];
    work.partials[job.pos] =
        core::detail::process_chunk(work.ctx, shard.begin, shard.end, scratch);
    flusher.flush(scratch);
    {
      // The claim mtime is the liveness signal; refresh it as chunks
      // complete so long slices survive aggressive --stale-after.
      std::lock_guard<std::mutex> lock(heartbeat_mu);
      heartbeat(cpath);
    }
  };

  {
    obs::Span span("dist_worker_chunks");
    if (workers <= 1) {
      match::MatchScratch scratch;
      tag::TagMetricsFlusher flusher;
      for (const Job& job : jobs) process_job(job, scratch, flusher);
    } else {
      std::atomic<std::size_t> next{0};
      std::atomic<bool> failed{false};
      std::exception_ptr first_error;
      std::mutex error_mu;
      {
        std::vector<std::jthread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int w = 0; w < workers; ++w) {
          pool.emplace_back([&] {
            match::MatchScratch scratch;
            tag::TagMetricsFlusher flusher;
            while (true) {
              const std::size_t i =
                  next.fetch_add(1, std::memory_order_relaxed);
              if (i >= jobs.size()) return;
              if (failed.load(std::memory_order_relaxed)) continue;
              try {
                process_job(jobs[i], scratch, flusher);
              } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!failed.exchange(true)) {
                  first_error = std::current_exception();
                }
              }
            }
          });
        }
      }
      if (failed.load()) std::rethrow_exception(first_error);
    }
  }

  PartialFile partial;
  partial.assignment = opts.worker_id;
  partial.worker = opts.worker_id;
  partial.instance = instance;
  for (SystemWork& work : works) {
    SystemPartial sys;
    sys.system = work.ctx.system;
    sys.chunks.reserve(work.chunk_ids.size());
    for (std::size_t pos = 0; pos < work.chunk_ids.size(); ++pos) {
      const auto chunk = work.chunk_ids[pos];
      report.events += work.shards[chunk].end - work.shards[chunk].begin;
      sys.chunks.push_back({chunk, std::move(work.partials[pos])});
    }
    report.chunks += sys.chunks.size();
    partial.systems.push_back(std::move(sys));
  }
  for (const auto& [name, value] : obs::registry().counter_values()) {
    const auto it = baseline.find(name);
    const std::uint64_t before = it == baseline.end() ? 0 : it->second;
    if (value > before) partial.counter_deltas.emplace_back(name, value - before);
  }
  write_partial(partial, ppath);
  report.outcome = WorkerOutcome::kCompleted;
  return report;
}

}  // namespace wss::dist
