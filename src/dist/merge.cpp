#include "dist/merge.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <utility>

#include "core/golden.hpp"
#include "dist/partial.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "tag/rulesets.hpp"
#include "util/strings.hpp"

namespace wss::dist {

namespace {

/// The exact (system, chunk) set an assignment owes, per the manifest.
std::vector<std::pair<parse::SystemId, std::uint64_t>> expected_chunks(
    const Assignment& a) {
  std::vector<std::pair<parse::SystemId, std::uint64_t>> out;
  for (const Slice& slice : a.slices) {
    for (const ChunkRange& range : slice.ranges) {
      for (std::uint64_t c = range.begin; c < range.end; ++c) {
        out.emplace_back(slice.system, c);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<parse::SystemId, std::uint64_t>> actual_chunks(
    const PartialFile& p) {
  std::vector<std::pair<parse::SystemId, std::uint64_t>> out;
  for (const SystemPartial& sys : p.systems) {
    for (const ChunkPartial& chunk : sys.chunks) {
      out.emplace_back(sys.system, chunk.chunk);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string id_list(const std::vector<std::uint32_t>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ' ';
    out += util::format("%u", ids[i]);
  }
  out += ']';
  return out;
}

}  // namespace

std::string MergeReport::describe_failure() const {
  std::string out = "merge: study incomplete:";
  if (!missing.empty()) {
    out += " missing assignments " + id_list(missing);
  }
  if (!corrupt.empty()) {
    if (!missing.empty()) out += ";";
    out += " corrupt partials " + id_list(corrupt);
  }
  out += " (rerun `wss worker <id>` for each, then merge again)";
  return out;
}

MergeReport run_merge(const StudyManifest& manifest,
                      const MergeOptions& opts) {
  MergeReport report;
  report.out_dir = opts.out_dir.empty() ? opts.manifest_dir + "/merged"
                                        : opts.out_dir;

  // ---- Validate every assignment's partial before folding anything.
  std::vector<PartialFile> partials;
  partials.reserve(manifest.assignments.size());
  for (const Assignment& a : manifest.assignments) {
    const std::string path = partial_path(opts.manifest_dir, a.id);
    if (!std::filesystem::exists(path)) {
      report.missing.push_back(a.id);
      continue;
    }
    PartialFile p;
    try {
      p = read_partial(path);
    } catch (const std::exception&) {
      report.corrupt.push_back(a.id);
      continue;
    }
    // A partial that parses but does not cover exactly this
    // assignment's chunk set is from a different plan (or a bug);
    // folding it would silently corrupt the study.
    if (p.assignment != a.id || actual_chunks(p) != expected_chunks(a)) {
      report.corrupt.push_back(a.id);
      continue;
    }
    partials.push_back(std::move(p));
  }
  if (!report.ok()) return report;

  // ---- Fold chunk partials per system in global chunk-index order --
  // the order the determinism contract hangs on.
  obs::Counter& chunks_counter = core::detail::PipelineCounters::get().chunks;
  core::Study study(manifest.options);
  {
    obs::Span merge_span("dist_merge_fold");
    for (std::size_t i = 0; i < manifest.systems.size(); ++i) {
      const parse::SystemId system = manifest.systems[i];
      std::map<std::uint64_t, core::PipelineResult> by_chunk;
      for (PartialFile& p : partials) {
        for (SystemPartial& sys : p.systems) {
          if (sys.system != system) continue;
          for (ChunkPartial& chunk : sys.chunks) {
            by_chunk.emplace(chunk.chunk, std::move(chunk.result));
          }
        }
      }
      core::PipelineResult acc = core::detail::make_partial(
          {.system = system,
           .num_categories = tag::categories_of(system).size()});
      for (auto& [chunk, result] : by_chunk) {
        core::detail::merge_partial(acc, std::move(result));
        chunks_counter.inc();
        ++report.chunks;
      }
      core::detail::finalize_result(acc);
      study.adopt_result(system, std::move(acc));
      report.covered.push_back(system);
    }
  }

  // ---- Fold worker counter deltas so --metrics matches one process.
  for (const PartialFile& p : partials) {
    for (const auto& [name, delta] : p.counter_deltas) {
      obs::registry().add_counter(name, delta);
    }
  }

  // ---- Render every artifact the covered systems can produce.
  {
    obs::Span render_span("dist_merge_render");
    report.artifacts = core::write_artifacts(
        study, report.out_dir, [&](const core::GoldenArtifact& artifact) {
          for (const parse::SystemId need : artifact.needs) {
            if (std::find(report.covered.begin(), report.covered.end(),
                          need) == report.covered.end()) {
              return false;
            }
          }
          return true;
        });
  }
  return report;
}

}  // namespace wss::dist
