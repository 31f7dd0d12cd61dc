// The file driver (stream::ingest_file) against the line-by-line
// reference: on all five systems, at 1, 2 and 4 threads, the rendered
// report, the emitted alert/prediction stream and the checkpoint bytes
// must equal a plain StreamPipeline::ingest_line loop over the same
// lines -- through --max-events cuts, a checkpoint resume mid-file,
// year rollovers inferred on the dispatcher's lookahead tracker, and
// the compression fraction computed off the engine thread.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/generator.hpp"
#include "stream/file_ingest.hpp"
#include "stream/pipeline.hpp"
#include "stream/report.hpp"
#include "util/time.hpp"

namespace wss::stream {
namespace {

namespace fs = std::filesystem;

/// What `wss stream --in` leaves behind.
struct Outcome {
  std::string report;
  std::string emitted;
  std::string checkpoint;
  std::uint64_t applied = 0;
  bool truncated = false;
  int rollovers = 0;
};

StreamPipelineOptions file_options() {
  StreamPipelineOptions o;
  o.strict_order = false;
  o.predict.enabled = true;
  o.predict.train_alerts = 200;
  return o;
}

std::string render_log(parse::SystemId system, std::uint64_t cap,
                       std::uint64_t chatter) {
  sim::SimOptions opts;
  opts.category_cap = cap;
  opts.chatter_events = chatter;
  const sim::Simulator simulator(system, opts);
  std::string text;
  simulator.for_each_line([&](std::string_view l) {
    text.append(l);
    text.push_back('\n');
  });
  return text;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    out.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

class FileIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("wss_file_ingest_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Writes `text` to a file so the driver reads mapped pages, the
  /// path that releases them as it goes.
  fs::path write_log(const std::string& text) {
    const fs::path path = dir_ / "log.txt";
    std::ofstream os(path, std::ios::binary);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
    return path;
  }

  /// One `wss stream --in` pass: optional restore, then either the
  /// reference ingest_line loop (threads < 0) or the driver, then
  /// finish unless truncated, checkpoint and render.
  static Outcome run(parse::SystemId system, const fs::path& log,
                     int threads, std::uint64_t max_lines,
                     const std::string* restore = nullptr) {
    obs::registry().reset();
    Outcome out;
    StreamPipeline pipeline(system, file_options());
    if (restore != nullptr) {
      std::istringstream is(*restore);
      pipeline.restore(is);
    }
    std::ostringstream emit;
    pipeline.set_alert_sink([&emit](const filter::Alert& a) {
      emit << util::format_iso(a.time) << ' ' << a.category << ' '
           << filter::alert_type_letter(a.type) << ' ' << a.source << '\n';
    });
    pipeline.set_prediction_sink([&emit](const predict::Prediction& p) {
      emit << "P " << util::format_iso(p.issued_at) << ' ' << p.category
           << ' ' << util::format_iso(p.window_begin) << ' '
           << util::format_iso(p.window_end) << '\n';
    });

    logio::InputBuffer input = logio::InputBuffer::open(log);
    if (threads < 0) {
      const std::vector<std::string_view> lines = split_lines(input.view());
      for (std::size_t i = pipeline.events(); i < lines.size(); ++i) {
        pipeline.ingest_line(lines[i]);
        if (++out.applied == max_lines) {
          out.truncated = true;
          break;
        }
      }
    } else {
      FileIngestOptions opts;
      opts.threads = threads;
      opts.skip_lines = pipeline.events();
      opts.max_lines = max_lines;
      const FileIngestResult r = ingest_file(pipeline, input, opts);
      out.applied = r.applied;
      out.truncated = r.truncated;
    }
    if (!out.truncated) pipeline.finish();
    std::ostringstream ck;
    pipeline.save(ck);
    out.checkpoint = ck.str();
    out.report = render_snapshot(pipeline.snapshot());
    out.emitted = emit.str();
    out.rollovers = pipeline.year_rollovers();
    return out;
  }

  static void expect_same(const Outcome& got, const Outcome& want,
                          const std::string& what) {
    EXPECT_EQ(got.applied, want.applied) << what;
    EXPECT_EQ(got.truncated, want.truncated) << what;
    EXPECT_EQ(got.report, want.report) << what;
    EXPECT_EQ(got.emitted, want.emitted) << what;
    EXPECT_TRUE(got.checkpoint == want.checkpoint)
        << what << ": checkpoint bytes differ";
  }

  fs::path dir_;
};

constexpr int kThreadCounts[] = {1, 2, 4};

/// The driver's batch size (file_ingest.cpp). Logs span many batches,
/// so at 4 threads the full in-flight window of 8 is exercised.
constexpr std::uint64_t kBatch = 1024;
constexpr std::uint64_t kChatter = 9000;

TEST_F(FileIngestTest, EveryThreadCountMatchesLineByLineOnAllSystems) {
  for (const parse::SystemId system : parse::kAllSystems) {
    const std::string name(parse::system_short_name(system));
    const fs::path log = write_log(render_log(system, 300, kChatter));
    const Outcome whole = run(system, log, -1, 0);
    EXPECT_FALSE(whole.truncated);
    ASSERT_GT(whole.applied, 9 * kBatch) << name;
    for (const int t : kThreadCounts) {
      expect_same(run(system, log, t, 0), whole,
                  name + " at " + std::to_string(t) + " threads");
    }
  }
}

TEST_F(FileIngestTest, MaxEventsCutsMatchOnAndOffTheLastLine) {
  for (const parse::SystemId system :
       {parse::SystemId::kBlueGeneL, parse::SystemId::kLiberty}) {
    const std::string name(parse::system_short_name(system));
    const std::string text = render_log(system, 300, kChatter);
    const fs::path log = write_log(text);
    const std::uint64_t total = split_lines(text).size();
    ASSERT_NE(total % kBatch, 0u) << name;
    // A cut off a batch boundary on a middle line, one on the last
    // line (still "paused"), and a budget the file runs out before.
    const std::uint64_t cut = 5 * kBatch + 13;
    const Outcome mid = run(system, log, -1, cut);
    const Outcome last = run(system, log, -1, total);
    const Outcome over = run(system, log, -1, total + 5);
    EXPECT_TRUE(mid.truncated);
    EXPECT_TRUE(last.truncated);
    EXPECT_FALSE(over.truncated);
    for (const int t : kThreadCounts) {
      const std::string at = name + " at " + std::to_string(t) + " threads";
      expect_same(run(system, log, t, cut), mid, at + ", max off a batch");
      expect_same(run(system, log, t, total), last, at + ", max = lines");
      expect_same(run(system, log, t, total + 5), over, at + ", max > lines");
    }
  }
}

TEST_F(FileIngestTest, ResumeMidFileMatchesUninterrupted) {
  for (const parse::SystemId system :
       {parse::SystemId::kBlueGeneL, parse::SystemId::kLiberty}) {
    const std::string name(parse::system_short_name(system));
    const fs::path log = write_log(render_log(system, 300, kChatter));
    const Outcome head = run(system, log, -1, 3 * kBatch + 11);
    ASSERT_TRUE(head.truncated);
    const Outcome tail = run(system, log, -1, 0, &head.checkpoint);
    for (const int t : kThreadCounts) {
      const std::string at = name + " at " + std::to_string(t) + " threads";
      expect_same(run(system, log, t, 0, &head.checkpoint), tail, at);
    }
  }
}

TEST_F(FileIngestTest, LookaheadYearTrackerMatchesAcrossRollovers) {
  // Spirit's collection spans two calendar years of syslog stamps,
  // which carry no year: every line's year is inferred. At 4 threads
  // the lookahead tracker runs up to 8 batches ahead of the engine's.
  const std::string text =
      render_log(parse::SystemId::kSpirit, 300, 2 * kChatter);
  const fs::path log = write_log(text);
  const Outcome ref = run(parse::SystemId::kSpirit, log, -1, 0);
  ASSERT_GT(ref.rollovers, 0);
  for (const int t : kThreadCounts) {
    const Outcome got = run(parse::SystemId::kSpirit, log, t, 0);
    expect_same(got, ref, "spirit at " + std::to_string(t) + " threads");
    EXPECT_EQ(got.rollovers, ref.rollovers);
  }
}

TEST_F(FileIngestTest, CompressionFractionOffTheEngineThreadIsExact) {
  // Past the 20,000-line Table 2 sample, so the fraction is computed
  // on its own thread and primes the snapshot's cache.
  const std::string text = render_log(parse::SystemId::kLiberty, 300, 24000);
  ASSERT_GT(split_lines(text).size(), kCompressionSampleLines);
  const fs::path log = write_log(text);
  const Outcome ref = run(parse::SystemId::kLiberty, log, -1, 0);
  for (const int t : kThreadCounts) {
    expect_same(run(parse::SystemId::kLiberty, log, t, 0), ref, "liberty at " + std::to_string(t) + " threads");
  }
}

TEST_F(FileIngestTest, StopDrainsTheDispatchedWindow) {
  // stop() fires after the first poll: whatever was dispatched is
  // applied, the run reports truncated, and the state equals a
  // line-by-line run over exactly that many lines.
  const fs::path log =
      write_log(render_log(parse::SystemId::kThunderbird, 300, kChatter));
  for (const int t : kThreadCounts) {
    obs::registry().reset();
    StreamPipeline pipeline(parse::SystemId::kThunderbird, file_options());
    logio::InputBuffer input = logio::InputBuffer::open(log);
    FileIngestOptions opts;
    opts.threads = t;
    int polls = 0;
    opts.stop = [&polls] { return ++polls > 3; };
    const FileIngestResult r = ingest_file(pipeline, input, opts);
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.applied, 3 * kBatch) << t << " threads";
    EXPECT_EQ(pipeline.events(), 3 * kBatch);
    std::ostringstream got;
    pipeline.save(got);
    const Outcome want =
        run(parse::SystemId::kThunderbird, log, -1, 3 * kBatch);
    EXPECT_TRUE(got.str() == want.checkpoint) << t << " threads";
  }
}

TEST_F(FileIngestTest, OnAppliedSeesEveryLineInOrder) {
  const fs::path log =
      write_log(render_log(parse::SystemId::kRedStorm, 300, kChatter));
  for (const int t : kThreadCounts) {
    StreamPipeline pipeline(parse::SystemId::kRedStorm, file_options());
    logio::InputBuffer input = logio::InputBuffer::open(log);
    FileIngestOptions opts;
    opts.threads = t;
    std::uint64_t calls = 0;
    opts.on_applied = [&](std::uint64_t n) {
      ++calls;
      EXPECT_EQ(n, calls);
      EXPECT_EQ(pipeline.events(), n);
    };
    const FileIngestResult r = ingest_file(pipeline, input, opts);
    EXPECT_EQ(calls, r.applied) << t << " threads";
  }
}

}  // namespace
}  // namespace wss::stream
