// Whole-file I/O: the one way wss reads a file into memory and the one
// way it publishes a file (stream checkpoints, serve drain checkpoints,
// dist partials and manifests, --metrics exports).
#pragma once

#include <functional>
#include <istream>
#include <ostream>
#include <string>

namespace wss::util {

/// Publishes `path` so that readers see either the previous file or
/// the complete new one, never a torn write: `write` fills a tmp file
/// next to `path`, which is flushed, fsync'd and renamed over `path`.
/// The tmp name is `path.<tag>.tmp`; an empty `tmp_tag` picks one that
/// is unique per process and call, a non-empty one lets racing
/// processes keep apart by name. On any failure -- open, `write`
/// throwing, flush, fsync, rename -- the tmp file is removed, `path`
/// is left as it was, and std::runtime_error is thrown with one line
/// naming `path` ("cannot open PATH" or "cannot write PATH: why").
void publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write,
                  const std::string& tmp_tag = "");

/// Reads `is` to its end.
std::string read_stream(std::istream& is);

/// Reads the whole of `path`. Throws std::runtime_error
/// ("cannot open PATH") when it cannot be opened.
std::string read_file(const std::string& path);

}  // namespace wss::util
