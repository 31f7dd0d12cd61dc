#include "sim/render.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace wss::sim {

namespace {

constexpr std::string_view kPaths[] = {
    "/usr/src/gm/libgm", "/var/spool/pbs/mom_priv", "/etc/sysconfig",
    "/bgl/ciod/maps",    "/scratch/run42",
};

/// Lowercase severity token for the syslog priority field.
std::string_view priority_name(parse::Severity s) {
  switch (s) {
    case parse::Severity::kDebug:
      return "debug";
    case parse::Severity::kInfo:
      return "info";
    case parse::Severity::kNotice:
      return "notice";
    case parse::Severity::kWarning:
      return "warning";
    case parse::Severity::kError:
      return "err";
    case parse::Severity::kCrit:
      return "crit";
    case parse::Severity::kAlert:
      return "alert";
    case parse::Severity::kEmerg:
      return "emerg";
    default:
      return "info";
  }
}

}  // namespace

Renderer::Renderer(const SystemSpec& spec, const SourceNamer& namer,
                   CorruptionConfig corruption, std::uint64_t seed)
    : spec_(&spec),
      namer_(&namer),
      categories_(tag::categories_of(spec.id)),
      injector_(corruption, seed ^ 0xc0ffee),
      seed_(seed) {}

tag::LogPath Renderer::path_of(const SimEvent& e) const {
  if (e.is_alert()) {
    return categories_.at(static_cast<std::size_t>(e.category))->path;
  }
  return chatter_templates(spec_->id).at(e.chatter_kind).path;
}

void Renderer::append_body(std::string& out, std::string_view tmpl,
                           const SimEvent& e, const util::CivilTime& ct,
                           util::Rng& rng) const {
  for (std::size_t i = 0; i < tmpl.size();) {
    if (tmpl[i] != '{') {
      out.push_back(tmpl[i]);
      ++i;
      continue;
    }
    const std::size_t close = tmpl.find('}', i);
    if (close == std::string_view::npos) {
      out.append(tmpl.substr(i));
      break;
    }
    const std::string_view key = tmpl.substr(i + 1, close - i - 1);
    if (key == "n") {
      util::append_decimal(
          out, static_cast<std::uint64_t>(rng.uniform_i64(1, 9999)));
    } else if (key == "ip") {
      // Last octet first. The pinned bytes come from these three draws
      // as the arguments of one call, which C++ leaves unordered and
      // gcc evaluates right to left; named locals fix that order on
      // every compiler.
      const auto d = static_cast<std::uint64_t>(rng.uniform_i64(1, 254));
      const auto c = static_cast<std::uint64_t>(rng.uniform_i64(0, 255));
      const auto b = static_cast<std::uint64_t>(rng.uniform_i64(0, 3));
      out.append("10.");
      util::append_decimal(out, b);
      out.push_back('.');
      util::append_decimal(out, c);
      out.push_back('.');
      util::append_decimal(out, d);
    } else if (key == "hex") {
      util::append_hex(out, rng(), 16);
    } else if (key == "path") {
      out.append(kPaths[rng.uniform_u64(std::size(kPaths))]);
    } else if (key == "node") {
      out.append(namer_->name(e.source));
    } else if (key == "time") {
      util::append_iso_time(out, ct);
    } else {
      out.append(tmpl.substr(i, close - i + 1));  // unknown: literal
    }
    i = close + 1;
  }
}

tag::LogPath Renderer::base_line_into(std::string& out, const SimEvent& e,
                                      std::uint64_t event_index) const {
  util::Rng rng(seed_ ^ (event_index * 0x2545f4914f6cdd1dull));

  std::string_view program;
  std::string_view body_tmpl;
  tag::LogPath path;
  if (e.is_alert()) {
    const tag::CategoryInfo& c =
        *categories_.at(static_cast<std::size_t>(e.category));
    program = c.program;
    body_tmpl = c.body_template;
    path = c.path;
  } else {
    const ChatterTemplate& t = chatter_templates(spec_->id).at(e.chatter_kind);
    program = t.program;
    body_tmpl = t.body;
    path = t.path;
  }
  const std::string& host = namer_->name(e.source);
  const util::CivilTime ct = util::to_civil(e.time);
  out.clear();

  switch (path) {
    case tag::LogPath::kSyslog: {
      util::append_syslog_time(out, ct);
      out.push_back(' ');
      out.append(host);
      out.push_back(' ');
      std::size_t pid_at = 0;
      if (!program.empty()) {
        out.append(program);
        // Daemons log with a pid; the kernel does not.
        if (program != "kernel" && program != "check-disks") {
          pid_at = out.size();
        }
        out.append(": ");
      }
      append_body(out, body_tmpl, e, ct, rng);
      if (pid_at != 0) {
        // The pid is drawn after the body's placeholders (the draw
        // order the pinned bytes depend on), then spliced in before ": ".
        std::string pid = "[";  // at most "[32000]": fits the SSO buffer
        util::append_decimal(pid, static_cast<std::uint64_t>(
                                      rng.uniform_i64(200, 32000)));
        pid.push_back(']');
        out.insert(pid_at, pid);
      }
      return path;
    }
    case tag::LogPath::kBglRas: {
      // Simulated logs start in 2004-2006, so the epoch is positive.
      util::append_decimal(
          out, static_cast<std::uint64_t>(e.time / util::kUsPerSec));
      out.push_back(' ');
      util::append_decimal(out, static_cast<std::uint64_t>(ct.year), 4);
      out.push_back('.');
      util::append_decimal(out, static_cast<std::uint64_t>(ct.month), 2);
      out.push_back('.');
      util::append_decimal(out, static_cast<std::uint64_t>(ct.day), 2);
      out.push_back(' ');
      out.append(host);
      out.push_back(' ');
      util::append_bgl_time(out, ct);
      out.push_back(' ');
      out.append(host);
      out.append(" RAS ");
      out.append(program.empty() ? "KERNEL" : program);
      out.push_back(' ');
      out.append(parse::severity_bgl_name(e.severity));
      out.push_back(' ');
      append_body(out, body_tmpl, e, ct, rng);
      return path;
    }
    case tag::LogPath::kRsSyslog:
    case tag::LogPath::kRsDdn: {
      util::append_syslog_time(out, ct);
      out.push_back(' ');
      out.append(host);
      out.push_back(' ');
      const bool kern = program == "kernel";
      out.append(path == tag::LogPath::kRsDdn ? "local0"
                                              : (kern ? "kern" : "daemon"));
      out.push_back('.');
      out.append(priority_name(e.severity));
      out.push_back(' ');
      if (!program.empty()) {
        out.append(program);
        out.append(": ");
      }
      append_body(out, body_tmpl, e, ct, rng);
      return path;
    }
    case tag::LogPath::kRsEventRouter: {
      util::append_iso_time(out, ct);
      out.push_back(' ');
      out.append(program.empty() ? "ec_event" : program);
      out.append(" src:::");
      out.append(host);
      out.append(" svc:::");
      out.append(host);
      out.push_back(' ');
      append_body(out, body_tmpl, e, ct, rng);
      return path;
    }
  }
  throw std::logic_error("Renderer: unknown log path");
}

void Renderer::render_into(std::string& out, const SimEvent& e,
                           std::uint64_t event_index) const {
  const tag::LogPath path = base_line_into(out, e, event_index);
  injector_.apply_in_place(out, event_index, path, e.is_alert());
}

std::string Renderer::render(const SimEvent& e,
                             std::uint64_t event_index) const {
  std::string line;
  render_into(line, e, event_index);
  return line;
}

std::string Renderer::render_clean(const SimEvent& e,
                                   std::uint64_t event_index) const {
  std::string line;
  base_line_into(line, e, event_index);
  return line;
}

}  // namespace wss::sim
