#include "sim/sources.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace wss::sim {

SourceNamer::SourceNamer(parse::SystemId system, std::uint32_t n_sources)
    : system_(system), n_(n_sources) {
  if (n_sources < 16) {
    throw std::invalid_argument("SourceNamer: need at least 16 sources");
  }
  n_admin_ = system == parse::SystemId::kBlueGeneL ? 2 : 8;
  names_.reserve(n_);
  for (std::uint32_t id = 0; id < n_; ++id) names_.push_back(make_name(id));
}

const std::string& SourceNamer::name(std::uint32_t id) const {
  if (id >= n_) throw std::out_of_range("SourceNamer: bad source id");
  return names_[id];
}

std::string SourceNamer::make_name(std::uint32_t id) const {
  const std::uint32_t admin_rank = id >= first_admin() ? id - first_admin() : 0;
  switch (system_) {
    case parse::SystemId::kBlueGeneL: {
      if (is_admin(id)) {
        // The two service-node MMCS processes per rack pair.
        return util::format("R%02u-SVC", admin_rank);
      }
      // Location codes: rack / midplane / node card / chip.
      const std::uint32_t rack = id / 32;
      const std::uint32_t mid = (id / 16) % 2;
      const std::uint32_t card = (id / 2) % 8;
      const std::uint32_t chip = id % 2;
      return util::format("R%02u-M%u-N%u-C:J%02u-U%02u", rack, mid, card,
                          12 + chip * 6, 1 + chip);
    }
    case parse::SystemId::kThunderbird:
      if (is_admin(id)) {
        if (admin_rank == 0) return "tbird-admin1";
        if (admin_rank == 1) return "tbird-sm1";
        return util::format("tbird-login%u", admin_rank - 1);
      }
      return util::format("tbird-cn%u", id + 1);
    case parse::SystemId::kRedStorm:
      if (is_admin(id)) {
        if (admin_rank == 0) return "smw";
        if (admin_rank < 4) return util::format("login%u", admin_rank);
        return util::format("ddn%u", admin_rank - 3);
      }
      return util::format("c%u-%uc%us%un%u", id / 64, (id / 16) % 4,
                          (id / 8) % 2, (id / 2) % 4, id % 2);
    case parse::SystemId::kSpirit:
      if (is_admin(id)) return util::format("sadmin%u", admin_rank + 1);
      // Plain index naming so the paper's special nodes keep their
      // names: id 373 -> "sn373", id 325 -> "sn325".
      return util::format("sn%u", id);
    case parse::SystemId::kLiberty:
      if (is_admin(id)) return util::format("ladmin%u", admin_rank + 1);
      return util::format("ln%u", id);
  }
  return "?";
}

}  // namespace wss::sim
