#include "load/load_model.hpp"

#include <charconv>
#include <stdexcept>

#include "platform/cluster.hpp"

namespace simsweep::load {

std::string describe_number(double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc())
    throw std::runtime_error("describe_number: to_chars failed");
  return std::string(buf, ptr);
}

void LoadSource::start(sim::Simulator&, platform::Host& host) {
  host.drive(*this);
}

void LoadModel::attach_all(const LoadModel& model, platform::Cluster& cluster,
                           std::uint64_t root_seed) {
  for (std::size_t i = 0; i < cluster.size(); ++i)
    cluster.host(static_cast<platform::HostId>(i))
        .drive(model.make_source(sim::Rng(root_seed, i)));
}

}  // namespace simsweep::load
