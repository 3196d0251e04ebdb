#include "stream.h"

#include "common/macros.h"
#include "common/rng.h"
#include "workload/scenarios.h"
#include "workload/templates.h"

namespace perfbench {

namespace {
constexpr uint64_t kMaxSkip = 16;
}  // namespace

Stream MakeStream(uint64_t population_seed, uint64_t sample_seed,
                  size_t fixed_prefix, size_t count) {
  Stream stream;
  ppc::ScenarioConfig config;
  for (const ppc::QueryTemplate& t : ppc::EvaluationTemplates()) {
    config.templates.push_back({t.name, t.ParameterDegree()});
    stream.names.push_back(t.name);
    stream.dims.push_back(t.ParameterDegree());
  }
  config.seed = population_seed;
  auto generator = ppc::MakeScenario("zipf_tenants", config);
  PPC_CHECK_MSG(generator.ok(), generator.status().ToString().c_str());
  stream.tmpl.reserve(count);
  stream.offset.reserve(count);
  ppc::Rng fixed(0);
  ppc::Rng sampled(sample_seed);
  for (size_t i = 0; i < count; ++i) {
    ppc::Rng& pick = i < fixed_prefix ? fixed : sampled;
    for (uint64_t skip = pick.UniformInt(kMaxSkip); skip > 0; --skip) {
      generator.value()->Next();
    }
    const ppc::ScenarioEvent event = generator.value()->Next();
    stream.tmpl.push_back(event.template_index);
    stream.offset.push_back(static_cast<uint32_t>(stream.coords.size()));
    stream.coords.insert(stream.coords.end(), event.point.begin(),
                         event.point.end());
  }
  return stream;
}

}  // namespace perfbench
