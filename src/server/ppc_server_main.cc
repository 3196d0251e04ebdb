// ppc_server: one plan-prediction shard (DESIGN.md §12, §15).
//
// Serves the wire protocol of server/wire_protocol.h over TCP for a
// deterministic TPC-H catalog, so every shard started with the same
// --scale/--catalog-seed flags holds an identical plan space — the
// property the consistent-hash router and the snapshot replication
// protocol both rely on.
//
// Readiness handshake: after a successful bind the process prints
// exactly one line `LISTENING <port>` to stdout and flushes it. Drivers
// (scripts/check.sh, bench/bench_cluster_throughput.cc) parse that line
// instead of sleeping.
//
// Warm start: --warm-start-from=host:port pulls the leader's serialized
// PredictorState over the wire (SNAPSHOT), validates it, and applies it
// before the readiness line — a joining shard is never observable in a
// cold state.
//
// Flags (--key=value):
//   --bind=ADDR            bind address        (default 127.0.0.1)
//   --port=N               listen port         (default 0 = ephemeral)
//   --workers=N            worker threads      (default 4)
//   --templates=Q1,Q3     registered templates (default Q0..Q8)
//   --scale=F              TPC-H scale factor  (default 0.002)
//   --catalog-seed=N       TPC-H RNG seed      (default 42)
//   --warm-start-from=H:P  leader shard to pull a snapshot from
//   --retune=0|1           adaptive LSH retuning (default 0 = off)
//   --retune-precision=F   windowed-precision trigger (default 0.6)
//   --retune-reservoir=N   retained points per template (default 256)
//   --retune-cooldown=N    observations between refits (default 200)

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "ppc/ppc_framework.h"
#include "ppc/predictor_state.h"
#include "server/client.h"
#include "server/net_util.h"
#include "server/server.h"
#include "storage/tpch_generator.h"
#include "workload/templates.h"

namespace {

using ppc::PlanServer;
using ppc::PpcClient;
using ppc::PpcFramework;
using ppc::PredictorState;
using ppc::ServingConfig;
using ppc::Status;

struct Flags {
  std::string bind = "127.0.0.1";
  uint16_t port = 0;
  int workers = 4;
  std::vector<std::string> templates;
  double scale = 0.002;
  uint64_t catalog_seed = 42;
  std::string warm_start_host;
  uint16_t warm_start_port = 0;
  bool retune = false;
  double retune_precision = 0.6;
  size_t retune_reservoir = 256;
  size_t retune_cooldown = 200;
};

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= csv.size()) {
    const size_t comma = csv.find(',', begin);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > begin) parts.push_back(csv.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

bool ParseHostPort(const std::string& value, std::string* host,
                   uint16_t* port) {
  const size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  if (!ppc::net::ParsePort(value.substr(colon + 1), port) || *port == 0) {
    return false;
  }
  *host = value.substr(0, colon);
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "bind") {
      flags->bind = value;
    } else if (key == "port") {
      if (!ppc::net::ParsePort(value, &flags->port)) {
        std::fprintf(stderr, "bad --port (want 0-65535): %s\n",
                     value.c_str());
        return false;
      }
    } else if (key == "workers") {
      flags->workers = static_cast<int>(std::strtol(value.c_str(),
                                                    nullptr, 10));
    } else if (key == "templates") {
      flags->templates = SplitCsv(value);
    } else if (key == "scale") {
      flags->scale = std::strtod(value.c_str(), nullptr);
    } else if (key == "catalog-seed") {
      flags->catalog_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "retune") {
      flags->retune = value != "0";
    } else if (key == "retune-precision") {
      flags->retune_precision = std::strtod(value.c_str(), nullptr);
    } else if (key == "retune-reservoir") {
      flags->retune_reservoir =
          static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (key == "retune-cooldown") {
      flags->retune_cooldown =
          static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (key == "warm-start-from") {
      if (!ParseHostPort(value, &flags->warm_start_host,
                         &flags->warm_start_port)) {
        std::fprintf(stderr, "bad --warm-start-from (want host:port): %s\n",
                     value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  if (flags->templates.empty()) {
    flags->templates = {"Q0", "Q1", "Q2", "Q3", "Q4",
                        "Q5", "Q6", "Q7", "Q8"};
  }
  return true;
}

Status WarmStart(PpcFramework* framework, const Flags& flags) {
  PpcClient::Options options;
  options.call_deadline_ms = 30000;
  options.retry.max_attempts = 5;
  PpcClient leader(options);
  PPC_RETURN_NOT_OK(
      leader.Connect(flags.warm_start_host, flags.warm_start_port));
  std::string blob;
  PPC_ASSIGN_OR_RETURN(blob, leader.FetchSnapshot());
  PredictorState state;
  PPC_ASSIGN_OR_RETURN(state, PredictorState::Restore(blob));
  PredictorState::ApplyReport report;
  PPC_ASSIGN_OR_RETURN(report, state.ApplyTo(framework));
  std::fprintf(stderr,
               "warm start from %s:%u: sequence=%llu applied=%zu "
               "skipped=%zu generations_installed=%zu (%zu bytes)\n",
               flags.warm_start_host.c_str(), flags.warm_start_port,
               static_cast<unsigned long long>(state.sequence()),
               report.templates_applied, report.templates_skipped,
               report.generations_installed, blob.size());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  ppc::TpchConfig tpch;
  tpch.scale_factor = flags.scale;
  tpch.seed = flags.catalog_seed;
  std::unique_ptr<ppc::Catalog> catalog = ppc::BuildTpchCatalog(tpch);

  PpcFramework::Config serving = ServingConfig();
  serving.retune.enabled = flags.retune;
  serving.retune.precision_trigger = flags.retune_precision;
  serving.retune.reservoir_capacity = flags.retune_reservoir;
  serving.retune.cooldown_observations = flags.retune_cooldown;
  PpcFramework framework(catalog.get(), serving);
  for (const std::string& name : flags.templates) {
    const Status registered =
        framework.RegisterTemplate(ppc::EvaluationTemplate(name));
    if (!registered.ok()) {
      std::fprintf(stderr, "template %s: %s\n", name.c_str(),
                   registered.ToString().c_str());
      return 2;
    }
  }

  PlanServer::Config config;
  config.bind_address = flags.bind;
  config.port = flags.port;
  config.worker_threads = flags.workers;
  PlanServer server(&framework, config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }

  if (!flags.warm_start_host.empty()) {
    const Status warmed = WarmStart(&framework, flags);
    if (!warmed.ok()) {
      std::fprintf(stderr, "warm start failed: %s\n",
                   warmed.ToString().c_str());
      server.Stop();
      return 1;
    }
  }

  // The readiness handshake: drivers wait for this exact line.
  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  const Status handlers = ppc::InstallShutdownSignalHandlers(&server);
  if (!handlers.ok()) {
    std::fprintf(stderr, "signal handlers: %s\n",
                 handlers.ToString().c_str());
    server.Stop();
    return 1;
  }
  server.Wait();
  return 0;
}
