// ppc_router: the consistent-hash front door for a fleet of ppc_server
// shards (DESIGN.md §15).
//
// Speaks the same wire protocol as the shards; PREDICT / PREDICT_BATCH /
// EXECUTE are routed by template name over the hash ring, PING/METRICS/
// TOPOLOGY are answered locally. Prints `LISTENING <port>` to stdout
// once ready (same readiness handshake as ppc_server).
//
// Health model (DESIGN.md §18): a background prober PINGs every backend,
// consecutive failures open a per-backend circuit breaker, requests for
// an open primary fail over to its ring-successor replica (EXECUTEs come
// back FAILED_OVER-flagged), replicas are kept warm by periodic snapshot
// shipping, and a returning shard is warm-started from its replicas
// before the half-open probe re-admits it.
//
// Flags (--key=value):
//   --bind=ADDR                     bind address (default 127.0.0.1)
//   --port=N                        listen port  (default 0 = ephemeral)
//   --backends=H:P,H:P,...          initial shard set (may be empty;
//                                   shards can join later via TOPOLOGY)
//   --backend-deadline-ms=N         per-forward deadline (default 5000)
//   --probe-interval-ms=N           health-probe cadence; 0 disables the
//                                   health thread (default 250)
//   --probe-deadline-ms=N           per-probe deadline (default 1000)
//   --replication-interval-ms=N     replica warm-keeping cadence; 0
//                                   disables shipping (default 2000)
//   --breaker-failure-threshold=N   consecutive failures that open a
//                                   backend's breaker (default 3)
//   --breaker-cooldown-ms=N         open-state cooldown before the
//                                   half-open probe (default 1000)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/hash_ring.h"
#include "server/net_util.h"
#include "server/router.h"

namespace {

using ppc::HashRing;
using ppc::PlanRouter;
using ppc::Status;

bool ParseBackend(const std::string& value, HashRing::Node* node) {
  const size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  if (!ppc::net::ParsePort(value.substr(colon + 1), &node->port) ||
      node->port == 0) {
    return false;
  }
  node->host = value.substr(0, colon);
  return true;
}

bool ParseFlags(int argc, char** argv, PlanRouter::Config* config) {
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
      config->bind_address = value;
    } else if (key == "port") {
      if (!ppc::net::ParsePort(value, &config->port)) {
        std::fprintf(stderr, "bad --port (want 0-65535): %s\n",
                     value.c_str());
        return false;
      }
    } else if (key == "backend-deadline-ms") {
      config->backend_deadline_ms = std::strtol(value.c_str(), nullptr, 10);
    } else if (key == "probe-interval-ms") {
      config->probe_interval_ms = std::strtol(value.c_str(), nullptr, 10);
    } else if (key == "probe-deadline-ms") {
      config->probe_deadline_ms = std::strtol(value.c_str(), nullptr, 10);
    } else if (key == "replication-interval-ms") {
      config->replication_interval_ms =
          std::strtol(value.c_str(), nullptr, 10);
    } else if (key == "breaker-failure-threshold") {
      config->breaker.failure_threshold =
          static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
    } else if (key == "breaker-cooldown-ms") {
      config->breaker.open_cooldown_ms =
          std::strtol(value.c_str(), nullptr, 10);
    } else if (key == "backends") {
      size_t begin = 0;
      while (begin <= value.size()) {
        const size_t comma = value.find(',', begin);
        const size_t end = comma == std::string::npos ? value.size() : comma;
        if (end > begin) {
          HashRing::Node node;
          if (!ParseBackend(value.substr(begin, end - begin), &node)) {
            std::fprintf(stderr, "bad backend (want host:port): %s\n",
                         value.substr(begin, end - begin).c_str());
            return false;
          }
          config->backends.push_back(node);
        }
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  PlanRouter::Config config;
  if (!ParseFlags(argc, argv, &config)) return 2;

  PlanRouter router(config);
  const Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  const Status handlers = ppc::InstallShutdownSignalHandlers(&router);
  if (!handlers.ok()) {
    std::fprintf(stderr, "signal handlers: %s\n",
                 handlers.ToString().c_str());
    router.Stop();
    return 1;
  }

  std::fprintf(stderr, "routing across %zu backend(s)\n",
               router.backend_count());
  std::printf("LISTENING %u\n", router.port());
  std::fflush(stdout);

  router.Wait();
  return 0;
}
