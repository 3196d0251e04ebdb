#ifndef PPC_SERVER_FAILPOINTS_H_
#define PPC_SERVER_FAILPOINTS_H_

#include <atomic>
#include <cstdint>

namespace ppc {
namespace failpoints {

/// Deterministic fault-injection registry for the serving stack
/// (DESIGN.md §14). Compiled in unconditionally: every instrumented site
/// costs one relaxed atomic load plus a predictable branch while its
/// failpoint is disarmed, so production builds pay effectively nothing.
/// Tests arm a site with a Config describing *what* to inject (short
/// reads/writes, EAGAIN/EINTR storms, hard errors, frame truncation,
/// stalls) and *when* (every Nth hit, with a seeded probability, up to a
/// budget), then run real traffic against the fault.
///
/// Thread safety: Arm/Disarm may race freely with Hit() from the IO and
/// worker threads — the fast path reads an atomic site mask, and the slow
/// path takes a registry mutex. Counters are atomics; everything is
/// TSan-clean (tests/test_failpoints.cc hammers exactly this).

/// Instrumented sites. One bit each in the armed mask, so adding a site
/// means extending this enum (keep kSiteCount last).
enum class Site : uint32_t {
  kRecv = 0,   ///< net_util receive paths (client + IO-thread reads).
  kSend,       ///< net_util WriteAll (the IO thread's inline-reply send
               ///< passes an expired deadline, so it skips stalls).
  kAccept,     ///< PlanServer::AcceptConnections.
  kEnqueue,    ///< IO-thread admission (forces the BUSY path). The
               ///< PREDICTs the IO thread answers itself are never
               ///< enqueued, so they never pass it.
  kDispatch,   ///< worker-side dispatch (artificial worker stalls); the
               ///< IO thread's inline PREDICT runs never pass it.
  kRetune,     ///< background refit worker, hit before the rebuild
               ///< (kStallMs stretches the handoff window open so tests
               ///< can hammer serving mid-refit; kError aborts the refit,
               ///< which must leave the serving generation untouched).
  kSiteCount,
};

const char* SiteName(Site site);

/// What an armed failpoint injects when it fires.
enum class Kind : uint8_t {
  kNone = 0,
  kShortIo,    ///< clamp one read/write to `arg` bytes (min 1).
  kEagain,     ///< report EAGAIN without touching the socket.
  kEintr,      ///< report EINTR (the site retries, i.e. burns a loop).
  kError,      ///< hard failure (as if the peer reset the connection).
  kTruncate,   ///< send side: write `arg` bytes of the frame, then fail.
  kStallMs,    ///< sleep `arg` milliseconds at the site.
};

/// Arming descriptor. `every` / `probability_permille` / `budget` compose:
/// an evaluation fires only when it is the Nth hit since arming (every),
/// the seeded coin lands (probability), and the budget is not spent.
struct Config {
  Kind kind = Kind::kNone;
  /// Bytes for kShortIo / kTruncate, milliseconds for kStallMs.
  uint32_t arg = 1;
  /// Fire on every Nth eligible hit (1 = every hit, 3 = hits 3, 6, ...).
  uint32_t every = 1;
  /// Chance per eligible hit in [0, 1000]; draws come from a private
  /// xoshiro stream seeded with `seed`, so runs are reproducible.
  uint32_t probability_permille = 1000;
  uint64_t seed = 1;
  /// Fire at most this many times; < 0 means unlimited. Once spent the
  /// site behaves as disarmed (without clearing the mask bit).
  int64_t budget = -1;
};

/// The action an instrumented site must apply. kNone means proceed.
struct Action {
  Kind kind = Kind::kNone;
  uint32_t arg = 0;
};

void Arm(Site site, const Config& config);
void Disarm(Site site);
void DisarmAll();

/// Evaluations of an armed site (disarmed hits are not counted — the fast
/// path never reaches the registry).
uint64_t HitCount(Site site);
/// Times the site actually injected a fault.
uint64_t FiredCount(Site site);

namespace detail {
extern std::atomic<uint32_t> g_armed_mask;
Action EvaluateSlow(Site site);
}  // namespace detail

/// The per-site probe. Call at the top of the instrumented operation;
/// disarmed cost is the inlined mask check only.
inline Action Hit(Site site) {
  if ((detail::g_armed_mask.load(std::memory_order_relaxed) &
       (1u << static_cast<uint32_t>(site))) == 0) {
    return Action{};
  }
  return detail::EvaluateSlow(site);
}

/// Applies a kStallMs action (no-op otherwise), so sites don't each need
/// their own sleep plumbing.
void MaybeStall(const Action& action);

}  // namespace failpoints
}  // namespace ppc

#endif  // PPC_SERVER_FAILPOINTS_H_
