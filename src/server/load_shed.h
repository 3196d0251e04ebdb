#ifndef PPC_SERVER_LOAD_SHED_H_
#define PPC_SERVER_LOAD_SHED_H_

#include <atomic>
#include <cstdint>

namespace ppc {
namespace net {

/// Graceful-degradation ladder for the serving layer (DESIGN.md §14).
///
/// The paper's predictor already degrades gracefully at the *model* level
/// — near a plan boundary it abstains and the client falls back to its
/// own optimizer. This controller extends the same idea to *queue*
/// pressure, trading work quality for admission in three rungs:
///
///   kNormal        — full service.
///   kNoMicrobatch  — workers stop opportunistic micro-batching, so one
///                    slow batch cannot grow head-of-line latency while
///                    the queue is already deep.
///   kAbstainPredict — the IO thread answers single-point PREDICTs with
///                    the predictor's abstain shape (NULL plan,
///                    confidence 0) without queueing; the client falls
///                    back to its optimizer exactly as it would for a
///                    genuine abstention. EXECUTE (feedback-carrying)
///                    still queues.
///   (queue full    — BUSY, as always: the rung past the ladder.)
///
/// Pressure is an EWMA of queue occupancy sampled at every admission by
/// the IO thread (the single writer); workers read the level with one
/// relaxed atomic load. Rung changes apply hysteresis — the EWMA must
/// fall kHysteresis below a rung's entry threshold to leave it — so the
/// ladder cannot flap at a threshold.
class ShedController {
 public:
  enum Level : uint32_t {
    kNormal = 0,
    kNoMicrobatch = 1,
    kAbstainPredict = 2,
  };

  /// EWMA weight of the newest occupancy sample.
  static constexpr double kAlpha = 0.2;
  /// Entry thresholds (EWMA occupancy in [0, 1]).
  static constexpr double kNoMicrobatchAt = 0.50;
  static constexpr double kAbstainPredictAt = 0.75;
  /// A rung is left once the EWMA drops this far below its entry bar.
  static constexpr double kHysteresis = 0.15;

  /// Folds one occupancy sample (queued / capacity, in [0, 1]) into the
  /// EWMA and recomputes the rung. Single writer: the IO thread. Returns
  /// the level now in force.
  Level Observe(double occupancy) {
    ewma_ = kAlpha * occupancy + (1.0 - kAlpha) * ewma_;
    const Level current = level();
    Level next = current;
    if (current < kAbstainPredict && ewma_ >= kAbstainPredictAt) {
      next = kAbstainPredict;
    } else if (current < kNoMicrobatch && ewma_ >= kNoMicrobatchAt) {
      next = kNoMicrobatch;
    } else if (current == kAbstainPredict && Leaves(kAbstainPredictAt)) {
      next = ewma_ >= kNoMicrobatchAt ? kNoMicrobatch : kNormal;
    } else if (current == kNoMicrobatch && Leaves(kNoMicrobatchAt)) {
      next = kNormal;
    }
    if (next != current) level_.store(next, std::memory_order_relaxed);
    return next;
  }

  /// Current rung; any thread, lock-free.
  Level level() const {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }

 private:
  bool Leaves(double threshold) const {
    return ewma_ < threshold - kHysteresis;
  }

  /// Written by the IO thread only; read anywhere.
  std::atomic<uint32_t> level_{kNormal};
  double ewma_ = 0.0;
};

}  // namespace net
}  // namespace ppc

#endif  // PPC_SERVER_LOAD_SHED_H_
