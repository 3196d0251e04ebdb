#ifndef PPC_PPC_PREDICTOR_STATE_H_
#define PPC_PPC_PREDICTOR_STATE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace ppc {

class PpcFramework;

/// The replicable half of a PpcFramework: every registered template's
/// learned predictor state, captured as one versioned, checksummed blob.
///
/// This is the unit of warm-start replication (DESIGN.md §15): a leader
/// shard captures its state, a joining shard fetches the blob over the
/// wire (SNAPSHOT), validates it outside-in, and adopts it into its own
/// registered predictors — serving from the leader's densities instead of
/// cold-learning. The framework's *non*-replicable state (plan cache
/// contents, precision/recall windows, RNGs) deliberately stays local:
/// plans re-enter a replica's cache through its own optimizer, and the
/// estimator windows must measure the replica's serving quality.
///
/// Each per-template predictor blob is itself the predictor's versioned
/// snapshot format, carried opaquely here with a content hash, so a
/// shipper can tell which templates changed since its last ship by hash
/// comparison and send only those as a Filtered subset.
class PredictorState {
 public:
  struct TemplateEntry {
    std::string name;
    /// Transform generation the blob was captured at (PPCR v2). Carried
    /// redundantly with the generation inside the blob so the container
    /// can gate cross-generation mixing without parsing the opaque blob,
    /// and the two must agree (ApplyTo verifies).
    uint32_t generation = 0;
    /// FNV-1a of `blob`; doubles as per-entry integrity check and the
    /// change detector for the router's replication ships.
    uint64_t content_hash = 0;
    /// LshHistogramsPredictor::Serialize() output (opaque here).
    std::string blob;
  };

  /// Outcome of ApplyTo: how many templates were warm-started and how
  /// many were skipped because the target framework does not register
  /// them (heterogeneous template sets are allowed; config mismatches on
  /// a shared template are not — they fail the whole apply).
  struct ApplyReport {
    size_t templates_applied = 0;
    size_t templates_skipped = 0;
    /// Of the applied templates, how many arrived from a newer transform
    /// generation and were installed via the warm generation handoff
    /// (rather than adopted in place).
    size_t generations_installed = 0;
  };

  PredictorState() = default;

  /// Captures every registered template's predictor snapshot. Safe
  /// against concurrent serving (each predictor serializes under its
  /// read lock); the capture is per-template consistent, not one atomic
  /// cut across templates — the same guarantee MetricsSnapshot gives.
  static PredictorState Capture(const PpcFramework& framework);

  /// Serializes as a full snapshot (format PPCR v2, trailing FNV-1a
  /// checksum).
  std::string Serialize() const;

  /// Parses a full snapshot. Fails with InvalidArgument on bad magic,
  /// unsupported version, checksum mismatch, structural corruption, or a
  /// non-zero flag byte (v2 reserves it; no writer sets it).
  static Result<PredictorState> Restore(const std::string& bytes);

  /// Subset copy holding only the entries `keep` accepts, carrying the
  /// same capture sequence. This is how the router's replica
  /// warm-keeping ships a primary's *authoritative* templates (and only
  /// those) to their replica shard: a full capture contains every
  /// registered template — cold copies included — and applying it
  /// unfiltered would overwrite the receiving shard's own warm state for
  /// the templates it is primary for (DESIGN.md §18). Entry order (and
  /// thus serializability) is preserved.
  PredictorState Filtered(
      const std::function<bool(const TemplateEntry&)>& keep) const;

  /// Warm-starts `framework`'s registered predictors from this state.
  /// Templates unknown to the framework are skipped (counted); a
  /// predictor-config mismatch or corrupt per-template blob fails the
  /// whole apply with InvalidArgument. Generation semantics (DESIGN.md
  /// §17): an entry at the local transform generation is adopted in
  /// place; an entry from a *newer* generation is installed through the
  /// warm generation handoff (the replica follows the leader's refit); an
  /// entry from an *older* generation is stale and fails the apply —
  /// generations never mix.
  Result<ApplyReport> ApplyTo(PpcFramework* framework) const;

  /// Leader-side capture sequence (monotonic per process).
  uint64_t sequence() const { return sequence_; }
  /// Entries sorted by template name.
  const std::vector<TemplateEntry>& entries() const { return entries_; }

 private:
  uint64_t sequence_ = 0;
  std::vector<TemplateEntry> entries_;
};

}  // namespace ppc

#endif  // PPC_PPC_PREDICTOR_STATE_H_
