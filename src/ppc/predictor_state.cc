#include "ppc/predictor_state.h"

#include <cstring>
#include <string_view>

#include "common/bytes.h"
#include "common/hash.h"
#include "ppc/lsh_histograms_predictor.h"
#include "ppc/ppc_framework.h"

namespace ppc {

namespace {

/// Replication container format v2. Same envelope discipline as the
/// predictor snapshot (magic | version | payload | trailing FNV-1a
/// checksum), with a distinct magic so the two blob kinds can never be
/// confused for each other on the wire. v2 added the per-entry transform
/// generation; v1 blobs (no generation field) are rejected rather than
/// guessed at — silently adopting them as generation 0 is exactly the
/// cross-generation mixing the field exists to prevent.
constexpr uint32_t kStateMagic = 0x50504352;  // "PPCR"
constexpr uint32_t kStateVersion = 2;
/// The v2 layout carries a flag byte after the version. Every blob is a
/// full snapshot, so the byte is always 0; anything else is rejected.
constexpr uint8_t kFullSnapshotFlag = 0;
constexpr size_t kChecksumBytes = sizeof(uint64_t);
/// An adversarial count field must not drive allocation; real
/// deployments register a handful of templates.
constexpr uint32_t kMaxTemplates = 4096;

}  // namespace

PredictorState PredictorState::Capture(const PpcFramework& framework) {
  PredictorState state;
  state.sequence_ = framework.NextSnapshotSequence();
  for (const std::string& name : framework.TemplateNames()) {
    const std::shared_ptr<const OnlinePpcPredictor> online =
        framework.online_predictor(name);
    if (online == nullptr) continue;  // unregistered between the two reads
    TemplateEntry entry;
    entry.name = name;
    entry.generation = online->predictor().transform_generation();
    entry.blob = online->predictor().Serialize();
    entry.content_hash = Fnv1a64(entry.blob);
    state.entries_.push_back(std::move(entry));
  }
  return state;
}

std::string PredictorState::Serialize() const {
  ByteWriter writer;
  writer.PutU32(kStateMagic);
  writer.PutU32(kStateVersion);
  writer.PutU8(kFullSnapshotFlag);
  writer.PutU64(sequence_);
  writer.PutU32(static_cast<uint32_t>(entries_.size()));
  for (const TemplateEntry& entry : entries_) {
    writer.PutString(entry.name);
    writer.PutU32(entry.generation);
    writer.PutU64(entry.content_hash);
    writer.PutString(entry.blob);
  }
  writer.PutU64(Fnv1a64(writer.buffer()));
  return writer.Take();
}

PredictorState PredictorState::Filtered(
    const std::function<bool(const TemplateEntry&)>& keep) const {
  PredictorState subset;
  subset.sequence_ = sequence_;
  for (const TemplateEntry& entry : entries_) {
    if (keep(entry)) subset.entries_.push_back(entry);
  }
  return subset;
}

Result<PredictorState> PredictorState::Restore(const std::string& bytes) {
  constexpr size_t kEnvelopeBytes =
      4 /* magic */ + 4 /* version */ + 1 /* flag */ + 8 /* sequence */ +
      4 /* count */ + kChecksumBytes;
  if (bytes.size() < kEnvelopeBytes) {
    return Status::InvalidArgument("state snapshot shorter than its envelope");
  }
  ByteReader reader(bytes);
  PPC_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kStateMagic) {
    return Status::InvalidArgument("not a predictor-state snapshot");
  }
  PPC_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kStateVersion) {
    return Status::InvalidArgument(
        "unsupported predictor-state snapshot version " +
        std::to_string(version));
  }
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, bytes.data() + bytes.size() - kChecksumBytes,
              kChecksumBytes);
  if (stored_checksum != Fnv1a64(std::string_view(bytes).substr(
                             0, bytes.size() - kChecksumBytes))) {
    return Status::InvalidArgument(
        "state snapshot checksum mismatch (truncated or corrupted)");
  }
  auto parse = [&]() -> Result<PredictorState> {
    PredictorState parsed;
    PPC_ASSIGN_OR_RETURN(uint8_t flag, reader.GetU8());
    if (flag != kFullSnapshotFlag) {
      return Status::InvalidArgument(
          "state snapshot flag byte " + std::to_string(flag) +
          " is not a full snapshot");
    }
    PPC_ASSIGN_OR_RETURN(parsed.sequence_, reader.GetU64());
    PPC_ASSIGN_OR_RETURN(uint32_t count, reader.GetU32());
    if (count > kMaxTemplates) {
      return Status::InvalidArgument("state snapshot template count " +
                                     std::to_string(count) + " exceeds limit");
    }
    parsed.entries_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      PredictorState::TemplateEntry entry;
      PPC_ASSIGN_OR_RETURN(entry.name, reader.GetString());
      PPC_ASSIGN_OR_RETURN(entry.generation, reader.GetU32());
      PPC_ASSIGN_OR_RETURN(entry.content_hash, reader.GetU64());
      PPC_ASSIGN_OR_RETURN(entry.blob, reader.GetString());
      if (entry.content_hash != Fnv1a64(entry.blob)) {
        return Status::InvalidArgument("template '" + entry.name +
                                       "' content hash mismatch");
      }
      if (!parsed.entries_.empty() &&
          entry.name <= parsed.entries_.back().name) {
        return Status::InvalidArgument(
            "state snapshot template names not strictly increasing");
      }
      parsed.entries_.push_back(std::move(entry));
    }
    PPC_ASSIGN_OR_RETURN(uint64_t checksum, reader.GetU64());
    (void)checksum;  // verified above
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("trailing bytes after state snapshot");
    }
    return parsed;
  }();
  if (!parse.ok() && parse.status().code() == StatusCode::kOutOfRange) {
    // Checksum-consistent but internally inconsistent lengths: malformed
    // input, not a caller range error.
    return Status::InvalidArgument(parse.status().message());
  }
  return parse;
}

Result<PredictorState::ApplyReport> PredictorState::ApplyTo(
    PpcFramework* framework) const {
  ApplyReport report;
  for (const TemplateEntry& entry : entries_) {
    const std::shared_ptr<OnlinePpcPredictor> online =
        framework->mutable_online_predictor(entry.name);
    if (online == nullptr) {
      ++report.templates_skipped;
      continue;
    }
    PPC_ASSIGN_OR_RETURN(LshHistogramsPredictor restored,
                         LshHistogramsPredictor::Restore(entry.blob));
    // The container-level generation and the one embedded in the blob
    // must agree; a mismatch means the envelope was stitched together
    // from pieces of different captures.
    if (restored.transform_generation() != entry.generation) {
      return Status::InvalidArgument(
          "template '" + entry.name + "' entry generation " +
          std::to_string(entry.generation) + " disagrees with blob generation " +
          std::to_string(restored.transform_generation()));
    }
    const uint32_t local_generation =
        online->predictor().transform_generation();
    if (entry.generation == local_generation) {
      // Same transform generation: adopt the leader's densities in place
      // (AdoptState re-checks the full config equality, including the
      // fitted input ranges).
      PPC_RETURN_NOT_OK(online->WarmStart(restored));
    } else if (entry.generation > local_generation) {
      // The leader refit past us: follow it through the same warm
      // handoff the local retune worker uses, so replicas never serve a
      // mixed-generation predictor.
      OnlinePpcPredictor::Config online_config = online->config();
      online_config.predictor = restored.config();
      auto next = std::make_shared<OnlinePpcPredictor>(std::move(online_config),
                                                       std::move(restored));
      next->InheritLifetimeCounters(*online);
      PPC_RETURN_NOT_OK(
          framework->InstallPredictorGeneration(entry.name, std::move(next)));
      ++report.generations_installed;
    } else {
      // Never roll a serving predictor back to an older transform
      // generation: its histograms were built in a different projected
      // space and would silently mis-serve.
      return Status::InvalidArgument(
          "template '" + entry.name + "' snapshot generation " +
          std::to_string(entry.generation) +
          " is stale (local serving generation " +
          std::to_string(local_generation) + ")");
    }
    ++report.templates_applied;
  }
  return report;
}

}  // namespace ppc
