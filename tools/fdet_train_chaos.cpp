// Kill-point chaos harness for the durable training layer
// (train/checkpoint.h + core/artifact.h).
//
// Trains a small GentleBoost cascade once, fault-free, to establish the
// reference artifact, then replays training under every kill point and
// write fault the durability layer claims to survive:
//
//   1. kill-after-stage-N — a simulated crash at every stage boundary;
//      training restarts with --resume and must reproduce the reference
//      `.cascade` byte-for-byte (the resume-identity invariant);
//   2. write-fault matrix — short write (ENOSPC tail), torn write (crash
//      mid-write), and ENOSPC injected into the checkpoint save via the
//      core::artifact WriteFaultHook seam, followed by a kill; no corrupt
//      checkpoint may ever be visible under a durable name, and resume
//      from the surviving checkpoints must still reproduce the reference;
//   3. corrupt-checkpoint fallback — the newest checkpoint is bit-flipped
//      on disk; resume must quarantine it (`*.corrupt`), fall back to the
//      next newest, and still reproduce the reference;
//   4. final-artifact fault — a fault injected into save_cascade() must
//      leave no torn `.cascade` visible (previous contents intact), and a
//      retry must produce the reference bytes.
//
// Observability: each scenario runs against a fresh obs::Registry; the
// harness asserts the train.checkpoint.* counters/gauges fired
// (saved/save_failed/corrupt_quarantined/resumed_stage), and --record-out
// writes the final scenario's registry as a run record for CI artifacts.
//
// Exit codes: 0 all invariants hold, 1 usage error, 2 invariant violated
// (or the harness itself crashed, which is a durability bug by definition).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/cli.h"
#include "facegen/dataset.h"
#include "haar/cascade.h"
#include "obs/metrics.h"
#include "obs/runrecord.h"
#include "train/boost.h"
#include "train/checkpoint.h"

namespace fdet {
namespace {

namespace fs = std::filesystem;

/// Thrown from the after-stage seam to simulate a crash.
struct SimulatedKill {
  int stage;
};

struct Violation {
  std::string what;
};

void check(bool ok, const std::string& what, std::vector<Violation>& out) {
  if (!ok) {
    out.push_back({what});
    std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what.c_str());
  }
}

std::optional<std::string> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Every durable checkpoint in `dir` must be intact: readable, CRC-clean,
/// parseable. `.tmp` staging debris and `.corrupt` quarantine files are
/// the two (legitimate) exceptions a crash can leave behind.
void check_no_corrupt_checkpoints(const std::string& dir,
                                  const std::string& scenario,
                                  std::vector<Violation>& violations) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp") || name.ends_with(".corrupt")) {
      continue;
    }
    if (!name.ends_with(".fdetckpt")) {
      check(false, scenario + ": unexpected durable file " + name,
            violations);
      continue;
    }
    try {
      const core::Artifact artifact = core::read_artifact(
          entry.path().string(), train::kCheckpointArtifactKind);
      train::parse_checkpoint(entry.path().string(), artifact.payload);
    } catch (const core::ArtifactError& error) {
      check(false,
            scenario + ": corrupt checkpoint visible under a durable name: " +
                error.what(),
            violations);
    }
  }
}

struct Scenario {
  train::TrainOptions options;
  std::string name;
  obs::Registry registry;

  train::TrainOptions configured(const std::string& checkpoint_dir) {
    train::TrainOptions configured = options;
    configured.checkpoint_dir = checkpoint_dir;
    configured.metrics = &registry;
    return configured;
  }
};

int run_chaos(int argc, char** argv) {
  int faces = 120;
  int backgrounds = 20;
  int seed = 2012;
  std::string dir = "train_chaos_artifacts";
  std::string record_out;
  core::Cli cli("fdet_train_chaos");
  cli.flag("faces", faces, "training faces per run");
  cli.flag("backgrounds", backgrounds, "background images");
  cli.flag("seed", seed, "master seed");
  cli.flag("dir", dir, "working directory for checkpoints and artifacts");
  cli.flag("record-out", record_out,
           "write the final scenario's train.checkpoint.* run record here");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  std::vector<Violation> violations;
  fs::remove_all(dir);
  fs::create_directories(dir);

  const facegen::TrainingSet set = facegen::build_training_set(
      faces, backgrounds, 48, static_cast<std::uint64_t>(seed));

  train::TrainOptions base;
  base.stage_sizes = {3, 4, 5, 6};
  base.feature_pool = 120;
  base.negatives_per_stage = 120;
  base.stage_hit_target = 0.99;
  base.seed = static_cast<std::uint64_t>(seed);
  const int total_stages = static_cast<int>(base.stage_sizes.size());

  // ---- Reference run (fault-free, checkpointed like every other run).
  std::printf("[chaos] reference run (%d stages)...\n", total_stages);
  Scenario reference{base, "reference", {}};
  const train::TrainResult reference_result = train::train_cascade(
      set, reference.configured(dir + "/reference_ckpt"), "train-chaos");
  const std::string reference_bytes =
      haar::cascade_to_string(reference_result.cascade);
  const std::uint32_t reference_digest = core::crc32(reference_bytes);
  const std::string reference_path = dir + "/reference.cascade";
  haar::save_cascade(reference_path, reference_result.cascade);
  check(file_bytes(reference_path) == reference_bytes,
        "reference: saved .cascade differs from in-memory serialization",
        violations);
  check(reference.registry.counter("train.checkpoint.saved").value() ==
            total_stages,
        "reference: expected one checkpoint save per stage", violations);
  std::printf("[chaos] reference digest crc32=%08x (%d classifiers)\n",
              reference_digest, reference_result.cascade.classifier_count());

  // ---- 1. Kill after every stage boundary, then resume.
  for (int kill_stage = 0; kill_stage < total_stages; ++kill_stage) {
    const std::string scenario =
        "kill-after-stage-" + std::to_string(kill_stage);
    const std::string ckpt_dir = dir + "/" + scenario;
    Scenario killed{base, scenario, {}};
    train::TrainOptions opts = killed.configured(ckpt_dir);
    opts.after_stage = [kill_stage](int stage) {
      if (stage == kill_stage) {
        throw SimulatedKill{stage};
      }
    };
    bool died = false;
    try {
      train::train_cascade(set, opts, "train-chaos");
    } catch (const SimulatedKill&) {
      died = true;
    }
    check(died, scenario + ": kill point did not fire", violations);
    check_no_corrupt_checkpoints(ckpt_dir, scenario, violations);

    Scenario resumed{base, scenario + "/resume", {}};
    const train::TrainResult result = train::train_cascade(
        set, resumed.configured(ckpt_dir), "train-chaos");
    const std::string bytes = haar::cascade_to_string(result.cascade);
    check(bytes == reference_bytes,
          scenario + ": resumed cascade is not bit-identical to the "
                     "fault-free run (crc32 " +
              std::to_string(core::crc32(bytes)) + " vs " +
              std::to_string(reference_digest) + ")",
          violations);
    check(resumed.registry.gauge("train.checkpoint.resumed_stage").value() ==
              kill_stage + 1,
          scenario + ": resume did not start from the killed stage",
          violations);
    std::printf("[chaos] %-22s resumed at stage %d, digest %s\n",
                scenario.c_str(), kill_stage + 1,
                bytes == reference_bytes ? "identical" : "MISMATCH");
  }

  // ---- 2. Write faults during a checkpoint save, then a kill.
  const std::pair<core::WriteFault, const char*> fault_kinds[] = {
      {core::WriteFault::kShortWrite, "short-write"},
      {core::WriteFault::kTornWrite, "torn-write"},
      {core::WriteFault::kNoSpace, "enospc"},
  };
  for (const auto& [fault, fault_name] : fault_kinds) {
    const std::string scenario = std::string("write-fault-") + fault_name;
    const std::string ckpt_dir = dir + "/" + scenario;
    Scenario faulted{base, scenario, {}};
    train::TrainOptions opts = faulted.configured(ckpt_dir);
    // The stage-1 checkpoint (stages_done == 2) is the victim; the kill
    // lands right after the failed save.
    const std::string victim = "checkpoint-0002.fdetckpt";
    int fault_fires = 0;
    opts.after_stage = [](int stage) {
      if (stage == 1) {
        throw SimulatedKill{stage};
      }
    };
    {
      const core::ScopedWriteFaultHook hook(
          [&](const std::string& path, core::WriteOp op) {
            if (op == core::WriteOp::kWrite &&
                path.find(victim) != std::string::npos) {
              ++fault_fires;
              return fault;
            }
            return core::WriteFault::kNone;
          });
      bool died = false;
      try {
        train::train_cascade(set, opts, "train-chaos");
      } catch (const SimulatedKill&) {
        died = true;
      }
      check(died, scenario + ": kill point did not fire", violations);
    }
    check(fault_fires == 1, scenario + ": write fault did not fire exactly "
                                       "once",
          violations);
    check(faulted.registry.counter("train.checkpoint.save_failed").value() ==
              1,
          scenario + ": failed save was not counted", violations);
    check(!fs::exists(ckpt_dir + "/" + victim),
          scenario + ": a faulted write became visible under the durable "
                     "checkpoint name",
          violations);
    check_no_corrupt_checkpoints(ckpt_dir, scenario, violations);

    Scenario resumed{base, scenario + "/resume", {}};
    const train::TrainResult result = train::train_cascade(
        set, resumed.configured(ckpt_dir), "train-chaos");
    check(haar::cascade_to_string(result.cascade) == reference_bytes,
          scenario + ": resume after write fault lost bit-identity",
          violations);
    // Only the stage-0 checkpoint survived, so resume restarts stage 1.
    check(resumed.registry.gauge("train.checkpoint.resumed_stage").value() ==
              1,
          scenario + ": resume did not fall back to the surviving "
                     "checkpoint",
          violations);
    std::printf("[chaos] %-22s fault contained, resume identical\n",
                scenario.c_str());
  }

  // ---- 3. Corrupt the newest checkpoint; resume must quarantine it and
  //         fall back.
  {
    const std::string scenario = "corrupt-newest-checkpoint";
    const std::string ckpt_dir = dir + "/" + scenario;
    Scenario seeded{base, scenario, {}};
    train::TrainOptions opts = seeded.configured(ckpt_dir);
    opts.after_stage = [](int stage) {
      if (stage == 2) {
        throw SimulatedKill{stage};
      }
    };
    try {
      train::train_cascade(set, opts, "train-chaos");
    } catch (const SimulatedKill&) {
    }
    const std::string newest = ckpt_dir + "/checkpoint-0003.fdetckpt";
    std::optional<std::string> bytes = file_bytes(newest);
    check(bytes.has_value(), scenario + ": expected checkpoint missing",
          violations);
    if (bytes) {
      (*bytes)[bytes->size() / 2] ^= 0x20;  // single-bit-ish corruption
      std::ofstream out(newest, std::ios::binary | std::ios::trunc);
      out << *bytes;
    }

    Scenario resumed{base, scenario + "/resume", {}};
    const train::TrainResult result = train::train_cascade(
        set, resumed.configured(ckpt_dir), "train-chaos");
    check(haar::cascade_to_string(result.cascade) == reference_bytes,
          scenario + ": resume from fallback checkpoint lost bit-identity",
          violations);
    check(resumed.registry.counter("train.checkpoint.corrupt_quarantined")
                  .value() == 1,
          scenario + ": corrupt checkpoint was not quarantined", violations);
    check(fs::exists(newest + ".corrupt"),
          scenario + ": quarantine file missing", violations);
    check(resumed.registry.gauge("train.checkpoint.resumed_stage").value() ==
              2,
          scenario + ": resume did not fall back to stage 2", violations);
    std::printf("[chaos] %-22s quarantined, fallback resume identical\n",
                scenario.c_str());

    if (!record_out.empty()) {
      obs::build_run_record("train_chaos", {}, resumed.registry)
          .write_file(record_out);
    }
  }

  // ---- 4. Fault injected into the final artifact save.
  {
    const std::string scenario = "final-artifact-fault";
    const std::string path = dir + "/final_fault.cascade";
    haar::save_cascade(path, reference_result.cascade);  // previous version
    bool threw = false;
    {
      const core::ScopedWriteFaultHook hook(
          [&](const std::string& hook_path, core::WriteOp) {
            return hook_path == path ? core::WriteFault::kTornWrite
                                     : core::WriteFault::kNone;
          });
      try {
        haar::save_cascade(path, reference_result.cascade);
      } catch (const core::ArtifactError&) {
        threw = true;
      }
    }
    check(threw, scenario + ": faulted save did not report failure",
          violations);
    check(file_bytes(path) == reference_bytes,
          scenario + ": torn write damaged the previously durable .cascade",
          violations);
    haar::save_cascade(path, reference_result.cascade);  // retry, no fault
    check(file_bytes(path) == reference_bytes,
          scenario + ": retry after fault did not produce the reference "
                     "bytes",
          violations);
    std::printf("[chaos] %-22s previous artifact intact, retry clean\n",
                scenario.c_str());
  }

  if (violations.empty()) {
    std::printf(
        "[chaos] all durability invariants hold: %d kill points, %zu write "
        "faults, corrupt fallback, final-artifact fault\n",
        total_stages, std::size(fault_kinds));
    return 0;
  }
  std::fprintf(stderr, "[chaos] %zu invariant violation(s)\n",
               violations.size());
  return 2;
}

}  // namespace
}  // namespace fdet

int main(int argc, char** argv) {
  try {
    return fdet::run_chaos(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fdet_train_chaos crashed: %s\n", error.what());
    return 2;
  }
}
