// Water: a compact molecular-dynamics kernel standing in for Splash2's
// Water-Nsquared (216 molecules, 5 iterations; locks + barriers; pairwise
// forces with cutoff). Remote force contributions are accumulated into the
// shared force arrays under per-block locks; the global potential-energy
// accumulator is lock-protected — but the global *virial* accumulator is
// updated WITHOUT its lock, modelling the genuine write-write race the
// paper found in the Splash2 original (reported and fixed upstream).
#ifndef CVM_APPS_WATER_H_
#define CVM_APPS_WATER_H_

#include <string>
#include <vector>

#include "src/apps/app.h"

namespace cvm {

class WaterApp : public ParallelApp {
 public:
  struct Params {
    int molecules = 216;
    int iters = 5;
    bool fix_virial_bug = false;  // True = the repaired Splash2 behaviour.
    uint64_t seed = 7;
    uint64_t page_size = 4096;  // Force chunks are page-aligned.
  };

  explicit WaterApp(Params params) : params_(params) {}

  std::string name() const override { return "Water"; }
  std::string input_description() const override {
    return std::to_string(params_.molecules) + " mols, " + std::to_string(params_.iters) +
           " iters";
  }
  std::string sync_description() const override { return "lock, barrier"; }
  InstructionMix instruction_mix() const override;

  void Setup(DsmSystem& system) override;
  void Run(NodeContext& ctx) override;
  bool Verify() const override { return verified_ok_; }

  GlobalAddr virial_addr() const { return virial_.addr(); }

  // Lock ids a run over `molecules` molecules uses: the fixed locks below
  // kForceLockBase plus one force lock per chunk of molecules.
  static int LocksNeeded(int molecules) {
    return kForceLockBase + (molecules + kMoleculesPerLock - 1) / kMoleculesPerLock;
  }

  struct Vec3 {
    float x = 0;
    float y = 0;
    float z = 0;
  };

  // Site-site force and potential for displacement d (truncated LJ-like).
  static void PairForce(const Vec3& d, Vec3* force, float* potential);
  // Molecule-molecule interaction: sum over the 3x3 site pairs, with site
  // offsets given as 9 floats (3 sites x 3 coordinates).
  static void MoleculeForce(const Vec3& d, const float* site_offsets, Vec3* force,
                            float* potential);
  // The water molecule's intra-molecular site geometry.
  static const float kSiteOffsets[9];
  static constexpr float kCutoff = 2.5f;

 private:
  static constexpr LockId kEnergyLock = 2;
  static constexpr LockId kVirialLock = 3;
  static constexpr LockId kForceLockBase = 8;     // + molecule chunk index.
  static constexpr int kMoleculesPerLock = 8;     // Fine-grained force locks.
  static constexpr float kDt = 0.002f;

  // Initial lattice placement for molecule m.
  Vec3 InitialPos(int m) const;
  Vec3 InitialVel(int m) const;

  // Index of molecule m's axis-a force slot: one page per lock chunk, so a
  // chunk's page travels with its lock and different chunks never falsely
  // share (the layout the original gets from per-molecule structures).
  size_t ForceIndex(int m, int a) const {
    const size_t words_per_page = params_.page_size / kWordSize;
    return static_cast<size_t>(m / kMoleculesPerLock) * words_per_page +
           static_cast<size_t>(m % kMoleculesPerLock) * 3 + static_cast<size_t>(a);
  }

  Params params_;
  SharedArray<float> pos_[3];
  SharedArray<float> vel_[3];
  SharedArray<float> force_;    // Interleaved m*3+axis (locality: one page
                                // moves with a chunk's lock, not three).
  SharedVar<float> potential_;  // Guarded by kEnergyLock.
  SharedVar<float> virial_;     // BUG: updated without kVirialLock.
  bool verified_ok_ = false;
};

}  // namespace cvm

#endif  // CVM_APPS_WATER_H_
