// Control-flow signal for crash-tolerant epochs: when a node fail-stops (a
// kCrash fault) or a survivor learns a peer is unreachable, the torn epoch is
// abandoned by unwinding every blocked node thread with a RunAbortError. The
// DsmSystem node-thread body catches it, rolls the node back to its last
// epoch checkpoint, and reports the crash in RunResult instead of aborting
// the process (docs/FAULTS.md, "Crash faults & recovery").
#ifndef CVM_COMMON_ABORT_H_
#define CVM_COMMON_ABORT_H_

#include "src/common/types.h"

namespace cvm {

struct RunAbortError {
  NodeId dead = kNoNode;  // The node believed to have failed.
  EpochId epoch = -1;     // The epoch torn by the failure.
  bool self_crash = false;  // True on the crashing node itself.
};

}  // namespace cvm

#endif  // CVM_COMMON_ABORT_H_
