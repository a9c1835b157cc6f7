// Umbrella header: the whole public surface of the library.
//
//   #include "hds.h"
//
// For finer-grained builds include the individual module headers instead;
// every header under src/ is self-contained.
#pragma once

#include "common/label.h"          // IWYU pragma: export
#include "common/multiset.h"       // IWYU pragma: export
#include "common/rng.h"            // IWYU pragma: export
#include "common/trajectory.h"     // IWYU pragma: export
#include "common/types.h"          // IWYU pragma: export

#include "sim/message.h"           // IWYU pragma: export
#include "sim/process.h"           // IWYU pragma: export
#include "sim/scheduler.h"         // IWYU pragma: export
#include "sim/stacked_process.h"   // IWYU pragma: export
#include "sim/system.h"            // IWYU pragma: export
#include "sim/timing.h"            // IWYU pragma: export
#include "sim/tracelog.h"          // IWYU pragma: export

#include "fd/ground_truth.h"       // IWYU pragma: export
#include "fd/interfaces.h"         // IWYU pragma: export
#include "fd/oracles.h"            // IWYU pragma: export

#include "fd/impl/alive_ranker.h"      // IWYU pragma: export
#include "fd/impl/ap_sync.h"           // IWYU pragma: export
#include "fd/impl/homega_heartbeat.h"  // IWYU pragma: export
#include "fd/impl/hsigma_sync.h"       // IWYU pragma: export
#include "fd/impl/ohp_polling.h"       // IWYU pragma: export

#include "fd/reduce/ap_to_asigma.h"
#include "fd/reduce/ap_to_hsigma.h"       // IWYU pragma: export
#include "fd/reduce/ap_to_ohp.h"          // IWYU pragma: export
#include "fd/reduce/asigma_to_hsigma.h"   // IWYU pragma: export
#include "fd/reduce/classical_corner.h"   // IWYU pragma: export
#include "fd/reduce/hsigma_to_sigma.h"    // IWYU pragma: export
#include "fd/reduce/ohp_to_homega.h"      // IWYU pragma: export
#include "fd/reduce/sigma_to_hsigma.h"    // IWYU pragma: export

#include "consensus/flood_sync.h"            // IWYU pragma: export
#include "consensus/harness.h"               // IWYU pragma: export
#include "consensus/majority_homega.h"       // IWYU pragma: export
#include "consensus/messages.h"              // IWYU pragma: export
#include "consensus/quorum_homega_hsigma.h"  // IWYU pragma: export

#include "spec/consensus_checkers.h"  // IWYU pragma: export
#include "spec/fd_checkers.h"         // IWYU pragma: export
