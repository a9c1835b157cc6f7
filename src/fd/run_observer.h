// RunObserver — the one seam through which a simulated run is observed.
//
// The paper's detectors are visible only through their outputs, and
// FdOutputListener (fd/output_hooks.h) is that output stream. A RunObserver
// is anything a harness run carries alongside the algorithms: the online
// monitor, the streaming window-QoS estimator, the fault injector, the
// reliable-delivery emulator. A run takes an ordered list of them. The
// harness calls attach() on each, in list order, once the System exists and
// before it starts; joins their per-process listeners in list order (earlier
// observers see each change first); and calls finish() on each after the
// run. SimRun (consensus/harness.h) does all three, and runs any run with
// an observer on one shard.
#pragma once

#include "common/types.h"
#include "fd/output_hooks.h"

namespace hds {

class System;

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  virtual void attach(System& /*sys*/) {}
  // Process i's listener; null when this observer does not listen.
  virtual FdOutputListener* listener(ProcIndex /*i*/) { return nullptr; }
  virtual void finish() {}
};

}  // namespace hds
