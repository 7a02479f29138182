/// \file resources.h
/// \brief Contended device models for the machine simulator.

#ifndef DFDB_MACHINE_RESOURCES_H_
#define DFDB_MACHINE_RESOURCES_H_

#include "common/sim_time.h"

namespace dfdb {

/// \brief A serially shared device (a ring, a disk drive): jobs queue FIFO
/// and each occupies the device for its service time.
class SerialResource {
 public:
  /// Reserves the device for \p service starting no earlier than \p now.
  /// Returns the completion time; the device is busy until then.
  SimTime Acquire(SimTime now, SimTime service) {
    const SimTime start = next_free_ > now ? next_free_ : now;
    next_free_ = start + service;
    busy_ += service;
    return next_free_;
  }

  SimTime next_free() const { return next_free_; }
  /// Total busy time (for utilization reports).
  SimTime busy_time() const { return busy_; }

 private:
  SimTime next_free_;
  SimTime busy_;
};

}  // namespace dfdb

#endif  // DFDB_MACHINE_RESOURCES_H_
