/// \file fault_injector.h
/// \brief Deterministic fault injection for the ring machine.
///
/// Section 4 argues for *distributed* instruction control precisely so the
/// machine degrades gracefully when components fail. A FaultPlan is a
/// seeded, fully deterministic schedule of component faults — IP death, IC
/// failure, outer-ring packet loss/corruption, disk-cache stalls — that the
/// simulator arms before the first event fires. Because the simulator is a
/// pure discrete-event machine and the plan is data, every recovery path is
/// exactly reproducible from (plan, options): two runs with the same inputs
/// produce byte-identical MachineReports.
///
/// The fault model is fail-stop at packet boundaries (cf. the
/// operator-boundary restartability argument in the pipelining literature):
///   - a killed IP stops *accepting* packets at its kill tick; a unit whose
///     packet it had already accepted commits in full, so re-dispatch is
///     exactly-once by construction — a lost unit never started;
///   - a dropped assignment packet vanishes on the ring; the sending IC's
///     acknowledgement timeout notices and retransmits with exponential
///     backoff, up to max_retries, then fails the query cleanly;
///   - a corrupted assignment packet fails its checksum at the IP, which
///     NACKs it; the IC retransmits immediately (counted against the same
///     retry budget);
///   - a failed IC's instructions are re-homed by the MC to a surviving IC
///     whose local memory starts cold (re-fetches charged through the
///     storage hierarchy);
///   - a stalled disk-cache segment delays every cache access until the
///     stall window closes (pure degradation, nothing to recover).

#ifndef DFDB_MACHINE_FAULT_INJECTOR_H_
#define DFDB_MACHINE_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "obs/counters.h"

namespace dfdb {

/// \brief The component faults the machine can be subjected to.
enum class FaultType {
  kKillIp,         ///< An instruction processor fail-stops at a tick.
  kFailIc,         ///< An instruction controller fail-stops at a tick.
  kDropPacket,     ///< Assignment packets vanish on the outer ring.
  kCorruptPacket,  ///< Assignment packets fail their checksum at the IP.
  kStallCache,     ///< A disk-cache segment stops serving for a window.
};

std::string_view FaultTypeToString(FaultType type);

/// \brief One scheduled fault.
struct FaultEvent {
  FaultType type = FaultType::kKillIp;
  /// When the fault arms. Component faults fire at this simulated time;
  /// packet faults affect the next \p count assignment packets inserted at
  /// or after it.
  SimTime at;
  /// IP/IC index for kKillIp/kFailIc; -1 picks targets round-robin over the
  /// machine's components in plan order.
  int target = -1;
  /// Packets affected (kDropPacket/kCorruptPacket). At least 1.
  uint64_t count = 1;
  /// Stall window length (kStallCache).
  SimTime duration = SimTime::Millis(20);
};

/// \brief A deterministic fault schedule plus the detection/retry knobs of
/// the recovery machinery.
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// IC-side acknowledgement timeout: an assignment not accepted within
  /// this window of its expected arrival is declared lost and its IP
  /// suspect. Also the MC's status-poll period for dead-station detection.
  SimTime detection_timeout = SimTime::Millis(20);
  /// First retransmission backoff; doubles per attempt.
  SimTime retry_backoff = SimTime::Micros(500);
  /// Retransmissions per assignment before the query fails cleanly.
  int max_retries = 3;

  bool empty() const { return events.empty(); }

  /// \name Single-fault plan builders.
  /// @{
  static FaultPlan KillIp(int ip, SimTime at);
  static FaultPlan FailIc(int ic, SimTime at);
  static FaultPlan DropPackets(SimTime at, uint64_t count = 1);
  static FaultPlan CorruptPackets(SimTime at, uint64_t count = 1);
  static FaultPlan StallCache(SimTime at, SimTime duration);
  /// @}

  /// \brief A seeded random fault storm: \p ip_kills processor deaths and
  /// \p packet_faults ring faults spread deterministically over
  /// [0, horizon). Same seed, same storm — on every platform.
  static FaultPlan RandomStorm(uint64_t seed, int ip_kills, int packet_faults,
                               SimTime horizon);

  std::string ToString() const;
};

/// \brief Runtime driver owned by one simulation: arms the plan's packet
/// faults and decides the fate of each assignment packet on the outer ring.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  bool active() const { return active_; }
  const FaultPlan& plan() const { return plan_; }

  enum class PacketFate { kDeliver, kDrop, kCorrupt };

  /// Consulted once per assignment packet inserted on the outer ring;
  /// consumes armed packet faults in schedule order and counts them.
  PacketFate OnAssignmentPacket(SimTime now, FaultStats* stats);

 private:
  struct ArmedPacketFault {
    FaultType type;
    SimTime at;
    uint64_t remaining;
  };

  FaultPlan plan_;
  bool active_ = false;
  std::vector<ArmedPacketFault> packet_faults_;
};

}  // namespace dfdb

#endif  // DFDB_MACHINE_FAULT_INJECTOR_H_
