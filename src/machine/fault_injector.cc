#include "machine/fault_injector.h"

#include <algorithm>

#include "common/random.h"
#include "common/string_util.h"

namespace dfdb {

std::string_view FaultTypeToString(FaultType type) {
  switch (type) {
    case FaultType::kKillIp:
      return "kill-ip";
    case FaultType::kFailIc:
      return "fail-ic";
    case FaultType::kDropPacket:
      return "drop-packet";
    case FaultType::kCorruptPacket:
      return "corrupt-packet";
    case FaultType::kStallCache:
      return "stall-cache";
  }
  return "?";
}

namespace {

FaultPlan SingleEvent(FaultEvent ev) {
  FaultPlan plan;
  plan.events.push_back(ev);
  return plan;
}

}  // namespace

FaultPlan FaultPlan::KillIp(int ip, SimTime at) {
  FaultEvent ev;
  ev.type = FaultType::kKillIp;
  ev.target = ip;
  ev.at = at;
  return SingleEvent(ev);
}

FaultPlan FaultPlan::FailIc(int ic, SimTime at) {
  FaultEvent ev;
  ev.type = FaultType::kFailIc;
  ev.target = ic;
  ev.at = at;
  return SingleEvent(ev);
}

FaultPlan FaultPlan::DropPackets(SimTime at, uint64_t count) {
  FaultEvent ev;
  ev.type = FaultType::kDropPacket;
  ev.at = at;
  ev.count = count;
  return SingleEvent(ev);
}

FaultPlan FaultPlan::CorruptPackets(SimTime at, uint64_t count) {
  FaultEvent ev;
  ev.type = FaultType::kCorruptPacket;
  ev.at = at;
  ev.count = count;
  return SingleEvent(ev);
}

FaultPlan FaultPlan::StallCache(SimTime at, SimTime duration) {
  FaultEvent ev;
  ev.type = FaultType::kStallCache;
  ev.at = at;
  ev.duration = duration;
  return SingleEvent(ev);
}

FaultPlan FaultPlan::RandomStorm(uint64_t seed, int ip_kills,
                                 int packet_faults, SimTime horizon) {
  FaultPlan plan;
  Random rng(seed);
  const uint64_t span =
      static_cast<uint64_t>(std::max<int64_t>(1, horizon.nanos()));
  for (int i = 0; i < ip_kills; ++i) {
    FaultEvent ev;
    ev.type = FaultType::kKillIp;
    ev.at = SimTime::Nanos(static_cast<int64_t>(rng.Uniform(span)));
    ev.target = -1;  // Round-robin over the machine's IPs.
    plan.events.push_back(ev);
  }
  for (int i = 0; i < packet_faults; ++i) {
    FaultEvent ev;
    ev.type = rng.Bernoulli(0.5) ? FaultType::kDropPacket
                                 : FaultType::kCorruptPacket;
    ev.at = SimTime::Nanos(static_cast<int64_t>(rng.Uniform(span)));
    ev.count = 1 + rng.Uniform(3);
    plan.events.push_back(ev);
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string out = StrFormat(
      "plan{timeout=%s backoff=%s retries=%d events=[",
      detection_timeout.ToString().c_str(), retry_backoff.ToString().c_str(),
      max_retries);
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    if (i > 0) out += " ";
    out += StrFormat("%s@%s/t%d",
                     std::string(FaultTypeToString(ev.type)).c_str(),
                     ev.at.ToString().c_str(), ev.target);
  }
  out += "]}";
  return out;
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), active_(!plan.events.empty()) {
  for (const FaultEvent& ev : plan_.events) {
    if (ev.type == FaultType::kDropPacket ||
        ev.type == FaultType::kCorruptPacket) {
      packet_faults_.push_back(
          {ev.type, ev.at, std::max<uint64_t>(1, ev.count)});
    }
  }
  // Arm in schedule order; ties keep plan order (stable), so the packet
  // fate sequence is a pure function of the plan.
  std::stable_sort(packet_faults_.begin(), packet_faults_.end(),
                   [](const ArmedPacketFault& a, const ArmedPacketFault& b) {
                     return a.at < b.at;
                   });
}

FaultInjector::PacketFate FaultInjector::OnAssignmentPacket(
    SimTime now, FaultStats* stats) {
  for (ArmedPacketFault& pf : packet_faults_) {
    if (pf.remaining == 0 || pf.at > now) continue;
    --pf.remaining;
    stats->injected++;
    if (pf.type == FaultType::kDropPacket) {
      stats->packets_dropped++;
      return PacketFate::kDrop;
    }
    stats->packets_corrupted++;
    return PacketFate::kCorrupt;
  }
  return PacketFate::kDeliver;
}

}  // namespace dfdb
