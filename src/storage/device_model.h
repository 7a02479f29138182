/// \file device_model.h
/// \brief Timing models of the paper's hardware (Section 4.1 / Figure 4.2).
///
/// The paper's Figure 4.2 assumptions:
///   - 16 KB operand pages;
///   - PDP LSI-11 instruction processors that "can read a 16K byte page in
///     33 ms";
///   - a disk cache built from Intel 2314 CCD chips;
///   - two IBM 3330 disk drives for mass storage;
///   - a 40 Mbps DLCN ring (25 ns shift registers), 1–2 Mbps inner ring.
///
/// These models are pure functions from byte counts to SimTime, so the
/// discrete-event simulator remains deterministic.

#ifndef DFDB_STORAGE_DEVICE_MODEL_H_
#define DFDB_STORAGE_DEVICE_MODEL_H_

#include <cstdint>

#include "common/sim_time.h"

namespace dfdb {

/// \brief Moving-head disk model (defaults: IBM 3330).
struct DiskModel {
  /// Average seek time.
  SimTime avg_seek = SimTime::Micros(30000);
  /// Average rotational latency (half a revolution at 3600 rpm).
  SimTime avg_rotation = SimTime::Micros(8400);
  /// Sustained transfer rate in bytes per second (3330: 806 KB/s).
  double transfer_bytes_per_sec = 806000.0;

  /// Time to read or write \p bytes with one random positioning.
  SimTime AccessTime(int64_t bytes) const {
    return avg_seek + avg_rotation +
           TransferTime(bytes, transfer_bytes_per_sec * 8.0);
  }

  /// Transfer-only time (sequential continuation).
  SimTime SequentialTime(int64_t bytes) const {
    return TransferTime(bytes, transfer_bytes_per_sec * 8.0);
  }
};

/// \brief CCD disk-cache model (Intel 2314-class electronic disk).
///
/// CCD memories are block-oriented with a small access latency and a high
/// streaming rate; we model a fixed per-access latency plus transfer.
struct CcdCacheModel {
  SimTime access_latency = SimTime::Micros(100);
  double transfer_bytes_per_sec = 4.0e6;  // ~4 MB/s per port.
  /// Internal scan rate of a pushed-down predicate sweeping a block inside
  /// the cache. The multiport CCD array's aggregate internal bandwidth is
  /// well above what one port can ship (the segments cycle in parallel), so
  /// filtering in place is cheaper than moving: 4x the port rate.
  double filter_scan_bytes_per_sec = 16.0e6;

  SimTime AccessTime(int64_t bytes) const {
    return access_latency + TransferTime(bytes, transfer_bytes_per_sec * 8.0);
  }

  /// Cost of a filtered transfer: the pushed-down program scans
  /// \p scanned_bytes at the internal rate, but only \p surviving_bytes
  /// occupy the port. Charging the two rates separately is what makes
  /// near-data filtering a win exactly when selectivity is high.
  SimTime FilteredAccessTime(int64_t scanned_bytes,
                             int64_t surviving_bytes) const {
    return access_latency +
           TransferTime(scanned_bytes, filter_scan_bytes_per_sec * 8.0) +
           TransferTime(surviving_bytes, transfer_bytes_per_sec * 8.0);
  }
};

/// \brief Instruction-processor model (default: PDP LSI-11).
///
/// The paper's calibration point is "can read a 16K byte page in 33 ms",
/// i.e. ~0.496 MB/s of tuple processing. Joins touch outer x inner bytes;
/// restricts touch each byte once; a per-packet fixed overhead covers
/// instruction decode and buffer setup.
struct ProcessorModel {
  /// Bytes of tuple data scanned per second (16384 B / 33 ms).
  double scan_bytes_per_sec = 16384.0 / 0.033;
  /// Fixed cost to accept and decode an instruction packet.
  SimTime packet_overhead = SimTime::Micros(500);
  /// Multiplier for producing one byte of output (copy cost).
  double output_bytes_per_sec = 16384.0 / 0.033;

  /// Time to scan \p input_bytes and emit \p output_bytes.
  SimTime OperatorTime(int64_t input_bytes, int64_t output_bytes) const {
    return packet_overhead + TransferTime(input_bytes, scan_bytes_per_sec * 8.0) +
           TransferTime(output_bytes, output_bytes_per_sec * 8.0);
  }

  /// Time for a page-x-page nested-loops join step: every outer tuple is
  /// compared against every inner tuple, so cost scales with the product of
  /// page sizes divided by tuple width (comparisons) — approximated as
  /// scanning outer_bytes * (inner_bytes / inner_tuple_width) weighted by a
  /// per-comparison fraction of the scan rate.
  SimTime JoinStepTime(int64_t outer_bytes, int64_t inner_bytes,
                       int64_t output_bytes) const {
    // Effective work: each outer byte participates in one pass over the
    // inner page, discounted because a comparison touches only the join
    // attribute (~1/8 of the tuple).
    const double pair_bytes =
        static_cast<double>(outer_bytes) * static_cast<double>(inner_bytes) /
        2048.0;
    return packet_overhead +
           TransferTime(static_cast<int64_t>(pair_bytes),
                        scan_bytes_per_sec * 8.0) +
           TransferTime(outer_bytes + inner_bytes, scan_bytes_per_sec * 8.0) +
           TransferTime(output_bytes, output_bytes_per_sec * 8.0);
  }
};

/// \brief Shift-register-insertion ring (DLCN, Liu & Reames).
///
/// Variable-length messages are inserted into the loop; per-hop delay is one
/// shift-register stage. Defaults give the paper's 40 Mbps outer ring.
struct RingModel {
  double bandwidth_bits_per_sec = 40.0e6;
  /// Delay contributed by each station's insertion register.
  SimTime per_hop_delay = SimTime::Nanos(25);

  /// Time for a message of \p bytes to fully pass the insertion point.
  SimTime InsertionTime(int64_t bytes) const {
    return TransferTime(bytes, bandwidth_bits_per_sec);
  }

  /// Propagation over \p hops stations.
  SimTime PropagationTime(int hops) const { return per_hop_delay * hops; }
};

/// \brief Full machine configuration (Section 4.1's component list).
struct MachineConfig {
  int num_instruction_processors = 8;
  int num_instruction_controllers = 4;
  int page_bytes = 16384;
  int num_disk_drives = 2;
  /// IC local memory capacity, in pages per IC. LSI-11-class controllers
  /// had on the order of 128 KB of memory: 8 pages of 16 KB.
  int ic_local_memory_pages = 8;
  /// Total disk-cache capacity in pages (divided among the ICs,
  /// Section 4.1). A 1979 CCD electronic disk was ~1 MB: 64 x 16 KB.
  int disk_cache_pages = 64;

  DiskModel disk;
  CcdCacheModel cache;
  ProcessorModel processor;
  RingModel outer_ring;
  RingModel inner_ring{1.5e6, SimTime::Nanos(25)};
};

}  // namespace dfdb

#endif  // DFDB_STORAGE_DEVICE_MODEL_H_
