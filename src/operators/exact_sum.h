/// \file exact_sum.h
/// \brief Exact, order-independent summation of doubles (SUM and AVG).
///
/// Adding doubles one by one rounds after every step, so the same values
/// can sum to different results when pages arrive in a different order —
/// and on a multi-worker engine they do. ExactSum keeps the running sum as
/// a fixed-point integer wide enough for every finite double (a "small
/// superaccumulator", after R. M. Neal, arXiv:1505.05571) and rounds once,
/// in Round(). The result is the correctly rounded (round-half-even) value
/// of the exact sum, so it depends only on the multiset of values added.

#ifndef DFDB_OPERATORS_EXACT_SUM_H_
#define DFDB_OPERATORS_EXACT_SUM_H_

#include <cstdint>
#include <cstring>

namespace dfdb {

/// \brief Exact accumulator for doubles: 536 bytes, a few ns per Add().
///
/// The sum is an integer N in units of 2^-1074 (the smallest subnormal),
/// held as 32-bit digits in int64 chunks: chunk i weighs 2^(32 i). A
/// double's 53-bit mantissa lands on two adjacent chunks, so an Add() is
/// two integer additions; the spare high bits of each chunk absorb carries
/// until Carry() normalizes them every kAddsPerCarry additions. Infinities
/// and NaNs are kept as flags beside the finite sum. Exact for fewer than
/// 2^45 values (each under 2^1024, so the top chunk stays under 2^63).
class ExactSum {
 public:
  /// Adds \p x without rounding.
  void Add(double x) {
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    const uint32_t exp = static_cast<uint32_t>(bits >> 52) & 0x7ff;
    if (exp == 0x7ff) {
      AddSpecial(bits);
      return;
    }
    // A normal value is mant * 2^(exp - 1075) = mant * 2^(exp - 1) units,
    // with the hidden bit; a subnormal (exp 0) is mant units.
    const uint32_t normal = exp != 0 ? 1 : 0;
    const int64_t neg = static_cast<int64_t>(bits) >> 63;  // 0 or -1.
    const int64_t mant = static_cast<int64_t>(
        (bits & kMantissaMask) | (static_cast<uint64_t>(normal) << 52));
    const int64_t signed_mant = (mant ^ neg) - neg;
    const uint32_t pos = exp - normal;
    const uint32_t idx = pos / kDigitBits;
    const uint32_t shift = pos % kDigitBits;
    // signed_mant * 2^shift as a digit in [0, 2^32) plus a signed carry
    // into the next chunk (the arithmetic shift floors).
    chunks_[idx] += static_cast<int64_t>(
        (static_cast<uint64_t>(signed_mant) << shift) & kDigitMask);
    chunks_[idx + 1] += signed_mant >> (kDigitBits - shift);
    if (--adds_until_carry_ == 0) Carry();
  }

  /// The exact sum rounded to the nearest double, ties to even; ±inf when
  /// it overflows. Any NaN input, or +inf with -inf, gives the default
  /// quiet NaN; otherwise an infinite input gives that infinity. An exact
  /// zero is +0.0.
  double Round() const;

 private:
  static constexpr int kDigitBits = 32;
  static constexpr uint64_t kDigitMask = 0xffffffffULL;
  static constexpr uint64_t kMantissaMask = (uint64_t{1} << 52) - 1;
  /// Finite doubles span units 2^0 .. 2^2097, so the highest Add() touches
  /// chunk 64; chunk 65 takes the carries above it.
  static constexpr int kChunks = 66;
  /// A chunk moves by < 2^52 per Add(), so 1024 additions on top of a
  /// normalized digit (< 2^32) stay below 2^63.
  static constexpr int32_t kAddsPerCarry = 1024;

  void AddSpecial(uint64_t bits);
  /// Moves every chunk's excess over 32 bits into the next chunk, leaving
  /// digits in [0, 2^32) below a signed top chunk. The value is unchanged.
  void Carry();

  int32_t adds_until_carry_ = kAddsPerCarry;
  bool nan_ = false;
  bool pos_inf_ = false;
  bool neg_inf_ = false;
  int64_t chunks_[kChunks] = {};
};

}  // namespace dfdb

#endif  // DFDB_OPERATORS_EXACT_SUM_H_
