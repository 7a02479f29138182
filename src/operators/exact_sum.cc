#include "operators/exact_sum.h"

#include <bit>
#include <cmath>
#include <limits>

namespace dfdb {

void ExactSum::AddSpecial(uint64_t bits) {
  if ((bits & kMantissaMask) != 0) {
    nan_ = true;
  } else if ((bits >> 63) != 0) {
    neg_inf_ = true;
  } else {
    pos_inf_ = true;
  }
}

namespace {

/// The normalization step Carry() applies in place, on a copy.
void CarryChunks(int64_t* chunks, int n, int digit_bits) {
  for (int i = 0; i + 1 < n; ++i) {
    const int64_t carry = chunks[i] >> digit_bits;  // Floor division.
    chunks[i] -= carry * (int64_t{1} << digit_bits);
    chunks[i + 1] += carry;
  }
}

/// Bit \p pos of the little-endian digit string \p d.
uint64_t BitAt(const uint32_t* d, int pos) {
  return (d[pos / 32] >> (pos % 32)) & 1u;
}

}  // namespace

void ExactSum::Carry() {
  CarryChunks(chunks_, kChunks, kDigitBits);
  adds_until_carry_ = kAddsPerCarry;
}

double ExactSum::Round() const {
  if (nan_ || (pos_inf_ && neg_inf_)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_) return std::numeric_limits<double>::infinity();
  if (neg_inf_) return -std::numeric_limits<double>::infinity();

  int64_t c[kChunks];
  std::memcpy(c, chunks_, sizeof(c));
  CarryChunks(c, kChunks, kDigitBits);
  // Below the top chunk every digit is now non-negative, so the top
  // chunk's sign is the sum's sign. Round the magnitude.
  const bool negative = c[kChunks - 1] < 0;
  if (negative) {
    for (int64_t& x : c) x = -x;
    CarryChunks(c, kChunks, kDigitBits);
  }
  // Split the (non-negative, up to 63-bit) top chunk so every digit is 32
  // bits wide.
  uint32_t d[kChunks + 1];
  for (int i = 0; i < kChunks; ++i) {
    d[i] = static_cast<uint32_t>(static_cast<uint64_t>(c[i]) & kDigitMask);
  }
  d[kChunks] = static_cast<uint32_t>(static_cast<uint64_t>(c[kChunks - 1]) >>
                                     kDigitBits);
  int top = kChunks;
  while (top >= 0 && d[top] == 0) --top;
  if (top < 0) return 0.0;

  // N * 2^-1074 with N of `bits` significant bits.
  const int bits = 32 * top + static_cast<int>(std::bit_width(d[top]));
  double magnitude;
  if (bits <= 53) {
    // Every N < 2^53 times 2^-1074 is a double (subnormal or the lowest
    // normal binade), so this is exact.
    const uint64_t n =
        d[0] | (top >= 1 ? static_cast<uint64_t>(d[1]) << 32 : 0);
    magnitude = std::ldexp(static_cast<double>(n), -1074);
  } else {
    // Keep the top 53 bits, round half to even on the dropped ones.
    const int drop = bits - 53;
    uint64_t mant = 0;
    for (int k = 52; k >= 0; --k) mant = (mant << 1) | BitAt(d, drop + k);
    const bool half = BitAt(d, drop - 1) != 0;
    bool sticky = false;
    const int below = drop - 1;  // Bits [0, below) are the sticky bits.
    for (int i = 0; i < below / 32 && !sticky; ++i) sticky = d[i] != 0;
    if (!sticky && below % 32 != 0) {
      sticky = (d[below / 32] & ((1u << (below % 32)) - 1)) != 0;
    }
    if (half && (sticky || (mant & 1) != 0)) ++mant;
    // mant * 2^(drop - 1074) is a normal double or overflows to inf; ldexp
    // is exact either way (mant <= 2^53 converts exactly).
    magnitude = std::ldexp(static_cast<double>(mant), drop - 1074);
  }
  return negative ? -magnitude : magnitude;
}

}  // namespace dfdb
