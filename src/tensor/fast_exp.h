// Branch-free exp for softmax, on the non-positive inputs softmax feeds it
// (x - max(row) <= 0).
//
// libm's expf is a scalar call, so a softmax loop around it cannot
// vectorize. This is the Cephes expf scheme instead: round x·log2(e) to
// the nearest integer n with the 1.5·2^23 shift trick, reduce
// r = x - n·ln2 in two Cody-Waite steps, evaluate a degree-5 polynomial
// for e^r on [-ln2/2, ln2/2], and scale by 2^n built directly in the
// exponent bits. Pure elementwise float and int32 arithmetic with selects,
// so the same source runs on float and on GCC vectors of floats.
//
// Accuracy: on [-87.3, 0] the result is at most 1 ULP from the correctly
// rounded exp, checked over every float in that range without FMA
// contraction (tests/tensor_test.cc samples it). Below ln(FLT_MIN) ~ -87.34
// the result is exactly 0 rather than a subnormal; -inf gives 0. Inputs
// above 0 are outside the contract.
#ifndef FLASHPS_SRC_TENSOR_FAST_EXP_H_
#define FLASHPS_SRC_TENSOR_FAST_EXP_H_

#include <cstdint>
#include <type_traits>

namespace flashps {

// The lane-wise int32 view of T: int32_t for float, and for a GCC vector of
// floats the same-width int32 vector (the type its comparisons return).
template <typename T>
using Int32LanesOf =
    std::conditional_t<std::is_same_v<T, float>, int32_t, decltype(T{} < T{})>;

// T is float or a GCC vector of floats; x <= 0.
template <typename T>
inline T FastExpNonPositive(T x) {
  constexpr float kMinArg = -87.3365447f;  // ln(FLT_MIN)
  constexpr float kLog2e = 1.44269504088896341f;
  // ln 2 = kLn2Hi + kLn2Lo, where kLn2Hi has few enough significant bits
  // that n * kLn2Hi is exact for every |n| <= 127.
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  constexpr float kShift = 12582912.0f;       // 1.5 * 2^23
  constexpr int32_t kShiftBits = 0x4B400000;  // The bit pattern of kShift.
  const T xc = x < kMinArg ? kMinArg : x;
  // n + kShift lies in [2^23, 2^24), where the float spacing is 1: the add
  // rounds x·log2(e) to the nearest integer n and leaves n in the low bits.
  const T shifted = xc * kLog2e + kShift;
  const T n = shifted - kShift;
  T r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  T p = r * 1.9875691500e-4f + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const T y = p * (r * r) + r + 1.0f;
  // 2^n as a float: biased exponent n + 127 in [1, 127], zero mantissa.
  Int32LanesOf<T> bits;
  __builtin_memcpy(&bits, &shifted, sizeof(bits));
  bits = (bits - kShiftBits + 127) << 23;
  T scale;
  __builtin_memcpy(&scale, &bits, sizeof(scale));
  return x < kMinArg ? 0.0f : y * scale;
}

}  // namespace flashps

#endif  // FLASHPS_SRC_TENSOR_FAST_EXP_H_
