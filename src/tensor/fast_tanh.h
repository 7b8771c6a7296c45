// Branch-free tanh for the GELU activation.
//
// std::tanh is a scalar libm call (~50 cycles/element) and was the single
// largest non-GEMM cost of a transformer block. This rational approximation
// (the widely used 7/6-degree fit over the clamped range, as in Eigen and
// XNNPACK) is pure elementwise float arithmetic with a select for the
// clamp, so one source serves both callers: naive::GeluInPlace instantiates
// it on float, and the dispatched GeluInPlace (src/tensor/matrix.cc) on a
// 16-lane GCC vector, where the clamp lowers to compare-and-blend instead
// of branches.
//
// Accuracy: |FastTanh(x) - tanh(x)| stays within ~4 float ULPs of 1.0
// (absolute error < 5e-7, worst near the saturation knee |x| ~ 9) on the
// clamp range [-9, 9]; outside it tanh is 1 to float precision and the
// clamp returns exactly +/-tanh(9). tests/tensor_test.cc pins the error
// bound.
//
// Determinism: every lane runs the same IEEE operations in the same order
// as the float instantiation, and the vector kernels are compiled without
// FMA contraction, so the dispatched GELU is bitwise equal to the naive one
// at every ISA level. Unlike libm's tanh, the result does not depend on the
// host libc version.
#ifndef FLASHPS_SRC_TENSOR_FAST_TANH_H_
#define FLASHPS_SRC_TENSOR_FAST_TANH_H_

namespace flashps {

// T is float or a GCC vector of floats.
template <typename T>
inline T FastTanh(T x) {
  // Clamp to where |tanh| == 1 in float; also bounds the polynomials.
  constexpr float kBound = 9.0f;
  x = x > kBound ? kBound : (x < -kBound ? -kBound : x);
  const T x2 = x * x;
  // Numerator (odd) and denominator (even) coefficients of the rational
  // fit; tanh(x) ~= x * P(x^2) / Q(x^2).
  T p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = p * x2 + -8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  p = p * x;
  T q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  return p / q;
}

}  // namespace flashps

#endif  // FLASHPS_SRC_TENSOR_FAST_TANH_H_
