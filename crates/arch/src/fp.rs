//! Floating-point formats of the Snitch SIMD FPU.
//!
//! The Snitch FPU has a 64-bit datapath that can be split into SIMD lanes:
//! one FP64 lane, two FP32 lanes, four FP16 lanes or eight FP8 lanes.
//! SpikeStream evaluates FP16 and FP8 kernels, so this module provides
//! software implementations of IEEE 754 binary16 and of the OCP `E4M3`
//! 8-bit format (the format used by Snitch's `minifloat` FPU slices),
//! without any external dependency.
//!
//! Values are always *computed* in `f32` precision and then rounded to the
//! storage format, which mirrors how narrow formats behave inside an FPU
//! with a wider internal datapath.

/// Width of the FPU datapath in bits (one physical FP register).
pub const FPU_DATAPATH_BITS: u32 = 64;

/// A floating-point storage format supported by the SIMD FPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FpFormat {
    /// IEEE 754 binary64 (one lane per register).
    Fp64,
    /// IEEE 754 binary32 (two lanes per register).
    Fp32,
    /// IEEE 754 binary16 (four lanes per register).
    Fp16,
    /// 8-bit `E4M3` minifloat (eight lanes per register).
    Fp8,
}

impl FpFormat {
    /// Storage width of one element in bits.
    pub fn bits(self) -> u32 {
        match self {
            FpFormat::Fp64 => 64,
            FpFormat::Fp32 => 32,
            FpFormat::Fp16 => 16,
            FpFormat::Fp8 => 8,
        }
    }

    /// Storage width of one element in bytes.
    pub fn bytes(self) -> u32 {
        self.bits() / 8
    }

    /// Number of SIMD lanes that fit in the 64-bit FPU datapath.
    ///
    /// This is the data-parallel width used by the SpikeStream kernels to
    /// batch output channels (Section III-C of the paper).
    pub fn simd_lanes(self) -> u32 {
        FPU_DATAPATH_BITS / self.bits()
    }

    /// Round an `f32` value to this storage format and back.
    ///
    /// This models the precision loss of storing a value in the format.
    #[inline]
    pub fn quantize(self, value: f32) -> f32 {
        match self {
            FpFormat::Fp64 | FpFormat::Fp32 => value,
            FpFormat::Fp16 => f16_to_f32(f32_to_f16(value)),
            FpFormat::Fp8 => f8_to_f32(f32_to_f8(value)),
        }
    }

    /// All formats, widest first.
    pub fn all() -> [FpFormat; 4] {
        [FpFormat::Fp64, FpFormat::Fp32, FpFormat::Fp16, FpFormat::Fp8]
    }
}

impl std::fmt::Display for FpFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FpFormat::Fp64 => "FP64",
            FpFormat::Fp32 => "FP32",
            FpFormat::Fp16 => "FP16",
            FpFormat::Fp8 => "FP8",
        };
        f.write_str(name)
    }
}

/// Convert an `f32` to IEEE 754 binary16 bits (round-to-nearest-even).
#[inline]
pub fn f32_to_f16(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Infinity or NaN.
        if mant == 0 {
            return sign | 0x7c00;
        }
        // Preserve a quiet NaN payload bit so NaN stays NaN.
        return sign | 0x7e00;
    }

    // Re-bias exponent from 127 to 15.
    let unbiased = exp - 127;
    let new_exp = unbiased + 15;

    if new_exp >= 0x1f {
        // Overflow to infinity.
        return sign | 0x7c00;
    }
    if new_exp <= 0 {
        // Subnormal or underflow to zero.
        if new_exp < -10 {
            return sign;
        }
        // Add the implicit bit and shift into the subnormal range.
        let mant = mant | 0x0080_0000;
        let shift = (14 - new_exp) as u32;
        let half_mant = mant >> shift;
        // Round to nearest even.
        let round_bit = 1u32 << (shift - 1);
        let remainder = mant & (round_bit | (round_bit - 1));
        let mut result = half_mant as u16;
        if remainder > round_bit || (remainder == round_bit && (half_mant & 1) == 1) {
            result += 1;
        }
        return sign | result;
    }

    // Normalized: round mantissa from 23 to 10 bits, nearest even.
    let mant10 = mant >> 13;
    let remainder = mant & 0x1fff;
    let mut result = ((new_exp as u16) << 10) | mant10 as u16;
    if remainder > 0x1000 || (remainder == 0x1000 && (mant10 & 1) == 1) {
        result += 1; // carry may roll into the exponent, which is correct
    }
    sign | result
}

/// Convert IEEE 754 binary16 bits to an `f32`.
#[inline]
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x03ff) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut exp = 127 - 15 + 1;
            let mut mant = mant;
            while mant & 0x0400 == 0 {
                mant <<= 1;
                exp -= 1;
            }
            let mant = (mant & 0x03ff) << 13;
            sign | ((exp as u32) << 23) | mant
        }
    } else if exp == 0x1f {
        if mant == 0 {
            sign | 0x7f80_0000
        } else {
            sign | 0x7fc0_0000 | (mant << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Largest finite magnitude representable in `E4M3`.
pub const F8_E4M3_MAX: f32 = 448.0;

/// Convert an `f32` to `E4M3` minifloat bits (round-to-nearest-even, saturating).
///
/// `E4M3` has a sign bit, 4 exponent bits (bias 7) and 3 mantissa bits. The
/// all-ones exponent with all-ones mantissa encodes NaN; there is no
/// infinity, so overflow saturates to the maximum finite value, as in the
/// OCP specification and in hardware minifloat units.
pub fn f32_to_f8(value: f32) -> u8 {
    let bits = value.to_bits();
    let sign = ((bits >> 24) & 0x80) as u8;
    if value.is_nan() {
        return sign | 0x7f;
    }
    let abs = value.abs();
    if abs >= F8_E4M3_MAX {
        // Saturate (also covers +/- infinity).
        return sign | 0x7e;
    }
    if abs == 0.0 {
        return sign;
    }

    let exp = ((bits >> 23) & 0xff) as i32 - 127; // unbiased
    let new_exp = exp + 7;
    let mant = bits & 0x007f_ffff;

    if new_exp <= 0 {
        // Subnormal range: smallest subnormal is 2^-9.
        if new_exp < -3 {
            return sign;
        }
        let mant = mant | 0x0080_0000;
        let shift = (20 + (1 - new_exp)) as u32;
        let small = mant >> shift;
        let round_bit = 1u32 << (shift - 1);
        let remainder = mant & (round_bit | (round_bit - 1));
        let mut result = small as u8;
        if remainder > round_bit || (remainder == round_bit && (small & 1) == 1) {
            result += 1;
        }
        return sign | result;
    }

    // Normalized: keep 3 mantissa bits.
    let mant3 = mant >> 20;
    let remainder = mant & 0x000f_ffff;
    let mut result = ((new_exp as u8) << 3) | mant3 as u8;
    if remainder > 0x8_0000 || (remainder == 0x8_0000 && (mant3 & 1) == 1) {
        result += 1;
    }
    // Rounding may have produced the NaN encoding (exp=15, mant=7); that means
    // the value rounded above the max finite, so saturate instead.
    if (result & 0x7f) == 0x7f {
        result = (result & 0x80) | 0x7e;
    }
    sign | result
}

/// Convert `E4M3` minifloat bits to an `f32`.
pub fn f8_to_f32(bits: u8) -> f32 {
    let sign = if bits & 0x80 != 0 { -1.0f32 } else { 1.0f32 };
    let exp = ((bits >> 3) & 0x0f) as i32;
    let mant = (bits & 0x07) as f32;
    if exp == 0x0f && (bits & 0x07) == 0x07 {
        return f32::NAN;
    }
    if exp == 0 {
        // Subnormal: mant * 2^-9.
        sign * mant * (2.0f32).powi(-9)
    } else {
        sign * (1.0 + mant / 8.0) * (2.0f32).powi(exp - 7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_lane_counts_match_snitch_datapath() {
        assert_eq!(FpFormat::Fp64.simd_lanes(), 1);
        assert_eq!(FpFormat::Fp32.simd_lanes(), 2);
        assert_eq!(FpFormat::Fp16.simd_lanes(), 4);
        assert_eq!(FpFormat::Fp8.simd_lanes(), 8);
    }

    #[test]
    fn f16_round_trips_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1024.0] {
            assert_eq!(f16_to_f32(f32_to_f16(v)), v, "value {v}");
        }
    }

    #[test]
    fn f16_handles_special_values() {
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        // Overflow saturates to infinity in binary16.
        assert_eq!(f16_to_f32(f32_to_f16(1.0e6)), f32::INFINITY);
        // Tiny values underflow to (signed) zero.
        assert_eq!(f16_to_f32(f32_to_f16(1.0e-12)), 0.0);
    }

    #[test]
    fn f16_subnormals_are_representable() {
        let smallest_subnormal = 5.960_464_5e-8f32; // 2^-24
        let rt = f16_to_f32(f32_to_f16(smallest_subnormal));
        assert!((rt - smallest_subnormal).abs() < 1e-9);
    }

    #[test]
    fn f16_rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and the next representable value;
        // round-to-nearest-even keeps 1.0.
        let v = 1.0 + (2.0f32).powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(v)), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 (odd mantissa) and
        // 1+2^-9 (even mantissa); ties-to-even picks the latter.
        let v = 1.0 + 3.0 * (2.0f32).powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(v)), 1.0 + (2.0f32).powi(-9));
    }

    #[test]
    fn f8_round_trips_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 448.0, -448.0, 0.125, 16.0] {
            assert_eq!(f8_to_f32(f32_to_f8(v)), v, "value {v}");
        }
    }

    #[test]
    fn f8_saturates_instead_of_overflowing() {
        assert_eq!(f8_to_f32(f32_to_f8(1.0e9)), F8_E4M3_MAX);
        assert_eq!(f8_to_f32(f32_to_f8(-1.0e9)), -F8_E4M3_MAX);
        assert_eq!(f8_to_f32(f32_to_f8(f32::INFINITY)), F8_E4M3_MAX);
    }

    #[test]
    fn f8_preserves_nan() {
        assert!(f8_to_f32(f32_to_f8(f32::NAN)).is_nan());
    }

    #[test]
    fn f8_subnormals() {
        // Smallest E4M3 subnormal is 2^-9.
        let v = (2.0f32).powi(-9);
        assert_eq!(f8_to_f32(f32_to_f8(v)), v);
        // Below half of that, the value flushes to zero.
        assert_eq!(f8_to_f32(f32_to_f8(v / 4.0)), 0.0);
    }

    #[test]
    fn quantize_is_identity_for_wide_formats() {
        let v = 1.234_567_9_f32;
        assert_eq!(FpFormat::Fp64.quantize(v), v);
        assert_eq!(FpFormat::Fp32.quantize(v), v);
        assert_ne!(FpFormat::Fp8.quantize(v), v);
    }

    #[test]
    fn simd_add_quantizes_to_format() {
        // A lane-wise add re-quantizes to the storage format: 1.01 is not
        // representable in E4M3 and rounds back to 1.0.
        let fp8 = FpFormat::Fp8;
        assert_eq!(fp8.quantize(fp8.quantize(1.0) + fp8.quantize(0.01)), 1.0);
    }
}
