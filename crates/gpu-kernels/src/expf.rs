//! The repository's own single-precision `exp`, so that the Gaussian's
//! bits do not depend on the host's libm.
//!
//! This is the optimized-routines algorithm that glibc ships, in the
//! form glibc's FMA build of it takes:
//!
//! 1. `x·32/ln 2 = k + r` is split in f64 with two fused multiply-adds
//!    (the `1.5·2⁵²` shift rounds `k` to an integer in its low bits);
//! 2. `2^(k/32)` is a 32-entry table of `2^(i/32)` with `k`'s integer
//!    part added to the exponent field;
//! 3. `2^(r/32)` is a cubic in three more fused multiply-adds, and the
//!    f64 product rounds once to f32.
//!
//! `f64::mul_add` rounds once on every platform — one instruction
//! where the host has FMA, libm's `fma` where it does not — so every
//! dispatch path gives the same bits. Inputs below `ln 2⁻¹⁵⁰` give 0,
//! inputs above `ln 2¹²⁸` give +∞, a NaN gives `x + x`, and every other
//! input takes the main path.
//!
//! The scalar [`expf`] picks its copy at run time; the host evaluator
//! (`oracle.rs`) maps the same definition over lane arrays inside each
//! of its compiled copies, so it never has a second exp.

/// `2^(i/32)`'s bits minus `i << 47`, so that adding `k << 47` for
/// `k ≡ i (mod 32)` both picks the entry and scales it by `2^⌊k/32⌋`.
const TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5·2⁵²` (`0x1.8p52`): adding it rounds to an integer.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic's coefficients for `r³`, `r²` and `r`, scaled by `1/32`
/// per power (`0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`,
/// `0x1.62e42ff0c52d6p-6`).
const C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// Below this (`−0x1.9fe368p6`, `ln 2⁻¹⁵⁰`) the result is 0.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Above this (`0x1.62e42ep6`, `ln 2¹²⁸`) the result is +∞.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);

/// The definition, inlined into every copy. The main path runs on
/// every input and the special cases select over it, so a lane map
/// of it stays branch-free.
#[inline(always)]
fn expf_def(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let r = INV_LN2_N.mul_add(xd, -(kd - SHIFT));
    let s = f64::from_bits(TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = C[0].mul_add(r, C[1]).mul_add(r * r, C[2].mul_add(r, 1.0));
    let y = (y * s) as f32;
    if x.is_nan() {
        x + x
    } else if x < UNDERFLOW {
        0.0
    } else if x > OVERFLOW {
        f32::INFINITY
    } else {
        y
    }
}

/// `e^x` in single precision, with the same bits on every host: the
/// hardware-FMA copy where the host has FMA, the portable one (libm's
/// correctly rounded `fma`) elsewhere.
#[must_use]
pub fn expf(x: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") {
        // SAFETY: the host has FMA, the only feature `expf_fma` enables.
        return unsafe { expf_fma(x) };
    }
    expf_def(x)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn expf_fma(x: f32) -> f32 {
    expf_def(x)
}

/// [`expf`] over `L` lanes: the same definition, for a lane body to
/// inline into each of its compiled copies.
#[inline(always)]
pub(crate) fn expf_lanes<const L: usize>(x: [f32; L]) -> [f32; L] {
    let mut y = [0.0f32; L];
    for (y, &x) in y.iter_mut().zip(&x) {
        *y = expf_def(x);
    }
    y
}

/// An instruction set a lane body is compiled for. [`Isa::ALL`] lists
/// them best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// x86-64 with AVX-512F and FMA.
    Avx512,
    /// x86-64 with AVX2 and FMA.
    Avx2,
    /// The build's baseline target.
    Baseline,
}

impl Isa {
    /// Every copy, best first.
    pub(crate) const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Baseline];

    /// Whether this host can run the copy compiled for `self`.
    pub(crate) fn supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 | Isa::Avx2 => false,
        }
    }

    /// The best copy this host can run.
    pub(crate) fn host() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.supported())
            .unwrap_or(Isa::Baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane map as a copy compiled under each instruction set,
    /// over lane arrays of 16.
    fn map_on(isa: Isa, xs: &mut [f32]) {
        #[inline(always)]
        fn map(xs: &mut [f32]) {
            for chunk in xs.chunks_exact_mut(16) {
                let y = expf_lanes(<[f32; 16]>::try_from(&*chunk).expect("16 lanes"));
                chunk.copy_from_slice(&y);
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,fma")]
        fn map_avx512(xs: &mut [f32]) {
            map(xs);
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        fn map_avx2(xs: &mut [f32]) {
            map(xs);
        }
        assert!(isa.supported(), "{isa:?} is not supported here");
        match isa {
            // SAFETY: asserted above that the host has AVX-512F and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { map_avx512(xs) },
            // SAFETY: asserted above that the host has AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { map_avx2(xs) },
            _ => map(xs),
        }
    }

    /// Every dispatch path this host supports, against the portable
    /// definition (`mul_add` through libm's `fma` unless the build's
    /// baseline has FMA), bit for bit.
    fn check_every_path(xs: &[f32]) {
        let want: Vec<u32> = xs.iter().map(|&x| expf_def(x).to_bits()).collect();
        let mut paths: Vec<(String, Vec<f32>)> =
            vec![("expf".into(), xs.iter().map(|&x| expf(x)).collect())];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("fma") {
            // SAFETY: the host has FMA.
            let fma = xs.iter().map(|&x| unsafe { expf_fma(x) }).collect();
            paths.push(("expf_fma".into(), fma));
        }
        for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
            let mut ys = xs.to_vec();
            map_on(isa, &mut ys);
            paths.push((format!("lanes {isa:?}"), ys));
        }
        for (path, ys) in &paths {
            for ((x, w), y) in xs.iter().zip(&want).zip(ys) {
                assert_eq!(
                    y.to_bits(),
                    *w,
                    "{path}: expf({x:e} = {:#010x}) gives {:#010x}, want {w:#010x}",
                    x.to_bits(),
                    y.to_bits()
                );
            }
        }
    }

    /// Pads to whole lane arrays.
    fn padded(mut xs: Vec<f32>) -> Vec<f32> {
        xs.resize(xs.len().next_multiple_of(16), 0.0);
        xs
    }

    #[test]
    fn the_table_holds_two_to_the_i_over_32() {
        for (i, &t) in TABLE.iter().enumerate() {
            let got = f64::from_bits(t + ((i as u64) << 47));
            let want = (i as f64 / 32.0).exp2();
            assert!(
                got.to_bits().abs_diff(want.to_bits()) <= 1,
                "entry {i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn the_fma_form_pins_the_two_inputs_a_plain_product_moves() {
        // Without fusing, `32/ln 2 · x` rounds before the shift and
        // these two land one ulp low (0x56fc9f1b, 0x11fa2992).
        assert_eq!(expf(f32::from_bits(0x4202_422f)).to_bits(), 0x56fc_9f1c);
        assert_eq!(expf(f32::from_bits(0xc27c_65d9)).to_bits(), 0x11fa_2993);
        check_every_path(&padded(vec![
            f32::from_bits(0x4202_422f),
            f32::from_bits(0xc27c_65d9),
        ]));
    }

    #[test]
    fn special_inputs_take_their_branch() {
        assert_eq!(expf(0.0), 1.0);
        assert_eq!(expf(-0.0), 1.0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert!(expf(f32::NAN).is_nan());
        assert_eq!(expf(OVERFLOW.next_up()), f32::INFINITY);
        assert!(expf(OVERFLOW).is_finite());
        assert_eq!(expf(UNDERFLOW.next_down()).to_bits(), 0);
        assert!(expf(-88.0) > 0.0 && expf(-100.0) < f32::MIN_POSITIVE);
    }

    #[test]
    fn every_path_agrees_on_a_stratified_sample_and_the_special_values() {
        let mut xs: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        for bits in [OVERFLOW.to_bits(), UNDERFLOW.to_bits(), 88.0f32.to_bits()] {
            xs.extend([bits - 1, bits, bits + 1].map(f32::from_bits));
        }
        xs.extend([
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -88.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ]);
        // NaN payloads, quiet and signalling, both signs.
        xs.extend(
            [
                0x7fc0_0000,
                0x7fc1_2345,
                0x7f80_0001,
                0xffc0_0000,
                0xff80_4321,
            ]
            .map(f32::from_bits),
        );
        // Subnormals.
        xs.extend(
            [
                0x0000_0001,
                0x0040_0000,
                0x007f_ffff,
                0x8000_0001,
                0x807f_ffff,
            ]
            .map(f32::from_bits),
        );
        check_every_path(&padded(xs));
    }

    /// Every f32 on every path; release only (`cargo test --release
    /// -p ks-gpu-kernels --lib expf -- --ignored`).
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, run in release"]
    fn every_path_agrees_on_every_input() {
        const CHUNK: u64 = 1 << 20;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        std::thread::scope(|s| {
            for id in 0..threads {
                s.spawn(move || {
                    let mut start = id * CHUNK;
                    while start < 1 << 32 {
                        let xs: Vec<f32> = (start..start + CHUNK)
                            .map(|b| f32::from_bits(b as u32))
                            .collect();
                        check_every_path(&xs);
                        start += threads * CHUNK;
                    }
                });
            }
        });
    }
}
