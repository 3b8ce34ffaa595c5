//! Runtime kernel dispatch: one policy knob steering the vertical f32,
//! vertical SQ8, *and* horizontal kernels.
//!
//! [`KernelPolicy`] is the user-facing selector carried by
//! `SearchOptions`; [`KernelIsa`] is what it resolves to
//! on the running machine. Detection runs once per process (cached in a
//! `OnceLock`, like `nary::simd_available`), and the `PDX_KERNEL`
//! environment variable can force a policy without touching call sites —
//! but only where the caller left the policy at [`KernelPolicy::Auto`],
//! so explicit program choices always win.
//!
//! The explicit-SIMD nests ([`lanes`](crate::kernels::lanes)) run the
//! scalar loops' own metric steps in the scalar loops' dimension order
//! (see the module docs of [`pdx`](crate::kernels::pdx)) at whatever
//! register width the resolved ISA has — 16 lanes on AVX-512, 8 on AVX2
//! and NEON — so switching policy or host never changes a distance bit:
//! the policy is a pure performance knob, which is what lets `Auto`
//! default to SIMD.

use crate::kernels::nary::KernelVariant;
use std::sync::OnceLock;

/// Whether the *scalar* kernels were compiled with FMA contraction. The
/// metric steps branch on this constant — the same way at one lane, at
/// eight and at sixteen — so the SIMD op sequence always matches the
/// scalar oracle.
///
/// Kept at module scope deliberately: inside a `#[target_feature]`
/// function, `cfg!(target_feature = "fma")` may reflect the function's
/// enabled features rather than the crate-level compile flags the scalar
/// path was built with.
pub(crate) const SCALAR_FMA: bool = cfg!(target_feature = "fma");

/// Which kernel implementation a search should use.
///
/// Unlike [`KernelVariant`] (which names a specific *horizontal* kernel
/// tier), the policy is layout-agnostic: it steers the vertical PDX f32
/// kernels, the vertical SQ8 kernels, and the horizontal baselines
/// through one dispatch table. See the kernels section of
/// ARCHITECTURE.md for the full policy × ISA × layout table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Pick the best implementation for the running machine, honoring a
    /// `PDX_KERNEL` environment override. The default.
    #[default]
    Auto,
    /// Force the portable scalar loops (the bit-identity oracle).
    Scalar,
    /// Force the explicit SIMD path; falls back to scalar (vertical) or
    /// the unrolled tier (horizontal) when no ISA is detected.
    Simd,
}

impl KernelPolicy {
    /// Parses a policy name as accepted by `--kernel` / `PDX_KERNEL`.
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("auto") {
            Some(Self::Auto)
        } else if s.eq_ignore_ascii_case("scalar") {
            Some(Self::Scalar)
        } else if s.eq_ignore_ascii_case("simd") {
            Some(Self::Simd)
        } else {
            None
        }
    }

    /// The policy name (`auto` / `scalar` / `simd`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Scalar => "scalar",
            Self::Simd => "simd",
        }
    }

    /// Applies the `PDX_KERNEL` environment override: `Auto` defers to
    /// the environment, explicit choices pass through unchanged.
    pub fn effective(self) -> Self {
        match self {
            Self::Auto => env_policy(),
            other => other,
        }
    }

    /// Resolves the policy to the ISA the vertical kernels will run on
    /// this machine.
    pub fn resolve(self) -> KernelIsa {
        match self.effective() {
            Self::Scalar => KernelIsa::Scalar,
            // `Simd` with no detectable ISA degrades to scalar rather
            // than failing: the kernels are bit-identical either way.
            Self::Auto | Self::Simd => detected_isa(),
        }
    }

    /// Maps the policy onto the horizontal kernel tiers of
    /// [`nary_distance`](crate::kernels::nary_distance).
    ///
    /// `Auto`/`Simd` map to [`KernelVariant::Simd`] (which itself falls
    /// back to the unrolled tier when AVX2 is unavailable), preserving
    /// the pre-policy dispatch behavior exactly.
    pub fn horizontal_variant(self) -> KernelVariant {
        match self.effective() {
            Self::Scalar => KernelVariant::Scalar,
            Self::Auto | Self::Simd => KernelVariant::Simd,
        }
    }
}

/// The instruction set the vertical kernels resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// Portable scalar loops (auto-vectorized by the compiler).
    Scalar,
    /// The kernel nests at `lanes::Avx2`: 8 lanes of AVX2+FMA intrinsics
    /// (x86-64).
    Avx2,
    /// The kernel nests at `lanes::Neon`: 8 lanes of NEON intrinsics
    /// (aarch64).
    Neon,
    /// The kernel nests at `lanes::Avx512`: 16 lanes of AVX-512F
    /// intrinsics (x86-64 with AVX-512BW+VL, for the masked byte load of
    /// a narrow SQ8 group, and AVX2+FMA as well). The rotation
    /// (`pdx_linalg::kernel::dot_rows`) and the horizontal kernels,
    /// whose bits are defined by eight-accumulator reductions, run their
    /// AVX2 code under it.
    Avx512,
}

impl KernelIsa {
    /// The ISA name as surfaced by `pdx stat` and the serve stats.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Neon => "neon",
            Self::Avx512 => "avx512",
        }
    }

    /// Stable wire encoding for the serve `Stats` report.
    pub fn wire_code(self) -> u64 {
        match self {
            Self::Scalar => 0,
            Self::Avx2 => 1,
            Self::Neon => 2,
            Self::Avx512 => 3,
        }
    }

    /// Inverse of [`KernelIsa::wire_code`] (`None` for unknown codes
    /// from a newer server).
    pub fn from_wire(code: u64) -> Option<Self> {
        match code {
            0 => Some(Self::Scalar),
            1 => Some(Self::Avx2),
            2 => Some(Self::Neon),
            3 => Some(Self::Avx512),
            _ => None,
        }
    }
}

/// The best ISA the running machine supports, detected once per process:
/// AVX-512 (F+BW+VL) ahead of AVX2 (it requires AVX2+FMA too, so every
/// AVX2 code path stays valid under it), then NEON, then scalar.
pub fn detected_isa() -> KernelIsa {
    static ISA: OnceLock<KernelIsa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                if std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512bw")
                    && std::is_x86_feature_detected!("avx512vl")
                {
                    return KernelIsa::Avx512;
                }
                return KernelIsa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return KernelIsa::Neon;
            }
        }
        KernelIsa::Scalar
    })
}

/// The kernel an `Auto`-policy search runs right now (environment
/// override applied) — what `pdx stat` and the serve stats report.
pub fn active_kernel_isa() -> KernelIsa {
    KernelPolicy::Auto.resolve()
}

/// The `PDX_KERNEL` environment policy, parsed once per process.
/// Unset or invalid values mean `Auto` (invalid values warn once).
fn env_policy() -> KernelPolicy {
    static ENV: OnceLock<KernelPolicy> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("PDX_KERNEL") {
        Ok(raw) => KernelPolicy::parse(&raw).unwrap_or_else(|| {
            eprintln!("warning: ignoring invalid PDX_KERNEL={raw:?} (expected auto|scalar|simd)");
            KernelPolicy::Auto
        }),
        Err(_) => KernelPolicy::Auto,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_case_insensitive_names() {
        assert_eq!(KernelPolicy::parse("auto"), Some(KernelPolicy::Auto));
        assert_eq!(KernelPolicy::parse("SCALAR"), Some(KernelPolicy::Scalar));
        assert_eq!(KernelPolicy::parse("Simd"), Some(KernelPolicy::Simd));
        assert_eq!(KernelPolicy::parse("avx2"), None);
        assert_eq!(KernelPolicy::parse(""), None);
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(detected_isa(), detected_isa());
    }

    #[test]
    fn scalar_policy_always_resolves_scalar() {
        assert_eq!(KernelPolicy::Scalar.resolve(), KernelIsa::Scalar);
        assert_eq!(
            KernelPolicy::Scalar.horizontal_variant(),
            KernelVariant::Scalar
        );
    }

    #[test]
    fn simd_policy_resolves_to_detected_isa() {
        assert_eq!(KernelPolicy::Simd.resolve(), detected_isa());
        assert_eq!(KernelPolicy::Simd.horizontal_variant(), KernelVariant::Simd);
    }

    #[test]
    fn wire_codes_round_trip() {
        for isa in [
            KernelIsa::Scalar,
            KernelIsa::Avx2,
            KernelIsa::Neon,
            KernelIsa::Avx512,
        ] {
            assert_eq!(KernelIsa::from_wire(isa.wire_code()), Some(isa));
        }
        assert_eq!(KernelIsa::Avx512.wire_code(), 3);
        assert_eq!(KernelIsa::Avx512.name(), "avx512");
        assert_eq!(KernelIsa::from_wire(99), None);
    }

    #[test]
    fn default_policy_is_auto() {
        assert_eq!(KernelPolicy::default(), KernelPolicy::Auto);
    }
}
