//! CPU feature probe.
//!
//! The miners run one portable scalar join path (see DESIGN.md §12);
//! nothing in the engines dispatches on CPU features. The probe stays
//! so benchmark provenance can record whether the machine it ran on
//! has AVX2.

use std::sync::OnceLock;

/// True on x86-64 when AVX2 is detected at runtime. Probed once per
/// process.
pub fn simd_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}
