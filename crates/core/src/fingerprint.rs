//! Stable content fingerprints.
//!
//! [`fnv1a`] is the one hash the workspace uses wherever a value must map
//! to the same `u64` in every process and on every run: the simulated
//! crowd's per-object seeding, the fault injector's question fingerprints
//! and the fleet's consistent-hash ring. The algorithm of std's
//! `DefaultHasher` is explicitly unspecified and may change between
//! releases; 64-bit FNV-1a is fixed by its definition.

/// The 64-bit FNV offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`: deterministic across processes, runs and
/// platforms, and cheap enough for per-question use. Not collision
/// resistant against an adversary — use it for placement and seeding, not
/// for integrity.
///
/// ```
/// use coverage_core::fingerprint::fnv1a;
/// assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(OFFSET_BASIS, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference FNV-1a 64-bit test vectors.
    #[test]
    fn golden_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }
}
