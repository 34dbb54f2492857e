//! Seed derivation: every input is a pure function of `--seed`.

/// The seed of item `index` of input stream `stream` under workload seed
/// `seed` (SplitMix64 finalizer). Kept below 2^48 so downstream code that
/// adds chunk indices to a seed never overflows.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 16
}
