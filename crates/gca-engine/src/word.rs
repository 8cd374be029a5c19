/// The machine word of the cell data path.
///
/// The paper's cells hold node / super-node numbers of `O(log n)` bits plus
/// the distinguished value "∞" used by the minimum computations. A `u32`
/// comfortably covers every field size a simulation can hold in memory
/// (`n(n+1)` cells at `n = 65535` is already 4·10⁹ cells), and keeping the
/// word small keeps the double-buffered field cache-friendly.
pub type Word = u32;

/// The "∞" sentinel of the minimum computations (generations 2–4 and 6–8).
///
/// `min(x, INFINITY) = x` for every representable node number, and the data
/// operation of generation 4/8 tests `d == ∞` explicitly — exactly the two
/// properties the algorithm needs. Node numbers must therefore stay below
/// `INFINITY`, which [`crate::FieldShape`] enforces at construction.
pub const INFINITY: Word = Word::MAX;

/// The machine word of the bit-packed adjacency plane.
///
/// Where a cell's *data* path is a [`Word`], its *adjacency* flag is a
/// single bit: packing 64 flags per `AdjWord` lets the vector sweep skip
/// 64 non-neighbours per word and walk the set bits via
/// `trailing_zeros`. Every bit-addressing computation in the workspace
/// must be phrased in terms of [`WORD_BITS`] — hard-coded `64`/`63`
/// assumptions outside this module are rejected by the `word-width` rule of
/// `gca-lint`.
pub type AdjWord = u64;

/// Number of packed adjacency bits per [`AdjWord`].
///
/// The single source of truth for word-width arithmetic: bit `i` of a
/// packed plane lives in word `i / WORD_BITS` at offset `i % WORD_BITS`,
/// and a row of `n` bits spans `n.div_ceil(WORD_BITS)` words.
pub const WORD_BITS: usize = AdjWord::BITS as usize;

/// `⌈log₂ n⌉` with the conventions `ceil_log2(0) = ceil_log2(1) = 0` — the
/// sub-generation count of every doubling/reduction construction in the
/// workspace (the paper's `log n`).
pub fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_convention() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn infinity_dominates_min() {
        let zero: Word = 0;
        let mid: Word = 12345;
        assert_eq!(Word::min(INFINITY, zero), zero);
        assert_eq!(Word::min(INFINITY, mid), mid);
        assert_eq!(Word::min(INFINITY, INFINITY), INFINITY);
    }

    #[test]
    fn word_bits_matches_adjacency_word() {
        assert_eq!(WORD_BITS, AdjWord::BITS as usize);
        assert!(WORD_BITS.is_power_of_two());
        // A packed row of n bits spans ceil(n / WORD_BITS) words.
        assert_eq!(1usize.div_ceil(WORD_BITS), 1);
        assert_eq!(WORD_BITS.div_ceil(WORD_BITS), 1);
        assert_eq!((WORD_BITS + 1).div_ceil(WORD_BITS), 2);
    }

    #[test]
    fn word_holds_large_node_numbers() {
        let n: Word = 1 << 20;
        assert!(n < INFINITY);
    }
}
