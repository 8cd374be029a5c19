//! Layer three, part two: the partition-disjointness prover.
//!
//! The fused parallel path splits one loop of the vector sweep across
//! workers: the neighbour-min of generations 1–4, over `par_chunks_mut`
//! row chunks of the `T` vector planned by
//! [`gca_hirschberg::kernels::plan_rows`]. Safe Rust already makes a
//! *data race* between chunks unrepresentable — `par_chunks_mut` hands
//! out disjoint `&mut` slices — but two weaker failure classes remain
//! expressible and would silently corrupt results or metrics:
//!
//! * **a bad plan** — chunk intervals that overlap or leave a hole, so
//!   that some row is computed twice from the wrong base or not at all;
//! * **histogram aliasing** — the pointer-chase generations count reads
//!   per chased label, one counter per label, whose slot `d` stands for
//!   cell `d·n` (generation 10) or `d·n + 1` (generation 11); if two
//!   distinct chased labels mapped to one cell, read accounting would be
//!   wrong even though the labels themselves are.
//!
//! This prover enumerates the *exact* planner over the neighbour-min's
//! geometry — all `n = 2^k` (`k ≤ 16`) × worker counts `1..=64` ×
//! threshold settings × explicit/auto — and proves arithmetically that
//! the planned write intervals are pairwise disjoint and exactly cover
//! the vector, and that the chase counters never alias. The seeded-fault
//! hook extends chunk 0's interval by one row — the off-by-one overlap
//! that the sweep's test-only `OverlapChunks` fault plants at run time —
//! and must be rejected as [`PartitionFault::Overlap`].

use gca_hirschberg::kernels::{plan_rows, ParPolicy, MIN_PAR_CHUNK_CELLS};
use std::fmt;

/// A planned-partition violation. Every variant names the kernel
/// geometry and configuration that exhibits it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionFault {
    /// Two chunks' write intervals intersect.
    Overlap {
        /// Kernel geometry name.
        kernel: &'static str,
        /// Problem size.
        n: usize,
        /// Configured worker count.
        workers: usize,
        /// Indices of the two intersecting chunks.
        chunks: (usize, usize),
        /// The first chunk's half-open element interval.
        a: (usize, usize),
        /// The second chunk's half-open element interval.
        b: (usize, usize),
    },
    /// The union of chunk intervals does not exactly cover the plane.
    CoverageHole {
        /// Kernel geometry name.
        kernel: &'static str,
        /// Problem size.
        n: usize,
        /// Elements actually covered (first gap or shortfall position).
        covered: usize,
        /// Plane length that had to be covered.
        plane_len: usize,
    },
    /// Two distinct chased labels merge into one histogram target, or a
    /// target escapes the read plane.
    HistogramAlias {
        /// Kernel geometry name.
        kernel: &'static str,
        /// Problem size.
        n: usize,
        /// The two labels (equal ⇒ out-of-bounds rather than alias).
        labels: (usize, usize),
        /// The shared / out-of-bounds merged target.
        target: usize,
    },
}

impl fmt::Display for PartitionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionFault::Overlap {
                kernel,
                n,
                workers,
                chunks,
                a,
                b,
            } => write!(
                f,
                "partition: {kernel} at n={n} workers={workers}: chunks {} and {} overlap \
                 ([{}, {}) ∩ [{}, {}))",
                chunks.0, chunks.1, a.0, a.1, b.0, b.1
            ),
            PartitionFault::CoverageHole {
                kernel,
                n,
                covered,
                plane_len,
            } => write!(
                f,
                "partition: {kernel} at n={n}: chunks cover {covered} of {plane_len} elements"
            ),
            PartitionFault::HistogramAlias {
                kernel,
                n,
                labels,
                target,
            } => {
                if labels.0 == labels.1 {
                    write!(
                        f,
                        "partition: {kernel} at n={n}: label {} merges out of bounds \
                         (target {target})",
                        labels.0
                    )
                } else {
                    write!(
                        f,
                        "partition: {kernel} at n={n}: labels {} and {} merge into one \
                         histogram target {target}",
                        labels.0, labels.1
                    )
                }
            }
        }
    }
}

impl std::error::Error for PartitionFault {}

/// Statistics of a completed partition proof.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartitionReport {
    /// Planner configurations enumerated (size × workers × threshold ×
    /// explicit).
    pub configs: usize,
    /// Geometries checked per configuration.
    pub geometries: usize,
    /// Parallel plans proven (a `Some(rows_per)` planner outcome whose
    /// chunking passed every check).
    pub parallel_plans: usize,
    /// Histogram merge targets proven alias-free.
    pub hist_targets: usize,
}

/// How a pointer-chase generation maps a chased label `d` to its merged
/// read-histogram target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HistMerge {
    /// Generation 10: slot `d` counts the reads of cell `d·n`.
    Jump,
    /// Generation 11: slot `d` counts the reads of cell `d·n + 1`,
    /// kernel-guarded to stay inside the plane.
    FinalMin,
}

impl HistMerge {
    fn target(self, d: usize, n: usize) -> usize {
        match self {
            HistMerge::Jump => d * n,
            HistMerge::FinalMin => d * n + 1,
        }
    }
}

/// One partitioned loop's geometry, as the sweep hands it to the planner.
struct Geometry {
    kernel: &'static str,
    /// Problem size the geometry was built for.
    n: usize,
    /// Rows handed to `plan_rows`.
    rows: usize,
    /// `row_width` handed to `plan_rows` (field cells per row).
    row_width: usize,
    /// `touched` handed to `plan_rows` (threshold gate).
    touched: usize,
}

/// The partitioned loops of the sweep: the neighbour-min over `n` rows of
/// the square, one `T` entry per row.
fn geometries(n: usize) -> Vec<Geometry> {
    vec![Geometry {
        kernel: "neighbour_min_rows",
        n,
        rows: n,
        row_width: n,
        touched: n * n,
    }]
}

/// The pointer chases' per-label read counters.
const CHASES: [(HistMerge, &str); 2] = [
    (HistMerge::Jump, "pointer_jump"),
    (HistMerge::FinalMin, "final_min"),
];

/// The half-open element intervals `par_chunks_mut(size)` yields over a
/// vector of `len` elements. `grow_first` is the seeded fault: chunk 0
/// claims extra rows, the off-by-one partition of the sweep's test-only
/// `OverlapChunks` fault.
fn intervals(len: usize, size: usize, grow_first: Option<usize>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < len {
        let mut end = (start + size).min(len);
        if start == 0 {
            if let Some(extra) = grow_first {
                end = (end + extra).min(len);
            }
        }
        out.push((start, end));
        start += size;
    }
    out
}

/// Proves one geometry under one planner configuration: the chunks
/// `par_chunks_mut(rows_per)` cuts from the `rows`-long vector are
/// pairwise disjoint and cover it exactly.
fn check_geometry(
    geo: &Geometry,
    policy: ParPolicy,
    seed_fault: bool,
    report: &mut PartitionReport,
) -> Result<(), PartitionFault> {
    let n = geo.n;
    let Some(rows_per) = plan_rows(Some(policy), geo.touched, geo.rows, geo.row_width) else {
        // Sequential: one implicit interval covering the vector — nothing
        // to prove beyond the planner's own `rows ≥ 2` / threshold gates.
        return Ok(());
    };
    let chunks = intervals(geo.rows, rows_per, seed_fault.then_some(1));
    // Intervals are produced in ascending-start order, so adjacent-pair
    // checks decide global disjointness.
    let mut covered = 0usize;
    for (ci, &(start, end)) in chunks.iter().enumerate() {
        if start < covered {
            return Err(PartitionFault::Overlap {
                kernel: geo.kernel,
                n,
                workers: policy.workers,
                chunks: (ci.saturating_sub(1), ci),
                a: chunks[ci.saturating_sub(1)],
                b: (start, end),
            });
        }
        if start > covered {
            break;
        }
        covered = end;
    }
    if covered != geo.rows {
        return Err(PartitionFault::CoverageHole {
            kernel: geo.kernel,
            n,
            covered,
            plane_len: geo.rows,
        });
    }
    report.parallel_plans += 1;
    Ok(())
}

/// Proves the histogram merge of a pointer-chase geometry alias-free:
/// distinct admissible labels map to distinct in-bounds targets. The
/// read plane mirrors the data plane (`n² + n` cells); generation 11's
/// kernel guard (`checked_mul` + `target < len`) is what admits a label.
fn check_histogram(
    merge: HistMerge,
    kernel: &'static str,
    n: usize,
    report: &mut PartitionReport,
) -> Result<(), PartitionFault> {
    let reads_len = n * n + n;
    // Injectivity is arithmetic: targets are `d·n (+ 1)`, strictly
    // increasing in `d` for `n ≥ 1`. `n = 0` never reaches the kernels
    // (the layout rejects empty graphs), but prove the degenerate case
    // anyway rather than assume it.
    if n == 0 {
        return Ok(());
    }
    let admissible = |d: usize| match merge {
        // Generation 10 chases `d ≤ n` (the `d == n` identity row reads
        // `D_N`) and merges unconditionally.
        HistMerge::Jump => d <= n,
        // Generation 11 merges only labels its kernel admitted via the
        // bounds guard.
        HistMerge::FinalMin => d <= n && merge.target(d, n) < reads_len,
    };
    let mut prev: Option<(usize, usize)> = None;
    for d in 0..=n {
        if !admissible(d) {
            continue;
        }
        let target = merge.target(d, n);
        if target >= reads_len {
            return Err(PartitionFault::HistogramAlias {
                kernel,
                n,
                labels: (d, d),
                target,
            });
        }
        if let Some((pd, pt)) = prev {
            if pt >= target {
                return Err(PartitionFault::HistogramAlias {
                    kernel,
                    n,
                    labels: (pd, d),
                    target,
                });
            }
        }
        prev = Some((d, target));
        report.hist_targets += 1;
    }
    Ok(())
}

/// Worker counts enumerated per size. The engine treats `1` as
/// sequential-equivalent and the machine defaults cap out well below
/// 64; proving the full band covers every configurable count.
const WORKER_RANGE: std::ops::RangeInclusive<usize> = 1..=64;

/// Threshold settings: always-parallel, near-always, the shipped auto
/// default, and never-parallel.
const THRESHOLDS: [usize; 4] = [0, 1, MIN_PAR_CHUNK_CELLS, usize::MAX];

fn verify_inner(seed_fault: bool) -> Result<PartitionReport, PartitionFault> {
    let mut report = PartitionReport::default();
    for k in 0..=16u32 {
        let n = 1usize << k;
        let geos = geometries(n);
        report.geometries = geos.len();
        for workers in WORKER_RANGE {
            for threshold in THRESHOLDS {
                for explicit in [false, true] {
                    let policy = ParPolicy {
                        workers,
                        threshold,
                        explicit,
                    };
                    for geo in &geos {
                        check_geometry(geo, policy, seed_fault, &mut report)?;
                    }
                    report.configs += 1;
                }
            }
        }
        // The chases run sequentially: their counters are
        // planner-independent, so prove them once per size.
        for (merge, kernel) in CHASES {
            check_histogram(merge, kernel, n, &mut report)?;
        }
    }
    Ok(report)
}

/// Runs the full partition proof over every enumerated configuration.
pub fn verify() -> Result<PartitionReport, PartitionFault> {
    verify_inner(false)
}

/// Seeded-fault entry: replans every geometry with chunk 0's interval
/// grown by one row — the off-by-one double-covered row. `Some` carries
/// the fault the prover found; `None` means the seeded overlap escaped —
/// a broken prover.
pub fn verify_seeded() -> Option<PartitionFault> {
    verify_inner(true).err()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_partitions_verify() {
        let report = verify().expect("shipped partitions must prove disjoint");
        assert!(report.configs >= 16 * 64 * 8, "configs: {}", report.configs);
        assert!(report.parallel_plans > 1000, "plans: {}", report.parallel_plans);
        assert!(report.hist_targets > 0, "no histogram targets proven");
    }

    #[test]
    fn seeded_overlap_is_rejected() {
        let fault = verify_seeded().expect("seeded overlap must be rejected");
        match fault {
            PartitionFault::Overlap { chunks, a, b, .. } => {
                assert_eq!(chunks.1, chunks.0 + 1, "adjacent chunks: {chunks:?}");
                assert!(a.1 > b.0, "grown chunk 0 must reach into chunk 1: {a:?} vs {b:?}");
            }
            other => panic!("expected Overlap, got {other}"),
        }
    }

    #[test]
    fn intervals_match_par_chunks_mut_semantics() {
        // Reference: rayon's par_chunks_mut(size) over a length-10 plane
        // with size 4 yields [0,4), [4,8), [8,10).
        assert_eq!(intervals(10, 4, None), vec![(0, 4), (4, 8), (8, 10)]);
        // Seeded growth extends only chunk 0.
        assert_eq!(intervals(10, 4, Some(1)), vec![(0, 5), (4, 8), (8, 10)]);
        assert_eq!(intervals(4, 4, None), vec![(0, 4)]);
        assert_eq!(intervals(0, 4, None), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn histogram_alias_detects_collision() {
        // An (artificial) n = 0 plane aside, the prover must reject a
        // non-increasing target sequence; simulate by checking FinalMin
        // on n = 1 where d = 1 maps to target 2 = reads_len and must be
        // filtered by the kernel-guard admissibility, not merged.
        let mut report = PartitionReport::default();
        check_histogram(HistMerge::FinalMin, "final_min", 1, &mut report)
            .expect("guarded n = 1 must verify");
        // Only d = 0 is admissible there (target 1 < 2).
        assert_eq!(report.hist_targets, 1);
    }

    #[test]
    fn fault_displays_name_site_and_numbers() {
        let f = PartitionFault::Overlap {
            kernel: "neighbour_min_rows",
            n: 8,
            workers: 4,
            chunks: (0, 1),
            a: (0, 24),
            b: (16, 32),
        };
        let s = f.to_string();
        assert!(s.contains("neighbour_min_rows"), "{s}");
        assert!(s.contains("n=8"), "{s}");
        assert!(s.contains("overlap"), "{s}");
    }
}
