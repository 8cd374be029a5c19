//! Layer three, part two: the partition-disjointness prover.
//!
//! The fused parallel path runs every kernel as a row-range function
//! over `par_chunks_mut` partitions planned by
//! [`gca_hirschberg::kernels::plan_rows`]. Safe Rust already makes a
//! *data race* between chunks unrepresentable — `par_chunks_mut` hands
//! out disjoint `&mut` slices — but three weaker failure classes remain
//! expressible and would silently corrupt results or metrics:
//!
//! * **zip truncation** — `par_chunks_mut(..).zip(slots)` drops
//!   trailing chunks if the accumulator slot count disagrees with the
//!   chunk count: rows would silently not execute;
//! * **companion skew** — the square plane, the occupancy plane and the
//!   `D_N` row are chunked with *separately computed* chunk sizes
//!   (`rows_per·n`, `rows_per·wpr`, `rows_per`); if their per-chunk row
//!   ranges ever diverged, a chunk would pair rows of one plane with
//!   bits of another;
//! * **histogram aliasing** — the pointer-chase generations merge
//!   per-chunk read histograms into the shared plane at targets `d·n`
//!   (generation 10) and `d·n + 1` (generation 11); if two distinct
//!   chased labels mapped to one target, read accounting would be
//!   wrong even though the labels themselves are.
//!
//! This prover enumerates the *exact* planner over every kernel
//! geometry — all `n = 2^k` (`k ≤ 16`) × worker counts `1..=64` ×
//! threshold settings × explicit/auto — and proves arithmetically that
//! the planned write intervals are pairwise disjoint, exactly cover the
//! field, stay whole-row aligned, agree across companion planes, and
//! that the merged histogram targets never alias. The seeded-fault hook
//! extends chunk 0's interval by one row — the same off-by-one overlap
//! that the dynamic `dup-row` fault
//! ([`gca_engine::faults::FaultKind::DuplicatedChunkRow`]) models as a
//! double-counted row-0 read — and must be rejected as
//! [`PartitionFault::Overlap`].

use gca_engine::WORD_BITS;
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
    /// Chunk count disagrees with accumulator slot count — `zip` would
    /// silently drop trailing chunks.
    ZipTruncation {
        /// Kernel geometry name.
        kernel: &'static str,
        /// Problem size.
        n: usize,
        /// Chunks `par_chunks_mut` would produce.
        chunks: usize,
        /// Accumulator slots the kernel allocates.
        slots: usize,
    },
    /// A chunk boundary cuts through a row.
    Misalignment {
        /// Kernel geometry name.
        kernel: &'static str,
        /// Problem size.
        n: usize,
        /// Offending chunk index.
        chunk: usize,
        /// The unaligned interval start (elements).
        start: usize,
        /// Elements per row of the chunked plane.
        row_elems: usize,
    },
    /// A companion plane's chunk covers a different row range than the
    /// square plane's chunk it is zipped with.
    CompanionSkew {
        /// Kernel geometry name.
        kernel: &'static str,
        /// Companion plane name (`"occ"` or `"dn"`).
        plane: &'static str,
        /// Problem size.
        n: usize,
        /// Offending chunk index.
        chunk: usize,
        /// Row range of the square plane's chunk.
        square_rows: (usize, usize),
        /// Row range of the companion plane's chunk.
        companion_rows: (usize, usize),
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
            PartitionFault::ZipTruncation {
                kernel,
                n,
                chunks,
                slots,
            } => write!(
                f,
                "partition: {kernel} at n={n}: {chunks} chunks zipped against {slots} \
                 accumulator slots — trailing chunks would be dropped"
            ),
            PartitionFault::Misalignment {
                kernel,
                n,
                chunk,
                start,
                row_elems,
            } => write!(
                f,
                "partition: {kernel} at n={n}: chunk {chunk} starts mid-row \
                 (element {start}, {row_elems} per row)"
            ),
            PartitionFault::CompanionSkew {
                kernel,
                plane,
                n,
                chunk,
                square_rows,
                companion_rows,
            } => write!(
                f,
                "partition: {kernel} at n={n}: chunk {chunk} pairs square rows \
                 [{}, {}) with {plane} rows [{}, {})",
                square_rows.0, square_rows.1, companion_rows.0, companion_rows.1
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
    /// Kernel geometries checked per configuration.
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
    /// Generation 10: `reads[d·n] += count`.
    Jump,
    /// Generation 11: `reads[d·n + 1] += count`, kernel-guarded to stay
    /// inside the plane.
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

/// One kernel's partition geometry, as the executor constructs it.
struct Geometry {
    kernel: &'static str,
    /// Problem size the geometry was built for.
    n: usize,
    /// Rows handed to `plan_rows`.
    rows: usize,
    /// `row_width` handed to `plan_rows` (data-plane cells per row).
    row_width: usize,
    /// `touched` handed to `plan_rows` (threshold gate).
    touched: usize,
    /// Elements per row of the plane actually chunked (`n` for the
    /// square plane, `1` for the label vector of the pointer chases).
    plane_row_elems: usize,
    /// Zipped occupancy plane (`rows · wpr` words, `rows_per · wpr` per
    /// chunk) — the SWAR filters and reduces.
    occ: bool,
    /// Zipped `D_N` row (`rows` cells, `rows_per` per chunk) — resolve
    /// and copy-save.
    dn: bool,
    /// Per-chunk histogram merge, if the kernel accumulates one.
    hist: Option<HistMerge>,
    /// `true` for the pointer-chase count formula
    /// `n.div_ceil(rows_per.max(1)).max(1)`; `false` for the square
    /// kernels' `rows.div_ceil(rows_per)`.
    chase_count: bool,
}

/// The kernel geometries of `FusedExecutor`, in generation order. The
/// reduce appears twice because its `touched` (active cells) varies
/// with the fold stride — both extremes exercise the threshold gate.
fn geometries(n: usize) -> Vec<Geometry> {
    let square = n * n;
    let g = |kernel, rows, row_width, touched, plane_row_elems| Geometry {
        kernel,
        n,
        rows,
        row_width,
        touched,
        plane_row_elems,
        occ: false,
        dn: false,
        hist: None,
        chase_count: false,
    };
    vec![
        // Generation 0: every cell (square + D_N row) seeded in one pass.
        g("init_rows", n + 1, n, (n + 1) * n, n),
        // Generations 1 / 5: whole-row broadcast over `d[..touched]`.
        g("broadcast_rows(C)", n + 1, n, (n + 1) * n, n),
        g("broadcast_rows(T)", n, n, square, n),
        // Generations 2 / 6: square plane zipped with the occupancy plane.
        Geometry {
            occ: true,
            ..g("filter_neighbor_rows", n, n, square, n)
        },
        Geometry {
            occ: true,
            ..g("filter_member_rows", n, n, square, n)
        },
        // The fused broadcast+filter pair chunks exactly like the filter.
        Geometry {
            occ: true,
            ..g("broadcast_filter_rows", n, n, square, n)
        },
        // Generations 3 / 7: active cells shrink with the stride — prove
        // both the first-stride plan and the tail where only `n` cells
        // remain active.
        Geometry {
            occ: true,
            ..g("min_reduce_rows(first stride)", n, n, square, n)
        },
        Geometry {
            occ: true,
            ..g("min_reduce_rows(last stride)", n, n, n, n)
        },
        // Generations 4 / 8: square zipped with read-shared D_N chunks.
        Geometry {
            dn: true,
            ..g("resolve_rows", n, n, n, n)
        },
        // Generation 9: square zipped with writable D_N chunks.
        Geometry {
            dn: true,
            ..g("copy_save_rows", n, n, square, n)
        },
        // Generations 10 / 11: label vector chunks with per-chunk
        // histograms merged at `d·n` / `d·n + 1`.
        Geometry {
            hist: Some(HistMerge::Jump),
            chase_count: true,
            ..g("jump_rows", n, 1, n, 1)
        },
        Geometry {
            hist: Some(HistMerge::FinalMin),
            chase_count: true,
            ..g("final_min_rows", n, 1, n, 1)
        },
    ]
}

/// The half-open element intervals `par_chunks_mut(size)` yields over a
/// plane of `len` elements. `grow_first` is the seeded fault: chunk 0
/// claims one extra row, the off-by-one partition the dynamic `dup-row`
/// fault models.
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

/// Proves one geometry under one planner configuration.
fn check_geometry(
    geo: &Geometry,
    policy: ParPolicy,
    seed_fault: bool,
    report: &mut PartitionReport,
) -> Result<(), PartitionFault> {
    let n = geo.n;
    let Some(rows_per) = plan_rows(Some(policy), geo.touched, geo.rows, geo.row_width) else {
        // Sequential: one implicit interval covering the plane — nothing
        // to prove beyond the planner's own `rows ≥ 2` / threshold gates.
        return Ok(());
    };
    let plane_len = geo.rows * geo.plane_row_elems;
    let chunk_elems = rows_per * geo.plane_row_elems;
    let grow = seed_fault.then_some(geo.plane_row_elems);
    let chunks = intervals(plane_len, chunk_elems, grow);
    // Slot count exactly as the kernel computes it.
    let slots = if geo.chase_count {
        geo.rows.div_ceil(rows_per.max(1)).max(1)
    } else {
        geo.rows.div_ceil(rows_per)
    };
    if chunks.len() != slots {
        return Err(PartitionFault::ZipTruncation {
            kernel: geo.kernel,
            n,
            chunks: chunks.len(),
            slots,
        });
    }
    // Pairwise disjoint + exact cover + whole-row alignment. Intervals
    // are produced in ascending-start order, so adjacent-pair checks
    // decide global disjointness.
    let mut covered = 0usize;
    for (ci, &(start, end)) in chunks.iter().enumerate() {
        if start % geo.plane_row_elems != 0 {
            return Err(PartitionFault::Misalignment {
                kernel: geo.kernel,
                n,
                chunk: ci,
                start,
                row_elems: geo.plane_row_elems,
            });
        }
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
            return Err(PartitionFault::CoverageHole {
                kernel: geo.kernel,
                n,
                covered,
                plane_len,
            });
        }
        covered = end;
    }
    if covered != plane_len {
        return Err(PartitionFault::CoverageHole {
            kernel: geo.kernel,
            n,
            covered,
            plane_len,
        });
    }
    // Companion planes must pair identical row ranges chunk-for-chunk.
    let wpr = n.div_ceil(WORD_BITS);
    let mut companions: Vec<(&'static str, usize)> = Vec::new();
    if geo.occ {
        companions.push(("occ", wpr));
    }
    if geo.dn {
        companions.push(("dn", 1));
    }
    for (plane, elems_per_row) in companions {
        let comp = intervals(geo.rows * elems_per_row, rows_per * elems_per_row, None);
        if comp.len() != chunks.len() {
            return Err(PartitionFault::ZipTruncation {
                kernel: geo.kernel,
                n,
                chunks: chunks.len(),
                slots: comp.len(),
            });
        }
        for (ci, (&sq, &co)) in chunks.iter().zip(&comp).enumerate() {
            let square_rows = (sq.0 / geo.plane_row_elems, sq.1.div_ceil(geo.plane_row_elems));
            let companion_rows = (co.0 / elems_per_row, co.1.div_ceil(elems_per_row));
            if square_rows != companion_rows {
                return Err(PartitionFault::CompanionSkew {
                    kernel: geo.kernel,
                    plane,
                    n,
                    chunk: ci,
                    square_rows,
                    companion_rows,
                });
            }
        }
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
        // Histogram targets are planner-independent (the merge runs
        // sequentially on the calling thread) — prove once per size.
        for geo in &geos {
            if let Some(merge) = geo.hist {
                check_histogram(merge, geo.kernel, n, &mut report)?;
            }
        }
    }
    Ok(report)
}

/// Runs the full partition proof over every enumerated configuration.
pub fn verify() -> Result<PartitionReport, PartitionFault> {
    verify_inner(false)
}

/// Seeded-fault entry: replans every geometry with chunk 0's interval
/// grown by one row — the off-by-one double-covered row that the
/// dynamic `dup-row` fault models as a duplicated row-0 read. `Some` carries the fault the prover found; `None` means the
/// seeded overlap escaped — a broken prover.
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
    fn truncated_zip_is_typed() {
        // A chase-count formula fed rows that don't divide produces the
        // same count as par_chunks_mut — force a disagreement by hand to
        // exercise the fault constructor and display.
        let f = PartitionFault::ZipTruncation {
            kernel: "jump_rows",
            n: 8,
            chunks: 3,
            slots: 2,
        };
        let s = f.to_string();
        assert!(s.contains("jump_rows"), "{s}");
        assert!(s.contains("dropped"), "{s}");
    }

    #[test]
    fn histogram_alias_detects_collision() {
        // An (artificial) n = 0 plane aside, the prover must reject a
        // non-increasing target sequence; simulate by checking FinalMin
        // on n = 1 where d = 1 maps to target 2 = reads_len and must be
        // filtered by the kernel-guard admissibility, not merged.
        let mut report = PartitionReport::default();
        check_histogram(HistMerge::FinalMin, "final_min_rows", 1, &mut report)
            .expect("guarded n = 1 must verify");
        // Only d = 0 is admissible there (target 1 < 2).
        assert_eq!(report.hist_targets, 1);
    }

    #[test]
    fn fault_displays_name_site_and_numbers() {
        let f = PartitionFault::Overlap {
            kernel: "filter_neighbor_rows",
            n: 8,
            workers: 4,
            chunks: (0, 1),
            a: (0, 24),
            b: (16, 32),
        };
        let s = f.to_string();
        assert!(s.contains("filter_neighbor_rows"), "{s}");
        assert!(s.contains("n=8"), "{s}");
        assert!(s.contains("overlap"), "{s}");
        let g = PartitionFault::CompanionSkew {
            kernel: "resolve_rows",
            plane: "dn",
            n: 8,
            chunk: 1,
            square_rows: (2, 4),
            companion_rows: (2, 5),
        };
        assert!(g.to_string().contains("dn rows [2, 5)"), "{}", g);
    }
}
