//! Deterministic fault injection: typed, seed-addressed fault plans that
//! corrupt a live run at an exact `(generation, cell, bit)` coordinate.
//!
//! The paper's machine model assumes every cell computes its rule
//! faithfully every generation. The detectors built in earlier layers
//! (the CROW sanitizer, the fused paths' sweep cross-check, the invariant
//! checker) exist to catch violations of that assumption — a
//! [`FaultPlan`] is the controlled way to *create* one, so the detectors
//! and the recovery loop (see [`crate::recovery`]) can be proven closed
//! over a systematic campaign instead of trusted on faith.
//!
//! A plan is pure data: the executing machine (in `gca-hirschberg`) asks
//! [`FaultPlan::peek`] before a generation runs and [`FaultPlan::fire`]
//! after it commits, and applies the corruption itself — the plan only
//! decides *whether* and *what*, never *how*. Both calls are a `None`
//! check when no plan is armed, keeping the hook zero-cost on clean runs.
//!
//! Faults are addressed two ways: explicitly (`bitflip@24.13.5` — flip
//! bit 5 of cell 13 right after generation 24 commits) or by seed
//! (`bitflip:seed=7` — a splitmix64 stream maps the seed to concrete
//! coordinates given the run geometry), so a campaign can sweep sites
//! reproducibly without enumerating them by hand.

use std::fmt;

/// The corruption a [`FaultPlan`] injects, modeling one hardware failure
/// mode of the cellular field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A single data-plane bit flips in a committed cell word (an SEU in
    /// the cell's data register).
    BitFlip {
        /// Bit position within the cell's data word (taken modulo the
        /// word width).
        bit: u32,
    },
    /// A torn word write: the write of a cell's data word is cut halfway,
    /// leaving the low half of the word on its pre-generation value while
    /// the high half carries the new one.
    TornWrite,
    /// A whole generation's writes are lost: the field reverts to its
    /// pre-generation state after the engine believes the generation
    /// committed (a dropped sub-phase of the schedule).
    DroppedGeneration,
}

impl FaultKind {
    /// The stable campaign/CLI token for this fault class.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::BitFlip { .. } => "bitflip",
            FaultKind::TornWrite => "torn",
            FaultKind::DroppedGeneration => "drop",
        }
    }
}

/// How long a planted fault keeps firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persistence {
    /// A soft error: fires exactly once over the machine's lifetime, so a
    /// rollback + re-execution of the same generation runs clean.
    Transient,
    /// A broken functional unit: fires every time the target generation
    /// executes while the machine runs at execution-ladder level
    /// `min_level` or above. Degrading below that level routes around the
    /// broken unit (see `RecoveryPolicy::Degrade` in [`crate::recovery`]).
    Sticky {
        /// Lowest execution-ladder level at which the fault still fires
        /// (0 = generic, 1 = fused, 2 = fused-par).
        min_level: u8,
    },
}

/// A fully resolved, armed fault: concrete kind, coordinates and
/// persistence, plus the fired-state the machine consults at run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    kind: FaultKind,
    generation: u64,
    cell: usize,
    persistence: Persistence,
    fired: bool,
}

impl FaultPlan {
    /// A transient fault of `kind` at `(generation, cell)`.
    pub fn new(kind: FaultKind, generation: u64, cell: usize) -> Self {
        FaultPlan {
            kind,
            generation,
            cell,
            persistence: Persistence::Transient,
            fired: false,
        }
    }

    /// Binds the fault to a broken functional unit: it fires on every
    /// execution of the target generation while the machine runs at
    /// ladder level `min_level` or above.
    #[must_use]
    pub fn sticky(mut self, min_level: u8) -> Self {
        self.persistence = Persistence::Sticky { min_level };
        self
    }

    /// The fault class.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The absolute generation number the fault targets.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The target cell (row-major field index).
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// The persistence mode.
    pub fn persistence(&self) -> Persistence {
        self.persistence
    }

    /// Whether the plan would fire for the generation about to execute as
    /// generation number `generation` at ladder level `level`, without
    /// consuming a transient charge. The machine uses this to capture
    /// pre-state (for torn writes and dropped generations) before the
    /// kernel runs.
    pub fn peek(&self, generation: u64, level: u8) -> Option<FaultKind> {
        if self.generation != generation {
            return None;
        }
        match self.persistence {
            Persistence::Transient if self.fired => None,
            Persistence::Transient => Some(self.kind),
            Persistence::Sticky { min_level } => (level >= min_level).then_some(self.kind),
        }
    }

    /// Like [`FaultPlan::peek`], but consumes the transient charge: a
    /// transient plan never fires again after this returns `Some`.
    pub fn fire(&mut self, generation: u64, level: u8) -> Option<FaultKind> {
        let kind = self.peek(generation, level)?;
        if self.persistence == Persistence::Transient {
            self.fired = true;
        }
        Some(kind)
    }

    /// Whether a transient charge has been spent (always `false` for
    /// sticky plans).
    pub fn spent(&self) -> bool {
        self.fired
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}.{}", self.kind.name(), self.generation, self.cell)?;
        if let FaultKind::BitFlip { bit } = self.kind {
            write!(f, ".{bit}")?;
        }
        if let Persistence::Sticky { min_level } = self.persistence {
            write!(f, ":sticky(level>={min_level})")?;
        }
        Ok(())
    }
}

/// Where an unresolved [`FaultSpec`] gets its coordinates from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAddr {
    /// Explicit `(generation, cell, bit)` coordinates.
    Explicit {
        /// Absolute generation number (0 = init).
        generation: u64,
        /// Row-major field cell index.
        cell: usize,
        /// Bit position (bit-flip faults only).
        bit: u32,
    },
    /// Coordinates derived deterministically from a seed and the run
    /// geometry at resolve time.
    Seed(u64),
}

/// A parsed-but-unresolved fault description, as accepted by
/// `gca-cc --inject` and the campaign driver. [`FaultSpec::resolve`]
/// turns it into an armed [`FaultPlan`] once the run geometry (problem
/// size, total generations, execution level) is known.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault class (bit position of a `BitFlip` is a placeholder
    /// until resolution for seed-addressed specs).
    pub kind: FaultKind,
    /// Coordinate source.
    pub addr: FaultAddr,
    /// Whether to arm the fault sticky at the resolving machine's level.
    pub sticky: bool,
}

/// A spec string that could not be parsed; carries the offending input
/// and what was expected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultParseError {
    /// The rejected spec (or spec fragment).
    pub spec: String,
    /// What the parser expected at that point.
    pub expected: &'static str,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault spec {:?}: expected {}",
            self.spec, self.expected
        )
    }
}

impl std::error::Error for FaultParseError {}

/// An explicit coordinate outside the run a spec is resolved against, so
/// the fault could never fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultRangeError {
    /// Generation `.0` is not in `1..total` (`.1`): init, or past the run.
    Generation(u64, u64),
    /// Cell `.0` is not below the field's `.1` cells.
    Cell(usize, usize),
    /// Bit `.0` is not below the data word's `.1` bits.
    Bit(u32, u32),
}

impl fmt::Display for FaultRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (what, value, range) = match *self {
            FaultRangeError::Generation(g, total) => ("generation", g, format!("1..{total}")),
            FaultRangeError::Cell(c, cells) => ("cell", c as u64, format!("0..{cells}")),
            FaultRangeError::Bit(b, bits) => ("bit", u64::from(b), format!("0..{bits}")),
        };
        write!(f, "fault {what} {value} is outside this run's {range}; the fault could never fire")
    }
}

impl std::error::Error for FaultRangeError {}

impl FaultSpec {
    /// Parses a spec string.
    ///
    /// Grammar: `<kind>[@<gen>[.<cell>[.<bit>]]][:seed=<u64>][:sticky]`
    /// with kind one of `bitflip`, `torn`, `drop`. Without `@` or `seed=`,
    /// the fault lands
    /// on generation 1, cell 0, bit 0.
    pub fn parse(spec: &str) -> Result<Self, FaultParseError> {
        let err = |expected| FaultParseError {
            spec: spec.to_string(),
            expected,
        };
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        let (kind_tok, coords) = match head.split_once('@') {
            Some((k, c)) => (k, Some(c)),
            None => (head, None),
        };
        let mut kind = match kind_tok {
            "bitflip" => FaultKind::BitFlip { bit: 0 },
            "torn" => FaultKind::TornWrite,
            "drop" => FaultKind::DroppedGeneration,
            _ => return Err(err("a fault class: bitflip | torn | drop")),
        };
        let mut addr = None;
        if let Some(coords) = coords {
            let mut dims = coords.split('.');
            let gen: u64 = dims
                .next()
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| err("a generation number after '@'"))?;
            let cell: usize = match dims.next() {
                Some(d) => d.parse().map_err(|_| err("a cell index"))?,
                None => 0,
            };
            let bit: u32 = match dims.next() {
                Some(d) => d.parse().map_err(|_| err("a bit position"))?,
                None => 0,
            };
            if dims.next().is_some() {
                return Err(err("at most gen.cell.bit coordinates"));
            }
            if let FaultKind::BitFlip { bit: b } = &mut kind {
                *b = bit;
            }
            addr = Some(FaultAddr::Explicit {
                generation: gen,
                cell,
                bit,
            });
        }
        let mut sticky = false;
        for part in parts {
            if part == "sticky" {
                sticky = true;
            } else if let Some(seed) = part.strip_prefix("seed=") {
                let seed: u64 = seed.parse().map_err(|_| err("a u64 after 'seed='"))?;
                if addr.is_some() {
                    return Err(err("either '@coords' or ':seed=', not both"));
                }
                addr = Some(FaultAddr::Seed(seed));
            } else {
                return Err(err("':sticky' or ':seed=<u64>'"));
            }
        }
        Ok(FaultSpec {
            kind,
            addr: addr.unwrap_or(FaultAddr::Explicit {
                generation: 1,
                cell: 0,
                bit: 0,
            }),
            sticky,
        })
    }

    /// Resolves the spec into an armed [`FaultPlan`] for a run of
    /// `total_generations` generations over a field of `cells` cells,
    /// executing at ladder `level`. Seed-addressed coordinates are drawn
    /// from a splitmix64 stream: generation in `1..total_generations`
    /// (never the init generation), cell in `0..cells`, bit in the word
    /// width. Sticky specs bind to `level` — the resolving machine's own
    /// rung, so degrading below it clears the fault. Explicit coordinates
    /// outside those ranges are a [`FaultRangeError`].
    pub fn resolve(
        &self,
        cells: usize,
        total_generations: u64,
        level: u8,
    ) -> Result<FaultPlan, FaultRangeError> {
        let mut kind = self.kind;
        let (generation, cell) = match self.addr {
            FaultAddr::Explicit { generation, .. }
                if !(1..total_generations).contains(&generation) =>
            {
                return Err(FaultRangeError::Generation(generation, total_generations))
            }
            FaultAddr::Explicit { cell, .. } if cell >= cells => {
                return Err(FaultRangeError::Cell(cell, cells))
            }
            FaultAddr::Explicit { bit, .. } if bit >= crate::Word::BITS => {
                return Err(FaultRangeError::Bit(bit, crate::Word::BITS))
            }
            FaultAddr::Explicit { generation, cell, .. } => (generation, cell),
            FaultAddr::Seed(seed) => {
                let mut stream = SplitMix64::new(seed);
                let span = total_generations.saturating_sub(1).max(1);
                let generation = 1 + stream.next_u64() % span;
                let cell = (stream.next_u64() % cells.max(1) as u64) as usize;
                if let FaultKind::BitFlip { bit } = &mut kind {
                    // Bit indices address the data plane, whose words are
                    // narrower than the packed adjacency words.
                    *bit = (stream.next_u64() % u64::from(crate::Word::BITS)) as u32;
                }
                (generation, cell)
            }
        };
        let plan = FaultPlan::new(kind, generation, cell);
        Ok(if self.sticky { plan.sticky(level) } else { plan })
    }
}

/// The splitmix64 generator (Steele, Lea, Flood 2014) — the standard
/// seed-expansion stream; tiny, dependency-free, and stable across
/// platforms, which is all seed-addressed fault coordinates need.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_explicit_coordinates() {
        let spec = FaultSpec::parse("bitflip@24.13.5").unwrap();
        assert_eq!(spec.kind, FaultKind::BitFlip { bit: 5 });
        assert_eq!(
            spec.addr,
            FaultAddr::Explicit {
                generation: 24,
                cell: 13,
                bit: 5
            }
        );
        assert!(!spec.sticky);
    }

    #[test]
    fn parse_defaults_and_sticky() {
        let spec = FaultSpec::parse("drop:sticky").unwrap();
        assert_eq!(spec.kind, FaultKind::DroppedGeneration);
        assert!(spec.sticky);
        assert_eq!(
            spec.addr,
            FaultAddr::Explicit {
                generation: 1,
                cell: 0,
                bit: 0
            }
        );
    }

    #[test]
    fn parse_seeded() {
        let spec = FaultSpec::parse("torn:seed=42").unwrap();
        assert_eq!(spec.addr, FaultAddr::Seed(42));
        let plan = spec.resolve(90, 53, 1).unwrap();
        assert!(plan.generation() >= 1 && plan.generation() < 53);
        assert!(plan.cell() < 90);
        // Deterministic: the same seed resolves to the same site.
        assert_eq!(plan, spec.resolve(90, 53, 1).unwrap());
    }

    #[test]
    fn parse_rejections() {
        for bad in [
            "cosmic-ray",
            "bitflip@",
            "bitflip@x",
            "bitflip@1.2.3.4",
            "torn:seed=",
            "torn:wat",
            "bitflip@1:seed=2",
            // Classes whose surfaces (the occupancy plane, partitioned
            // counting broadcasts, kernel histogram merges) no longer exist.
            "stale-occ",
            "dup-row@3",
            "hist-merge:seed=1",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn transient_fires_once() {
        let mut plan = FaultPlan::new(FaultKind::TornWrite, 7, 3);
        assert_eq!(plan.peek(6, 0), None);
        assert_eq!(plan.peek(7, 0), Some(FaultKind::TornWrite));
        assert_eq!(plan.fire(7, 0), Some(FaultKind::TornWrite));
        // Re-execution of the same generation after a rollback runs clean.
        assert_eq!(plan.peek(7, 0), None);
        assert_eq!(plan.fire(7, 0), None);
        assert!(plan.spent());
    }

    #[test]
    fn sticky_fires_until_degraded_below_level() {
        let mut plan = FaultPlan::new(FaultKind::BitFlip { bit: 1 }, 7, 3).sticky(2);
        assert_eq!(plan.fire(7, 3), Some(FaultKind::BitFlip { bit: 1 }));
        assert_eq!(plan.fire(7, 2), Some(FaultKind::BitFlip { bit: 1 }));
        // Still armed: sticky plans never spend their charge.
        assert_eq!(plan.fire(7, 2), Some(FaultKind::BitFlip { bit: 1 }));
        // A machine degraded below the broken unit's level runs clean.
        assert_eq!(plan.fire(7, 1), None);
        assert!(!plan.spent());
    }

    #[test]
    fn display_round_trips_through_parse() {
        let plan = FaultPlan::new(FaultKind::BitFlip { bit: 5 }, 24, 13);
        assert_eq!(plan.to_string(), "bitflip@24.13.5");
        let spec = FaultSpec::parse(&plan.to_string()).unwrap();
        assert_eq!(spec.resolve(100, 100, 0), Ok(plan));
    }

    #[test]
    fn resolve_rejects_explicit_sites_outside_the_run() {
        // path:3 runs 29 generations over a 12-cell field.
        let resolve = |s: &str| FaultSpec::parse(s).unwrap().resolve(12, 29, 0);
        for (spec, err) in [
            ("bitflip@99999999", FaultRangeError::Generation(99_999_999, 29)),
            ("bitflip@29", FaultRangeError::Generation(29, 29)),
            ("bitflip@0", FaultRangeError::Generation(0, 29)),
            ("bitflip@5.99999", FaultRangeError::Cell(99_999, 12)),
            ("torn@5.12", FaultRangeError::Cell(12, 12)),
            ("bitflip@5.3.99", FaultRangeError::Bit(99, 32)),
            ("bitflip@5.3.32", FaultRangeError::Bit(32, 32)),
        ] {
            assert_eq!(resolve(spec), Err(err), "{spec}");
        }
        assert_eq!(resolve("bitflip@28.11.3").unwrap().generation(), 28);
        assert!(resolve("bitflip@5.3.31").is_ok());
        assert!(resolve("drop").is_ok());
        let msg = resolve("bitflip@0").unwrap_err().to_string();
        assert!(msg.contains("generation 0") && msg.contains("1..29"), "{msg}");
    }
}
