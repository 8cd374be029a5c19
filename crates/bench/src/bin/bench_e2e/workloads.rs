//! The four workloads: which path runs, on which inputs. Why each one is
//! in the benchmark is recorded in `BENCHMARK.json` and the README.

use crate::replay::Config;
use gca_engine::Instrumentation;
use gca_graphs::{generators, io, AdjacencyMatrix};
use gca_hirschberg::{ExecPath, FusedParallel};
use std::path::{Path, PathBuf};

/// How a workload's operations are issued. Both are closed loops with one
/// client: the next operation starts when the previous one has returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// One `gca-cc` process per operation.
    Cli,
    /// One `BatchRunner::run` call per operation, in a child process.
    Lib,
}

/// The random graph family the inputs are drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `gnp(n, permille / 1000)`.
    Gnp { permille: u32 },
    /// `random_forest(n, trees)`: high diameter, so labels keep moving in
    /// every iteration.
    Forest { trees: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub via: Via,
    pub n: usize,
    pub family: Family,
    /// Distinct input graphs; operations cycle over them.
    pub inputs: usize,
    /// Runs `--exec fused-par` with the bench's worker count instead of
    /// `--exec fused`.
    pub parallel: bool,
    /// Operations timed even when the time budget runs out first: enough
    /// for the printed p99 to have ten samples beyond it where the
    /// workload is fast enough for that.
    pub min_ops: usize,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "cli-dense-1024",
        via: Via::Cli,
        n: 1024,
        family: Family::Gnp { permille: 300 },
        inputs: 1,
        parallel: false,
        min_ops: 5,
    },
    Workload {
        name: "cli-forest-1024-par",
        via: Via::Cli,
        n: 1024,
        family: Family::Forest { trees: 64 },
        inputs: 1,
        parallel: true,
        min_ops: 5,
    },
    Workload {
        name: "cli-small-64",
        via: Via::Cli,
        n: 64,
        family: Family::Gnp { permille: 40 },
        inputs: 100,
        parallel: false,
        min_ops: 1000,
    },
    Workload {
        name: "lib-batch-128",
        via: Via::Lib,
        n: 128,
        family: Family::Gnp { permille: 10 },
        inputs: 128,
        parallel: false,
        min_ops: 10,
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    ALL.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{name}' (expected one of {})",
            names.join(", ")
        )
    })
}

/// Workers for `--exec fused-par` and the traced parallel probes: two, or
/// fewer on a smaller machine.
pub fn bench_workers() -> usize {
    gca_bench::workers().min(2)
}

impl Workload {
    /// Input `i` of the run seeded with `seed`: the same seed gives the
    /// same graphs.
    pub fn graph(&self, seed: u64, i: usize) -> AdjacencyMatrix {
        let seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        match self.family {
            Family::Gnp { permille } => generators::gnp(self.n, f64::from(permille) / 1000.0, seed),
            Family::Forest { trees } => generators::random_forest(self.n, trees, seed),
        }
    }

    pub fn graphs(&self, seed: u64) -> Vec<AdjacencyMatrix> {
        (0..self.inputs).map(|i| self.graph(seed, i)).collect()
    }

    /// The exec path and instrumentation the workload's operations run
    /// under: `gca-cc` always counts (Table 1 accounting), `BatchRunner`
    /// defaults to no accounting.
    pub fn config(&self, workers: usize) -> Config {
        Config {
            exec: if self.parallel {
                ExecPath::FusedParallel(FusedParallel::with_workers(workers))
            } else {
                ExecPath::Fused
            },
            instrumentation: match self.via {
                Via::Cli => Instrumentation::Counts,
                Via::Lib => Instrumentation::Off,
            },
        }
    }

    /// `gca-cc` arguments of one operation on `file`.
    pub fn cli_args(&self, file: &Path, workers: usize) -> Vec<String> {
        let mut args = vec![file.display().to_string(), "--exec".to_string()];
        if self.parallel {
            args.extend([
                "fused-par".to_string(),
                "--workers".to_string(),
                workers.to_string(),
            ]);
        } else {
            args.push("fused".to_string());
        }
        args.extend(["--verify", "--json", "--labels"].map(String::from));
        args
    }
}

/// A scratch directory for one workload's input files, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `bench_e2e-<pid>-<tag>` under `parent`.
    pub fn new(parent: &Path, tag: &str) -> Result<Self, String> {
        let path = parent.join(format!("bench_e2e-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes each graph as an edge-list file; returns the paths in order.
    pub fn write(&self, graphs: &[AdjacencyMatrix]) -> Result<Vec<PathBuf>, String> {
        graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let path = self.path.join(format!("g{i:04}.txt"));
                std::fs::write(&path, io::to_edge_list(g))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                Ok(path)
            })
            .collect()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The input files a [`WorkDir::write`] left in `dir`, in order.
pub fn input_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    Ok(files)
}
