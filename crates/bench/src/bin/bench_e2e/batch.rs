//! The `lib-batch-128` workload: `BatchRunner::run` in a closed loop, in a
//! fresh child process so that its peak RSS is the workload's own.

use crate::workloads::{input_files, Workload};
use crate::{elapsed_ms, end_to_end, replay, sample, Ctx, Metric, Tally};
use gca_engine::Word;
use gca_graphs::connectivity::union_find_components_dense;
use gca_graphs::{io, AdjacencyMatrix};
use gca_hirschberg::complexity::total_generations;
use gca_hirschberg::{BatchRunner, HirschbergGca};
use serde_json::{json, Value};
use std::path::Path;
use std::time::{Duration, Instant};

/// Untimed batches before timing starts.
const WARMUP_BATCHES: usize = 5;

/// Workers of the timed loop. With two on a two-CPU host, every stretch in
/// which anything else takes a CPU slows the batch by up to 1.7×, and the
/// median of a run jumped between ~95 and ~170 ms (ten-run spread 45%);
/// one worker held it within 3%. The traced `batch.parallel_efficiency`
/// still measures the gain from more workers.
const BATCH_WORKERS: usize = 1;

pub fn same_labels(got: &[Word], want: &[usize]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(&g, &w)| usize::try_from(g).is_ok_and(|g| g == w))
}

pub fn union_find(graphs: &[AdjacencyMatrix]) -> Vec<Vec<usize>> {
    graphs
        .iter()
        .map(|g| union_find_components_dense(g).into_vec())
        .collect()
}

/// One timed `run` call, then its labels checked against union-find.
pub fn batch_once(
    runner: &BatchRunner,
    graphs: &[AdjacencyMatrix],
    expected: &[Vec<usize>],
) -> Result<f64, String> {
    let start = Instant::now();
    let report = runner.run(graphs);
    let ms = elapsed_ms(start);
    let report = report.map_err(|e| format!("BatchRunner::run: {e}"))?;
    if report.labels.len() != expected.len() {
        return Err(format!(
            "{} labelings for {} graphs",
            report.labels.len(),
            expected.len()
        ));
    }
    match report
        .labels
        .iter()
        .zip(expected)
        .position(|(g, w)| !same_labels(g, w))
    {
        Some(i) => Err(format!("graph {i}: labels differ from union-find")),
        None => Ok(ms),
    }
}

/// The child side: parse the inputs, warm up, run the timed loop with
/// set-up probes between batches, and report the batch latencies, the
/// set-up times and this process's peak RSS as one JSON line. With a zero
/// budget only the warm-up runs: that is the peak-RSS probe.
pub fn child(w: &Workload, dir: &Path, seconds: Duration) -> Result<String, String> {
    let files = input_files(dir)?;
    let graphs = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            io::from_edge_list(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let expected = union_find(&graphs);
    let runner = BatchRunner::new().workers(BATCH_WORKERS);
    let mut tally = Tally::default();
    sample(
        WARMUP_BATCHES,
        WARMUP_BATCHES,
        Duration::ZERO,
        &mut tally,
        |_| batch_once(&runner, &graphs, &expected),
    );
    let (batch_ms, setup_s) = if seconds.is_zero() {
        (Vec::new(), Vec::new())
    } else {
        let mut setup = replay::SetupProbe::new(w, &files);
        let batch_ms = sample(w.min_ops, usize::MAX, seconds, &mut tally, |_| {
            let ms = batch_once(&runner, &graphs, &expected);
            setup.catch_up();
            ms
        });
        let (setup_s, setup_tally) = setup.finish();
        tally += setup_tally;
        (batch_ms, setup_s)
    };
    let hwm_kb =
        crate::cli::proc_status_kb("self", "VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    Ok(json!({
        "batch_ms": batch_ms,
        "setup_s": setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "vmhwm_kb": hwm_kb,
    })
    .to_string())
}

/// One `lib-batch-128` run with tracing off.
pub fn run(w: &Workload, ctx: &Ctx, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let graphs = w.graphs(ctx.seed);
    ctx.dir.write(&graphs)?;
    let config = w.config(ctx.workers);

    // The batch path runs without accounting, so generations and the worst
    // δ come from an untimed counting run of each input on the same path.
    let mut generations = Vec::new();
    let mut congestion = Vec::new();
    for (g, want) in graphs.iter().zip(union_find(&graphs)) {
        let run = HirschbergGca::new()
            .exec(config.exec)
            .run(g)
            .map_err(|e| e.to_string());
        let checked = run.and_then(|r| {
            if r.labels.as_slice() != want.as_slice() {
                Err("counting run: labels differ from union-find".to_string())
            } else if r.generations != total_generations(g.n()) {
                Err(format!("counting run: {} generations", r.generations))
            } else {
                Ok(r)
            }
        });
        if let Some(r) = tally.record(checked) {
            generations.push(r.generations as f64);
            congestion.push(f64::from(r.max_congestion()));
        }
    }

    // Peak RSS from separate, untimed children, then the timed loop in a
    // fresh child of its own.
    let mut rss_mb = Vec::new();
    for _ in 0..RSS_CHILDREN {
        rss_mb.push(batch_child(w, ctx, Duration::ZERO, tally)?.rss_mb);
    }
    let timed = batch_child(w, ctx, ctx.seconds, tally)?;
    Ok(end_to_end(
        &timed.batch_ms,
        graphs.len() as f64,
        timed.setup_s,
        rss_mb,
        generations,
        congestion,
    ))
}

/// Peak-RSS probes per run; their median is reported.
const RSS_CHILDREN: usize = 3;

/// What one [`child`] process reported.
struct ChildReport {
    batch_ms: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mb: f64,
}

/// Runs [`child`] in a fresh process and adds its operations to `tally`.
fn batch_child(
    w: &Workload,
    ctx: &Ctx,
    seconds: Duration,
    tally: &mut Tally,
) -> Result<ChildReport, String> {
    let secs = seconds.as_secs().to_string();
    let v = crate::run_child(&[
        "--child".as_ref(),
        "batch".as_ref(),
        "--workload".as_ref(),
        w.name.as_ref(),
        "--seconds".as_ref(),
        secs.as_ref(),
        "--dir".as_ref(),
        ctx.dir.path().as_os_str(),
    ])?;
    let count = |key: &str| {
        v[key]
            .as_u64()
            .ok_or(format!("batch child report lacks '{key}'"))
    };
    tally.attempted += count("attempted")?;
    tally.failed += count("failed")?;
    let list = |key: &str| {
        v[key]
            .as_array()
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .ok_or(format!("batch child report lacks '{key}'"))
    };
    Ok(ChildReport {
        batch_ms: list("batch_ms")?,
        setup_s: list("setup_s")?,
        rss_mb: count("vmhwm_kb")? as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gca_graphs::generators;

    #[test]
    fn batch_loop_smoke_n16() {
        let graphs: Vec<_> = (0..8).map(|s| generators::gnp(16, 0.1, s)).collect();
        let expected = union_find(&graphs);
        let runner = BatchRunner::new().workers(2);
        let mut tally = Tally::default();
        let ms = sample(3, 3, Duration::ZERO, &mut tally, |_| {
            batch_once(&runner, &graphs, &expected)
        });
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|&t| t > 0.0));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 0
            }
        );

        let mut wrong = expected.clone();
        wrong[3][0] = 15;
        assert!(batch_once(&runner, &graphs, &wrong).is_err());
    }
}
