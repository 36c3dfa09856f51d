//! stackbench: a layered benchmark of the serving stack
//! (`gf → ec/core → store → maint → serve`), driven in-process over
//! loopback. See `benchmark/README.md` for every name printed here.
//!
//! ```text
//! stackbench --workload W --seed N --seconds S --trace 0|1
//! stackbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). The exit code is non-zero if any op failed.

mod estimator;
mod gen;
mod ladder;
mod layers;
mod probes;
mod recovery;
mod rig;
mod selftest;
mod sys;
mod trace;
mod workload;

use estimator::{median, quiet, Better};
use gen::{Pool, Spec};
use rig::Rig;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Checker, MIN_WINDOWS};

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

/// Set-ups per run; `setup_s` is their median. One batch of repair
/// cycles follows each.
const SETUPS: usize = recovery::REPAIR_BATCHES;
/// The vault the workload runs on (the recovery phase has its own).
const MAIN_VAULT: &str = "main";

/// A metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read '{value}'");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(out.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// The payload pool for `seed`, sized to what one stripe of the benchmark's code holds.
fn pool_for(seed: u64) -> Pool {
    let config = rig::store_config();
    let code = config.code().expect("the benchmark's code parameters are valid");
    Pool::new(
        seed,
        approx_code::tiered::important_capacity(&code, config.shard_len),
        approx_code::tiered::unimportant_capacity(&code, config.shard_len),
    )
}

/// One complete set-up: payload pool, vault, population through
/// `Store::put_object`, daemon, connection, warm-up.
fn set_up(root: &Path, spec: Spec, seed: u64) -> (Pool, Rig, u64, u64) {
    let pool = pool_for(seed);
    let mut rig = Rig::start(root, MAIN_VAULT, &pool, spec.base_segments);
    let mut checker = Checker::new(spec, &pool, rig.store.code());
    workload::warm_up(&mut rig, &mut checker, seed, &mut |_, _| {});
    let (attempted, failed) = (checker.attempted, checker.failed);
    (pool, rig, attempted, failed)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_untraced(spec: Spec, args: &Args, root: &Path, process_start: Instant) -> Outcome {
    // The first set-up is timed from process start and its rig is the
    // one measured; memory is read before anything else is built.
    let (pool, mut rig, mut attempted, mut failed) = set_up(root, spec, args.seed);
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];

    let mut checker = Checker::new(spec, &pool, rig.store.code());
    let windows = workload::measure(&mut rig, &mut checker, args.seed, args.seconds);
    let summary = workload::summarize(&windows);
    let rss_peak_mib = sys::rss_peak_mib();
    let stored_bytes = rig::committed_bytes(&rig.store);
    let stored = stored_bytes as f64 / rig.user_bytes_stored as f64;
    if stored_bytes > rig::VAULT_CAP_BYTES {
        eprintln!("FAILED: vault outgrew its cap of {} bytes", rig::VAULT_CAP_BYTES);
        failed += 1;
    }
    attempted += checker.attempted;
    failed += checker.failed;
    let unflagged = checker.unflagged_lossy;
    println!(
        "windows={} ops_per_window={} measured_s={:.3}",
        windows.len(),
        windows[0].ops,
        windows.iter().map(|w| (w.op_ns + w.think_ns) as f64 / 1e9).sum::<f64>()
    );
    drop(rig);

    // Set-up twice more, only to time it (`setup_s` is the median),
    // with a batch of repair cycles after each set-up.
    let mut recovery = recovery::Session::start(root, &pool);
    recovery.repair_batch();
    for _ in 1..SETUPS {
        let t = Instant::now();
        let (_, rig, a, f) = set_up(root, spec, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += a;
        failed += f;
        drop(rig);
        recovery.repair_batch();
    }
    println!("setups_s={setup_s:.3?}");
    let rec = recovery.finish();
    attempted += rec.attempted;
    failed += rec.failed;
    warn_unflagged(unflagged + rec.unflagged_lossy);

    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", "s", median(&setup_s)),
            ("ops_per_s", "1/s", summary.ops_per_s),
            ("p50_us", "us", summary.p50_us),
            ("cpu_us_per_op", "us", summary.cpu_us_per_op),
            ("rss_peak_mib", "MiB", rss_peak_mib),
            ("stored_per_user_byte", "B/B", stored),
            ("io_bytes_per_user_byte", "B/B", summary.io_bytes_per_user_byte),
            ("alloc_bytes_per_user_byte", "B/B", summary.alloc_bytes_per_user_byte),
            ("repair_mib_s", "MiB/s", quiet(&rec.repair_mib_s, Better::Higher)),
            ("approx_psnr_db", "dB", rec.psnr_mean_db),
        ],
    }
}

fn warn_unflagged(count: u64) {
    if count > 0 {
        eprintln!(
            "WARNING: {count} over-tolerance read(s) came back lossy with approximate=false \
             (store.unflagged_lossy_reads; known defect, see benchmark/README.md)"
        );
    }
}

fn run_traced(spec: Spec, args: &Args, root: &Path) -> Outcome {
    let pool = pool_for(args.seed);
    let mut rig = Rig::start(root, MAIN_VAULT, &pool, spec.base_segments);
    let mut checker = Checker::new(spec, &pool, rig.store.code());
    let mut ladder = ladder::Ladder::new(&rig, spec, &pool);

    // The ladder's mirror cache must see every op from the first on.
    workload::warm_up(&mut rig, &mut checker, args.seed, &mut |timed, reply| {
        ladder.observe(timed, reply, false)
    });
    ladder.forget_latencies();
    let mut windows = |rig: &mut Rig, ladder: &mut ladder::Ladder<'_>, from: usize, traced: bool| -> Vec<_> {
        (from..from + spec.trace_windows)
            .map(|w| {
                workload::run_window(rig, &mut checker, &spec.window(args.seed, w), &mut |timed, reply| {
                    ladder.observe(timed, reply, traced)
                })
            })
            .collect()
    };

    let primary_stats = |rig: &Rig| {
        let m = rig.server.metrics();
        let s = match spec.kind {
            gen::Kind::IngestMix => &m.put,
            gen::Kind::DegradedRepair => &m.degraded_get,
            _ => &m.get,
        };
        (s.count(), s.mean_us())
    };
    let cache = |rig: &Rig| rig.server.cache().expect("the daemon runs with a cache").snapshot();
    let (n0, mean0) = primary_stats(&rig);
    let cache0 = cache(&rig);
    let reference = windows(&mut rig, &mut ladder, spec.warmup_windows, false);
    let (n1, mean1) = primary_stats(&rig);
    let cache1 = cache(&rig);
    // `mean_us` is a truncated integer mean, so this is good to a few µs.
    let handler_mean_us = (mean1 * n1).saturating_sub(mean0 * n0) as f64 / (n1 - n0).max(1) as f64;
    let traced = windows(&mut rig, &mut ladder, spec.warmup_windows + spec.trace_windows, true);

    let gf = probes::gf_rates();
    let plan_compile_us = probes::plan_compile_us(rig.store.code());
    let scan = probes::scan_rates(&rig, args.seed);
    let frame_floor_us = probes::frame_floor_us(&mut rig);
    let (mut attempted, mut failed) = (checker.attempted, checker.failed);
    let unflagged = checker.unflagged_lossy;
    drop(rig);

    let first_op = ladder.next_op;
    let mut recovery = recovery::Session::start(root, &pool);
    recovery.repair_cycles(recovery::TRACED_CYCLES, Some((&mut ladder.tracer, first_op)));
    let rec = recovery.finish();
    attempted += rec.attempted;
    failed += rec.failed;
    warn_unflagged(unflagged + rec.unflagged_lossy);

    let metrics = layers::derive(&layers::Gathered {
        ladder: &ladder,
        reference: &reference,
        traced: &traced,
        cache: (cache0, cache1),
        handler_mean_us,
        gf,
        plan_compile_us,
        scan,
        frame_floor_us,
        recovery: &rec,
        unflagged_lossy: unflagged + rec.unflagged_lossy,
    });
    let path = root.join(format!("trace-{}.jsonl", spec.name));
    match ladder.tracer.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans in {}", ladder.tracer.spans().len(), path.display()),
        Err(e) => {
            eprintln!("FAILED: cannot write {}: {e}", path.display());
            failed += 1;
        }
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn print_outcome(out: &Outcome) {
    let width = out.metrics.iter().map(|m| m.0.len()).max().unwrap_or(0);
    for (name, unit, value) in &out.metrics {
        println!("{name:<width$} {value:>16.6} {unit}");
    }
    println!("attempted={} failed={}", out.attempted, out.failed);
    let body: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity; such a run is reported incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let finite = out.metrics.iter().all(|m| m.2.is_finite());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && finite,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        return selftest::run();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = gen::spec_named(&args.workload) else {
        let names: Vec<&str> = gen::SPECS.iter().map(|s| s.name).collect();
        eprintln!("stackbench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let root = rig::vault_root();
    rig::sweep_stale_vaults(&root);
    println!("fingerprint: {}", sys::fingerprint(&root));
    println!(
        "workload={} seed={} seconds={} trace={} trace_digest={:016x}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.trace_digest(args.seed, spec.warmup_windows + MIN_WINDOWS)
    );
    let outcome = if args.trace {
        run_traced(spec, &args, &root)
    } else {
        run_untraced(spec, &args, &root, process_start)
    };
    print_outcome(&outcome);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
