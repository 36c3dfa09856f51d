//! The per-layer metrics: their names and units, and how each is read
//! off the spans, tallies and probes of one traced run. A workload that
//! never runs a layer reports 0 for it: that layer took none of its time.

use crate::estimator::{median_u64, quantile};
use crate::ladder::Ladder;
use crate::probes::{GfRates, ScanRates};
use crate::recovery::Recovery;
use crate::trace::{Span, NO_PARENT};
use crate::workload::WindowStats;
use crate::Metric;
use apec_maint::CacheSnapshot;
use std::collections::HashMap;

const STORE_OPS: [&str; 3] = ["store.read_clean", "store.read_degraded", "store.put"];

/// What the traced run gathered besides the spans.
pub struct Gathered<'a> {
    pub ladder: &'a Ladder<'a>,
    /// Untraced windows run just before the traced ones.
    pub reference: &'a [WindowStats],
    /// Traced windows (their client latencies include no ladder time).
    pub traced: &'a [WindowStats],
    /// Daemon cache counters before and after the reference windows.
    pub cache: (CacheSnapshot, CacheSnapshot),
    /// Mean handler time of the primary op over the reference windows.
    pub handler_mean_us: f64,
    pub gf: GfRates,
    pub plan_compile_us: f64,
    pub scan: ScanRates,
    pub frame_floor_us: f64,
    pub recovery: &'a Recovery,
    pub unflagged_lossy: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Quantile at which span durations are read. A run has 80 to 1000
/// spans of a kind, not hundreds of windows, so the quiet end is taken
/// a little wider than for the end-to-end metrics.
const SPAN_QUIET: f64 = 0.10;

pub fn derive(g: &Gathered<'_>) -> Vec<Metric> {
    let spans = g.ladder.tracer.spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    // Quiet-state duration of the spans called `name`, in µs; 0 when
    // the workload never ran that layer.
    let quiet_us = |ns: Vec<f64>| if ns.is_empty() { 0.0 } else { quantile(&ns, SPAN_QUIET) / 1e3 };
    let us = |name: &'static str| quiet_us(named(name).map(|s| s.ns() as f64).collect());

    // Self time = span - children (`Tracer::self_ns`). The ladder's
    // children are re-executions that run after their parent, so a
    // disturbance can hit one and miss the other; a layer's self time
    // is therefore the difference of the two *quiet-state* durations.
    let self_ns = g.ladder.tracer.self_ns();
    let quiet_split = |of: &[&Span]| -> (f64, f64) {
        let own = quiet_us(of.iter().map(|s| s.ns() as f64).collect());
        let children = quiet_us(of.iter().map(|s| (s.ns() - self_ns[&s.id]) as f64).collect());
        (own, children.min(own))
    };
    let store_ops: Vec<&Span> = STORE_OPS.iter().flat_map(|n| named(n)).collect();
    let (store_own, store_children) = quiet_split(&store_ops);
    let integrity: HashMap<u32, u64> = spans
        .iter()
        .filter(|s| matches!(s.name, "store.crc" | "store.merkle"))
        .fold(HashMap::new(), |mut m, s| {
            *m.entry(s.parent).or_default() += s.ns();
            m
        });
    let store_integrity = quiet_us(store_ops.iter().map(|s| integrity.get(&s.id).copied().unwrap_or(0) as f64).collect());
    let roots: Vec<&Span> = named("serve.request").collect();
    let (serve_own, serve_children) = quiet_split(&roots);
    let mut children_alloc: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        *children_alloc.entry(s.parent).or_default() += s.alloc_bytes;
    }
    let serve_alloc: u64 = roots
        .iter()
        .map(|r| r.alloc_bytes.saturating_sub(children_alloc.get(&r.id).copied().unwrap_or(0)))
        .sum();

    let primary = |ws: &[WindowStats]| -> Vec<f64> {
        ws.iter().flat_map(|w| &w.primary_ns).map(|&ns| ns as f64 / 1e3).collect()
    };
    let client = primary(g.reference);
    let client_mean = client.iter().sum::<f64>() / client.len() as f64;
    let ref_ops: usize = g.reference.iter().map(|w| w.ops).sum();
    let (op_ns, think_ns) = g
        .reference
        .iter()
        .fold((0u64, 0u64), |(o, t), w| (o + w.op_ns, t + w.think_ns));
    let (c0, c1) = g.cache;
    let lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
    let p50_or_zero = |ns: &[u64]| if ns.is_empty() { 0.0 } else { median_u64(ns) / 1e3 };
    let quiet_client = |ws: &[WindowStats]| quantile(&primary(ws), SPAN_QUIET);
    let reads = &g.ladder.reads;
    let puts = &g.ladder.puts;
    let rec = g.recovery;

    vec![
        ("gf.mul_slice_xor_mib_s", "MiB/s", g.gf.mul_slice_xor_mib_s),
        ("gf.xor_slice_mib_s", "MiB/s", g.gf.xor_slice_mib_s),
        ("gf.apply_into_mib_s", "MiB/s", g.gf.apply_into_mib_s),
        ("gf.kernel_us_per_op", "us", us("gf.kernel")),
        ("ec.encode_us_per_op", "us", us("ec.encode")),
        ("ec.decode_local_us_per_op", "us", us("ec.decode_local")),
        ("ec.decode_global_us_per_op", "us", us("ec.decode_global")),
        ("ec.plan_compile_us", "us", g.plan_compile_us),
        ("core.pack_us_per_op", "us", us("core.pack")),
        ("core.unpack_us_per_op", "us", us("core.unpack")),
        ("core.reconstruct_tiered_us_per_op", "us", us("core.reconstruct_tiered")),
        ("store.read_clean_us_per_op", "us", us("store.read_clean")),
        ("store.read_degraded_us_per_op", "us", us("store.read_degraded")),
        ("store.put_us_per_op", "us", us("store.put")),
        ("store.repair_object_us_per_op", "us", us("store.repair_object")),
        ("store.crc_us_per_op", "us", us("store.crc")),
        ("store.merkle_us_per_op", "us", us("store.merkle")),
        ("store.manifest_us_per_op", "us", us("store.manifest")),
        ("store.shard_io_us_per_op", "us", us("store.shard_io")),
        ("store.shard_write_us_per_op", "us", us("store.shard_write")),
        ("store.self_us_per_op", "us", store_own - store_children),
        ("store.integrity_share", "ratio", ratio(store_integrity, store_own)),
        ("store.child_coverage", "ratio", ratio(store_children, store_own)),
        ("store.read_bytes_per_user_byte", "B/B", ratio(reads.io.rchar as f64, reads.user_bytes as f64)),
        ("store.write_bytes_per_user_byte", "B/B", ratio(puts.io.wchar as f64, puts.user_bytes as f64)),
        ("store.syscr_per_get", "count", ratio(reads.io.syscr as f64, reads.ops as f64)),
        ("store.syscw_per_put", "count", ratio(puts.io.syscw as f64, puts.ops as f64)),
        ("store.repair_read_bytes_per_rebuilt_byte", "B/B", rec.repair_read_bytes_per_rebuilt_byte),
        (
            "store.alloc_bytes_per_user_byte",
            "B/B",
            ratio((reads.alloc_bytes + puts.alloc_bytes) as f64, (reads.user_bytes + puts.user_bytes) as f64),
        ),
        ("store.scan_mib_s", "MiB/s", g.scan.scan_mib_s),
        ("store.unflagged_lossy_reads", "count", g.unflagged_lossy as f64),
        ("maint.scrub_pass_mib_s", "MiB/s", g.scan.scrub_pass_mib_s),
        ("maint.read_stall_ms_during_repair", "ms", rec.read_stall_ms),
        ("maint.cache_hit_us_per_op", "us", us("maint.cache_hit")),
        ("maint.cache_insert_us_per_op", "us", us("maint.cache_insert")),
        ("maint.cache_hit_rate", "ratio", ratio((c1.hits - c0.hits) as f64, lookups as f64)),
        ("maint.cache_evictions_per_op", "count", ratio((c1.evictions - c0.evictions) as f64, ref_ops as f64)),
        ("serve.self_us_per_op", "us", serve_own - serve_children),
        ("serve.frame_floor_us", "us", g.frame_floor_us),
        ("serve.handler_mean_us", "us", g.handler_mean_us),
        ("serve.transport_us_per_op", "us", client_mean - g.handler_mean_us),
        ("serve.alloc_bytes_per_user_byte", "B/B", ratio(serve_alloc as f64, g.ladder.root_user_bytes as f64)),
        ("client.p95_us", "us", quantile(&client, 0.95)),
        ("client.p99_us", "us", quantile(&client, 0.99)),
        ("client.max_us", "us", quantile(&client, 1.0)),
        ("client.get_hit_p50_us", "us", p50_or_zero(&g.ladder.hit_ns)),
        ("client.get_miss_p50_us", "us", p50_or_zero(&g.ladder.miss_ns)),
        ("recovery.recover_ms_per_clip", "ms", rec.recover_ms),
        ("recovery.lost_byte_share", "ratio", rec.lost_byte_share),
        ("recovery.min_psnr_db", "dB", rec.psnr_min_db),
        ("video.parse_decode_ms_per_clip", "ms", rec.parse_decode_ms),
        ("bench.think_share", "ratio", ratio(think_ns as f64, (think_ns + op_ns) as f64)),
        ("trace.overhead_ratio", "ratio", ratio(quiet_client(g.traced), quiet_client(g.reference))),
    ]
}
