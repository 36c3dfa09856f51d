//! Per-layer measurements that are not tied to one op of the trace:
//! kernel rates, plan compilation, scan and scrub passes, the framing
//! floor. Each runs on the traced run's own vault and daemon.

use crate::estimator::median;
use crate::gen::MASKS;
use crate::ladder::Kernel;
use crate::rig::Rig;
use apec_ec::{DecodeSession, ErasureCode};
use apec_maint::Scrubber;
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;
/// Bytes each kernel probe pushes through per try, in 16 KiB blocks.
const KERNEL_BYTES: usize = 64 << 20;
/// Tries per kernel; the best counts, so a disturbed moment (they last
/// longer than one 3 ms try) does not decide.
const KERNEL_TRIES: usize = 40;

fn mib_per_s(bytes: usize, work: impl FnOnce()) -> f64 {
    let t = Instant::now();
    work();
    bytes as f64 / MIB / t.elapsed().as_secs_f64()
}

pub struct GfRates {
    pub mul_slice_xor_mib_s: f64,
    pub xor_slice_mib_s: f64,
    pub apply_into_mib_s: f64,
}

/// The three kernels the codecs sit on, at the block size the store
/// uses (16 KiB).
pub fn gf_rates() -> GfRates {
    let blocks = KERNEL_BYTES / Kernel::BLOCK;
    let src = vec![0xa7u8; Kernel::BLOCK];
    let mut dst = vec![0u8; Kernel::BLOCK];
    let best = |f: &mut dyn FnMut() -> f64| (0..KERNEL_TRIES).map(|_| f()).fold(0.0, f64::max);

    let mul_slice_xor_mib_s = best(&mut || {
        mib_per_s(KERNEL_BYTES, || {
            for _ in 0..blocks {
                apec_gf::mul_slice_xor(0x1d, black_box(&src), &mut dst).expect("equal block lengths");
            }
        })
    });
    let xor_slice_mib_s = best(&mut || {
        mib_per_s(KERNEL_BYTES, || {
            for _ in 0..blocks {
                apec_gf::xor_slice(black_box(&src), &mut dst).expect("equal block lengths");
            }
        })
    });
    // A 3×5 Cauchy matrix: the shape of one local stripe's parities.
    let (rows, cols) = (3, 5);
    let matrix = apec_gf::cauchy(rows, cols).expect("3x5 Cauchy matrix exists");
    let inputs: Vec<Vec<u8>> = (0..cols).map(|i| vec![i as u8 + 1; Kernel::BLOCK]).collect();
    let views: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let mut outputs: Vec<Vec<u8>> = vec![vec![0u8; Kernel::BLOCK]; rows];
    let calls = blocks / (rows * cols);
    let apply_into_mib_s = best(&mut || {
        mib_per_s(calls * rows * cols * Kernel::BLOCK, || {
            for _ in 0..calls {
                let mut out: Vec<&mut [u8]> = outputs.iter_mut().map(Vec::as_mut_slice).collect();
                matrix.apply_into(black_box(&views), &mut out).expect("shapes agree");
            }
        })
    });
    black_box((&dst, &outputs));
    GfRates {
        mul_slice_xor_mib_s,
        xor_slice_mib_s,
        apply_into_mib_s,
    }
}

/// Median time to compile a repair plan from cold, over the masks the
/// degraded reads use.
pub fn plan_compile_us(code: &dyn ErasureCode) -> f64 {
    let data_nodes = code.data_nodes();
    let times: Vec<f64> = MASKS
        .iter()
        .map(|mask| {
            let mut erased = mask.to_vec();
            erased.sort_unstable();
            let wanted: Vec<usize> = erased.iter().copied().filter(|&n| n < data_nodes).collect();
            let mut session = DecodeSession::new();
            let t = Instant::now();
            black_box(session.plan(code, &erased, &wanted).expect("plan compiles"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub struct ScanRates {
    pub scan_mib_s: f64,
    pub scrub_pass_mib_s: f64,
}

/// `Store::scan_object` over every object, then one `Scrubber::full_pass`.
pub fn scan_rates(rig: &Rig, seed: u64) -> ScanRates {
    let ids = rig.store.list_ids().expect("vault lists");
    let t = Instant::now();
    let scanned: u64 = ids
        .iter()
        .map(|id| rig.store.scan_object(id).expect("object scans").bytes_scanned)
        .sum();
    let scan_mib_s = scanned as f64 / MIB / t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tick = Scrubber::new(seed).full_pass(&rig.store).expect("scrub pass runs");
    let scrub_pass_mib_s = tick.bytes_scanned as f64 / MIB / t.elapsed().as_secs_f64();
    ScanRates {
        scan_mib_s,
        scrub_pass_mib_s,
    }
}

/// Median round trip of the smallest request the protocol has
/// (`Client::metrics`): what framing, the socket and a worker wake-up
/// cost before any payload.
pub fn frame_floor_us(rig: &mut Rig) -> f64 {
    let times: Vec<f64> = (0..400)
        .map(|_| {
            let t = Instant::now();
            black_box(rig.client.metrics().expect("metrics round trip"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
