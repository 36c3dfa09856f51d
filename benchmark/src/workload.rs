//! The closed loop: one connection, zero think time, every reply
//! checked. Ops are grouped into fixed-count windows; a window's
//! duration is the sum of its ops' latencies, so generating and
//! checking never count as the program's time.

use crate::estimator::{median_u64, quiet, Better};
use crate::gen::{segment_id, Op, Pool, Spec, MASKS};
use crate::rig::Rig;
use crate::sys::{self, ProcIo};
use apec_serve::{Client, ClientError, GetReply};
use approx_code::ApproxCode;
use std::time::Instant;

/// Fewest windows a run measures, however slow the machine.
pub const MIN_WINDOWS: usize = 60;

/// Checks replies against what was put and what the code promises.
pub struct Checker<'a> {
    pub spec: Spec,
    pool: &'a Pool,
    /// Per mask: `can_recover_all`, `can_recover_important`.
    promises: Vec<(bool, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Replies that lost bytes the code could not promise, yet came
    /// back with `approximate = false` (see README, "known defect").
    pub unflagged_lossy: u64,
}

impl<'a> Checker<'a> {
    pub fn new(spec: Spec, pool: &'a Pool, code: &ApproxCode) -> Checker<'a> {
        Checker {
            spec,
            pool,
            promises: MASKS
                .iter()
                .map(|m| (code.can_recover_all(m), code.can_recover_important(m)))
                .collect(),
            attempted: 0,
            failed: 0,
            unflagged_lossy: 0,
        }
    }

    pub fn pool(&self) -> &'a Pool {
        self.pool
    }

    fn fail(&mut self, op: &Op, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {op:?}: {why}");
    }

    /// Judges one reply. A get must return exactly what was put. A
    /// degraded get must do so whenever `can_recover_all(mask)`; beyond
    /// that the important stream must still be exact iff
    /// `can_recover_important(mask)`, and lost bytes must be flagged.
    pub fn judge(&mut self, op: &Op, reply: &Result<Option<GetReply>, ClientError>) {
        self.attempted += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => return self.fail(op, &e.to_string()),
        };
        let (must_all, must_important) = match *op {
            Op::Put { .. } => return,
            Op::Get { .. } => (true, true),
            Op::DegradedGet { mask, .. } => self.promises[mask as usize],
        };
        let Some(got) = reply else {
            return self.fail(op, "no payload in reply");
        };
        let seg = op.seg();
        let (imp_ok, unimp_ok) =
            self.pool
                .check(seg, self.spec.stripes_of(seg), &got.important, &got.unimportant);
        if must_all && !(imp_ok && unimp_ok) {
            return self.fail(op, "reply differs from what was put");
        }
        if must_important && !imp_ok {
            return self.fail(op, "important stream differs although the code recovers it");
        }
        if matches!(op, Op::Get { .. }) && (got.degraded || got.approximate) {
            return self.fail(op, "clean read flagged degraded or approximate");
        }
        if !(imp_ok && unimp_ok) && !got.approximate {
            self.unflagged_lossy += 1;
        }
    }
}

/// One timed request.
pub struct Timed {
    pub op: Op,
    pub start: Instant,
    pub ns: u64,
    /// Allocator bytes requested by any thread during the call.
    pub alloc: u64,
    pub user_bytes: u64,
}

/// Sends `op` and returns the reply with its timing. `payload` is the
/// put body, built beforehand so building it is not timed.
fn call(client: &mut Client, op: Op, payload: Option<&(Vec<u8>, Vec<u8>)>) -> (Result<Option<GetReply>, ClientError>, Timed) {
    let id = segment_id(op.seg());
    let alloc0 = sys::alloc_bytes();
    let start = Instant::now();
    let reply = match op {
        Op::Get { .. } => client.get(&id).map(Some),
        Op::DegradedGet { mask, .. } => client.degraded_get(&id, MASKS[mask as usize]).map(Some),
        Op::Put { .. } => {
            let (imp, unimp) = payload.expect("a put carries a payload");
            client.put(&id, imp, unimp).map(|_| None)
        }
    };
    let ns = start.elapsed().as_nanos() as u64;
    let alloc = sys::alloc_bytes() - alloc0;
    let user_bytes = match (&reply, payload) {
        (Ok(Some(r)), _) => (r.important.len() + r.unimportant.len()) as u64,
        (Ok(None), Some((imp, unimp))) => (imp.len() + unimp.len()) as u64,
        _ => 0,
    };
    (
        reply,
        Timed {
            op,
            start,
            ns,
            alloc,
            user_bytes,
        },
    )
}

/// What one window cost.
pub struct WindowStats {
    pub ops: usize,
    /// Sum of op latencies.
    pub op_ns: u64,
    /// Wall time of the window outside calls (generate, check, hook).
    pub think_ns: u64,
    /// Latencies of the workload's primary op.
    pub primary_ns: Vec<u64>,
    /// Process CPU minus this thread's CPU between calls.
    pub cpu_ns: u64,
    pub alloc_bytes: u64,
    pub io: ProcIo,
    pub user_bytes: u64,
}

/// Runs one window. `hook` runs after each op, outside every timed
/// interval, with the timing and the reply (the traced run hangs its
/// layer ladder there).
pub fn run_window(
    rig: &mut Rig,
    checker: &mut Checker<'_>,
    ops: &[Op],
    hook: &mut dyn FnMut(&Timed, Option<&GetReply>),
) -> WindowStats {
    let spec = checker.spec;
    let mut w = WindowStats {
        ops: ops.len(),
        op_ns: 0,
        think_ns: 0,
        primary_ns: Vec::with_capacity(ops.len()),
        cpu_ns: 0,
        alloc_bytes: 0,
        io: ProcIo::default(),
        user_bytes: 0,
    };
    let wall0 = Instant::now();
    let io0 = ProcIo::read();
    let cpu0 = sys::process_cpu_ns();
    let mut think_cpu = 0u64;
    let mut think_from = sys::thread_cpu_ns();
    for &op in ops {
        let payload = match op {
            Op::Put { seg } => Some(checker.pool().segment(seg, spec.stripes_of(seg))),
            _ => None,
        };
        think_cpu += sys::thread_cpu_ns() - think_from;
        let (reply, timed) = call(&mut rig.client, op, payload.as_ref());
        think_from = sys::thread_cpu_ns();
        w.op_ns += timed.ns;
        w.alloc_bytes += timed.alloc;
        w.user_bytes += timed.user_bytes;
        if spec.is_primary(&op) {
            w.primary_ns.push(timed.ns);
        }
        if matches!(op, Op::Put { .. }) && reply.is_ok() {
            rig.user_bytes_stored += timed.user_bytes;
        }
        checker.judge(&op, &reply);
        hook(&timed, reply.as_ref().ok().and_then(|r| r.as_ref()));
    }
    think_cpu += sys::thread_cpu_ns() - think_from;
    w.cpu_ns = (sys::process_cpu_ns() - cpu0).saturating_sub(think_cpu);
    w.io = ProcIo::read().since(&io0);
    w.think_ns = (wall0.elapsed().as_nanos() as u64).saturating_sub(w.op_ns);
    w
}

/// Runs the workload's warm-up ops as one unmeasured window.
pub fn warm_up(rig: &mut Rig, checker: &mut Checker<'_>, seed: u64, hook: &mut dyn FnMut(&Timed, Option<&GetReply>)) {
    let ops = checker.spec.warm_up(seed);
    run_window(rig, checker, &ops, hook);
}

/// Windows until `seconds` of wall time have passed (never fewer than
/// [`MIN_WINDOWS`], never more than the workload allows). The rig must
/// have been warmed up.
pub fn measure(rig: &mut Rig, checker: &mut Checker<'_>, seed: u64, seconds: f64) -> Vec<WindowStats> {
    let spec = checker.spec;
    let mut windows = Vec::new();
    let started = Instant::now();
    for w in spec.warmup_windows.. {
        let enough = started.elapsed().as_secs_f64() >= seconds && windows.len() >= MIN_WINDOWS;
        if enough || windows.len() >= spec.max_windows {
            break;
        }
        windows.push(run_window(rig, checker, &spec.window(seed, w), &mut |_, _| {}));
    }
    windows
}

/// The end-to-end metrics a window series yields (set-up time, memory
/// and the recovery metrics are added by the caller).
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub cpu_us_per_op: f64,
    pub io_bytes_per_user_byte: f64,
    pub alloc_bytes_per_user_byte: f64,
}

pub fn summarize(windows: &[WindowStats]) -> Summary {
    let per = |f: &dyn Fn(&WindowStats) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    let user: u64 = windows.iter().map(|w| w.user_bytes).sum();
    let io: u64 = windows.iter().map(|w| w.io.bytes()).sum();
    let alloc: u64 = windows.iter().map(|w| w.alloc_bytes).sum();
    Summary {
        ops_per_s: quiet(&per(&|w| w.ops as f64 / (w.op_ns as f64 / 1e9)), Better::Higher),
        p50_us: quiet(&per(&|w| median_u64(&w.primary_ns) / 1e3), Better::Lower),
        cpu_us_per_op: quiet(&per(&|w| w.cpu_ns as f64 / 1e3 / w.ops as f64), Better::Lower),
        // File bytes read and written, plus the payload itself, which
        // crosses the socket once (`/proc/self/io` does not see sockets).
        io_bytes_per_user_byte: (io + user) as f64 / user as f64,
        alloc_bytes_per_user_byte: alloc as f64 / user as f64,
    }
}
