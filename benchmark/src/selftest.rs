//! `stackbench --self-test`: checks of the benchmark's own machinery
//! that need no populated vault and finish in milliseconds.

use crate::estimator::{median, quiet, Better};
use crate::gen::{Rng, SPECS};
use crate::rig::{vault_root, Vault};
use crate::trace::self_times;
use std::fs;
use std::panic;
use std::process::ExitCode;

fn check(name: &str, ok: bool, failures: &mut u32) {
    println!("{} {name}", if ok { "ok  " } else { "FAIL" });
    if !ok {
        *failures += 1;
    }
}

/// Of 100 windows, 50 and then 90 slowed threefold must not move the
/// quiet estimate by more than the clean windows' own scatter, while
/// the median moves.
fn estimator_ignores_slow_windows() -> bool {
    let mut rng = Rng::new(11);
    let clean: Vec<f64> = (0..100).map(|_| 100.0 + rng.unit()).collect();
    [50, 90].into_iter().all(|slow| {
        let times: Vec<f64> = clean
            .iter()
            .enumerate()
            .map(|(i, &t)| if (i * 7) % 100 < slow { 3.0 * t } else { t })
            .collect();
        let rates: Vec<f64> = times.iter().map(|t| 1e6 / t).collect();
        let time = quiet(&times, Better::Lower);
        let rate = quiet(&rates, Better::Higher);
        (time - 100.5).abs() < 1.0 && (rate - 1e6 / 100.5).abs() < 100.0 && median(&times) > 150.0
    })
}

/// root(100) -> a(30) -> a1(10), root -> b(50): self times 20, 20, 10, 50.
fn self_time_is_duration_minus_children() -> bool {
    let tree = [(1, 0, 100), (2, 1, 30), (3, 2, 10), (4, 1, 50)];
    let own = self_times(tree.into_iter());
    own[&1] == 20 && own[&2] == 20 && own[&3] == 10 && own[&4] == 50
}

fn trace_is_a_function_of_the_seed() -> bool {
    SPECS.iter().all(|spec| {
        spec.trace_digest(1, 4) == spec.trace_digest(1, 4)
            // The cold scan visits segments in order whatever the seed.
            && (spec.name == "cold-read" || spec.trace_digest(1, 4) != spec.trace_digest(2, 4))
    })
}

/// A vault that dies mid-run must come back empty and unlocked: no
/// manifest, no store metadata, no lock (shard files are recycled by
/// design and stay).
fn vault_is_released_when_a_run_dies() -> bool {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut path = None;
    let died = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        let vault = Vault::acquire(&vault_root(), "selftest");
        fs::create_dir_all(vault.path().join("objects")).expect("vault directory creates");
        fs::write(vault.path().join("objects").join("x.json"), b"{}").expect("manifest writes");
        fs::write(vault.path().join("config.json"), b"{}").expect("config writes");
        path = Some(vault.path().to_path_buf());
        panic!("forced mid-run failure");
    }))
    .is_err();
    panic::set_hook(hook);
    let Some(path) = path else { return false };
    let released = fs::read_dir(&path).is_ok_and(|mut entries| entries.next().is_none());
    let _ = fs::remove_dir_all(&path);
    died && released
}

pub fn run() -> ExitCode {
    let mut failures = 0;
    check("quiet estimate ignores 50% and 90% slow windows", estimator_ignores_slow_windows(), &mut failures);
    check("span self time = duration - children", self_time_is_duration_minus_children(), &mut failures);
    check("same seed, same trace digest; other seed, other digest", trace_is_a_function_of_the_seed(), &mut failures);
    check("vault is empty and unlocked after a forced failure", vault_is_released_when_a_run_dies(), &mut failures);
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
