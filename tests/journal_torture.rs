//! Journal torture: a journaled sweep interrupted at arbitrary points —
//! including truncation mid-record, the on-disk image of a crash between
//! `write` and `fsync` — must resume to exactly the uninterrupted run's
//! verdict map, re-solving only what was never decided.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use verdict_journal::fault;
use verdict_mc::params::{synthesize, Property, SynthesisEngine};
use verdict_mc::{CheckOptions, CheckResult, Durability};
use verdict_prng::Prng;
use verdict_ts::{Expr, System, VarId};

/// 16-assignment sweep with a mix of safe and unsafe verdicts (traces
/// must survive the journal round-trip too).
fn sweep_model() -> (System, Vec<VarId>) {
    let mut sys = System::new("torture");
    let n = sys.int_var("n", 0, 40);
    let a = sys.int_param("a", 1, 4);
    let b = sys.int_param("b", 1, 4);
    sys.add_init(Expr::var(n).eq(Expr::int(0)));
    sys.add_trans(Expr::next(n).eq(Expr::ite(
        Expr::var(n).le(Expr::int(30)),
        Expr::var(n).add(Expr::var(a)).add(Expr::var(b)),
        Expr::var(n),
    )));
    (sys, vec![a, b])
}

fn sweep_property(sys: &System) -> Property {
    let n = sys.var_by_name("n").expect("n exists");
    Property::Invariant(Expr::var(n).ne(Expr::int(12)))
}

fn opts() -> CheckOptions {
    CheckOptions::with_depth(24).with_jobs(1)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "verdict-torture-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// Runs the journaled sweep, resuming from whatever is at `path`.
fn run_journaled(path: &Path, resume: bool) -> verdict_mc::params::SynthesisResult {
    let (sys, params) = sweep_model();
    let prop = sweep_property(&sys);
    let opts = opts();
    let (recorder, state) = verdict_mc::durable::start_sweep_journal(
        path,
        resume,
        &sys,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &opts,
    )
    .expect("journal opens");
    let durability = Durability {
        recorder: Some(&recorder),
        resume: Some(&state),
    };
    synthesize(
        &sys,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &opts,
        false,
        &durability,
    )
    .expect("sweep runs")
}

fn reference() -> verdict_mc::params::SynthesisResult {
    let (sys, params) = sweep_model();
    let prop = sweep_property(&sys);
    synthesize(
        &sys,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &opts(),
        false,
        &Durability::none(),
    )
    .expect("reference")
}

/// Resumed verdict maps must match the uninterrupted run exactly —
/// values, verdicts, and counterexample traces.
fn assert_identical(
    reference: &verdict_mc::params::SynthesisResult,
    got: &verdict_mc::params::SynthesisResult,
    ctx: &str,
) {
    assert_eq!(reference.param_names, got.param_names, "{ctx}");
    assert_eq!(reference.verdicts.len(), got.verdicts.len(), "{ctx}");
    for (r, g) in reference.verdicts.iter().zip(&got.verdicts) {
        assert_eq!(r.values, g.values, "{ctx}: order");
        assert_eq!(r.result, g.result, "{ctx}: verdict at {:?}", g.values);
    }
}

/// Truncate a complete journal at every seeded byte offset — torn header,
/// torn record, clean cut — and resume. Every decided prefix must be
/// reused; the verdict map always converges to the reference.
#[test]
fn truncation_sweep_resumes_to_reference() {
    let _guard = fault::test_lock();
    fault::clear();
    let reference = reference();

    let full = temp_path("full");
    let _ = std::fs::remove_file(&full);
    let complete = run_journaled(&full, false);
    assert_identical(&reference, &complete, "uninterrupted journaled run");
    let bytes = std::fs::read(&full).expect("journal bytes");
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("header line present")
        + 1;

    let mut rng = Prng::seed_from_u64(0x70c7);
    let cut_path = temp_path("cut");
    for trial in 0..24 {
        // Bias cuts into the tail so mid-record tears are common.
        let cut = header_end + (rng.next_u64() as usize) % (bytes.len() - header_end + 1);
        std::fs::write(&cut_path, &bytes[..cut]).expect("truncated copy");
        let resumed = run_journaled(&cut_path, true);
        assert_identical(
            &reference,
            &resumed,
            &format!("trial {trial}, cut at {cut}"),
        );
    }

    // A cut inside the header is unrecoverable by design: resuming must
    // fail loudly rather than silently start a mismatched journal.
    std::fs::write(&cut_path, &bytes[..header_end / 2]).expect("torn header");
    let (sys, params) = sweep_model();
    let prop = sweep_property(&sys);
    let err = verdict_mc::durable::start_sweep_journal(
        &cut_path,
        true,
        &sys,
        &params,
        &prop,
        SynthesisEngine::KInduction,
        &opts(),
    );
    assert!(err.is_err(), "torn header must not resume");

    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&cut_path);
}

/// A corrupt byte in the middle of the journal (not just the tail) must
/// truncate from the first bad record and still resume correctly.
#[test]
fn mid_file_corruption_truncates_and_resumes() {
    let _guard = fault::test_lock();
    fault::clear();
    let reference = reference();
    let full = temp_path("corrupt-src");
    let _ = std::fs::remove_file(&full);
    run_journaled(&full, false);
    let bytes = std::fs::read(&full).expect("journal bytes");
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;

    let mut rng = Prng::seed_from_u64(0xbadc0de);
    let path = temp_path("corrupt");
    for trial in 0..12 {
        let mut copy = bytes.clone();
        let at = header_end + (rng.next_u64() as usize) % (copy.len() - header_end);
        copy[at] ^= 0x20;
        std::fs::write(&path, &copy).expect("corrupt copy");
        let resumed = run_journaled(&path, true);
        assert_identical(
            &reference,
            &resumed,
            &format!("trial {trial}, flip at {at}"),
        );
    }
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&path);
}

/// The cooperative-interrupt path: a stop flag raised mid-sweep leaves
/// undecided assignments as unjournaled `Cancelled`; resuming finishes
/// exactly the undecided remainder.
#[test]
fn stop_flag_interrupt_then_resume() {
    let _guard = fault::test_lock();
    fault::clear();
    let reference = reference();
    let path = temp_path("stop");

    for delay_us in [0u64, 200, 800, 3000] {
        let _ = std::fs::remove_file(&path);
        let (sys, params) = sweep_model();
        let prop = sweep_property(&sys);
        let stop = Arc::new(AtomicBool::new(false));
        let interrupted_opts = opts().with_stop(stop.clone());
        let killer = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                stop.store(true, Ordering::Relaxed);
            })
        };
        let (recorder, state) = verdict_mc::durable::start_sweep_journal(
            &path,
            false,
            &sys,
            &params,
            &prop,
            SynthesisEngine::KInduction,
            &interrupted_opts,
        )
        .expect("journal opens");
        let durability = Durability {
            recorder: Some(&recorder),
            resume: Some(&state),
        };
        let partial = synthesize(
            &sys,
            &params,
            &prop,
            SynthesisEngine::KInduction,
            &interrupted_opts,
            false,
            &durability,
        )
        .expect("interrupted sweep returns");
        killer.join().expect("killer thread");
        drop(recorder);
        // Whatever was decided before the flag went up was journaled;
        // everything else is Cancelled and unjournaled.
        for v in &partial.verdicts {
            if let CheckResult::Unknown(r) = &v.result {
                assert_eq!(
                    *r,
                    verdict_mc::UnknownReason::Cancelled,
                    "interrupt produces only Cancelled unknowns"
                );
            }
        }
        let resumed = run_journaled(&path, true);
        assert_identical(&reference, &resumed, &format!("delay {delay_us}us"));
    }
    let _ = std::fs::remove_file(&path);
}
