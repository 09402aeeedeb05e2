// Fixture: every hygiene ban in one file — each line must trip the rule
// when treated as engine-scope code outside the Relaxed allowlist.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Instant, SystemTime};

fn nondeterministic_soup(counter: &AtomicUsize) -> u64 {
    let t0 = Instant::now();
    let _epoch = SystemTime::now();
    let handle = std::thread::spawn(|| 7u64);
    let mut rng = rand::thread_rng();
    let budget = std::env::var("ENGINE_KNOB").ok();
    let knob = std::env::var_os("ENGINE_KNOB");
    let claimed = counter.fetch_add(1, Ordering::Relaxed);
    let waived = counter.fetch_add(1, Ordering::Relaxed); // analyze: hygiene-ok(but Relaxed has no waiver)
    t0.elapsed().as_nanos() as u64 + handle.join().unwrap() + claimed as u64 + waived as u64
}
