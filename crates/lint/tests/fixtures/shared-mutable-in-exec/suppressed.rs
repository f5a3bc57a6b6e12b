// Fixture: the audited claim site carries the pragma, mirroring the
// real sanctioned cursor in crates/exp/src/steal.rs.
fn drain(order: &[usize]) {
    // lint: allow(shared-mutable-in-exec) — the one claim cursor every
    // worker takes positions from; commit stays task-ID-ordered.
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    while order.get(cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed)).is_some() {}
}
