// L8 fixture (bad): a temporary guard created inside the argument list of
// a blocking call — the lock is held for the entire transfer production.
// Expected: exactly one finding, L8 / master_across_build_full_seq.
pub fn push_db(dep: &Deployment) -> Vec<u8> {
    build_full_seq(&dep.master_sched, 0, dep.master.lock().dump_text().as_bytes())
}
