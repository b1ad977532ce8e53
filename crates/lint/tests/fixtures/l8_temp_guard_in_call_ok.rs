// L8 fixture (good twin): snapshot under the lock, seal outside it.
// Expected: no findings.
pub fn push_db(dep: &Deployment) -> Vec<u8> {
    let text = dep.master.lock().dump_text();
    build_full_seq(&dep.master_sched, 0, text.as_bytes())
}
