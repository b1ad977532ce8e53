// L8 fixture (good twin): the guard lives only long enough to take the
// O(1) snapshot; the transfer is built and shipped from that. Expected: no
// findings.
pub fn propagate(kdc: &Kdc, kprop: &mut KpropMaster, router: &mut Router) {
    let snap = {
        let db = kdc.primary.lock();
        db.snapshot_mem()
    };
    kprop.ship(router, &snap, 0, false);
}
