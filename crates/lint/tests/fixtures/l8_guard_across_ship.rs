// L8 fixture (bad): the KDC's primary lock held while the master builds
// and ships a transfer — every kadm write waits out a network round trip.
// Expected: exactly one finding, L8 / primary_across_ship.
pub fn propagate(kdc: &Kdc, kprop: &mut KpropMaster, router: &mut Router) {
    let db = kdc.primary.lock();
    kprop.ship(router, &db, 0, false);
}
