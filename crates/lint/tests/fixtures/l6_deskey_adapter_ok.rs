// L6 fixture (good twin): the public routine takes the schedule; a bare key
// reaches a private helper, and a public keyed checksum that builds no
// schedule. Expected: no findings.
pub fn seal_note_with(data: &[u8], sched: &Scheduled) -> Vec<u8> {
    sched.seal(data)
}

fn seal_note_for_test(data: &[u8], key: &DesKey) -> Vec<u8> {
    seal_note_with(data, &Scheduled::new(key))
}

pub fn note_cksum(data: &[u8], key: &DesKey) -> u32 {
    quad_cksum(key.as_bytes(), data)
}
