// L6 fixture (bad): a public sealing routine that takes the bare key and
// builds the schedule itself, a twin of the form that takes the schedule.
// Expected: exactly one finding, L6 / seal_note.
pub fn seal_note(data: &[u8], key: &DesKey) -> Vec<u8> {
    seal_note_with(data, &Scheduled::new(key))
}

pub fn seal_note_with(data: &[u8], sched: &Scheduled) -> Vec<u8> {
    sched.seal(data)
}
