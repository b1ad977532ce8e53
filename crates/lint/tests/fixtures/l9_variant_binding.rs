// L9 fixture (bad): a key bound out of an enum pattern is still a binding
// and still tainted when it reaches a format sink.
// Expected: exactly one finding, L9 / key.
pub fn install_and_log(db: &Db, name: &str) {
    if let Some(Ok(key)) = db.get_with_key(name) {
        println!("installed {:?}", key);
    }
}
