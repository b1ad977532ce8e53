// L9 fixture (good twin): the pattern taints its binding, not the variant
// names around it, so a later `Some(count)` that reaches a format sink is
// clean. Expected: no findings.
pub fn install_and_count(db: &Db, name: &str) {
    if let Some(Ok(key)) = db.get_with_key(name) {
        db.install(key);
    }
    let count = db.len();
    println!("installed: {:?}", Some(count));
}
