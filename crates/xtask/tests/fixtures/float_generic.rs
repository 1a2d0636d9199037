//! NF-FLOAT negative fixture: a typed `Vec<f64>` binding. The `>` that
//! closes the generic argument list is directly followed by the
//! binding's `=`, which must not read as a `>=` comparison. (The
//! `Vec::new` is a real NF-ALLOC-001 site; only the float rules are
//! under test here.)

pub fn run(parts: &[u64]) -> u64 {
    let v: Vec<f64> = Vec::new();
    v.len() as u64 + parts.len() as u64
}
