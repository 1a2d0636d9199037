//! NF-FLOAT positive twin of `float_generic.rs`: the same typed
//! binding, then a real `f64` `>=` comparison — exactly one
//! NF-FLOAT-002, on the comparison's line.

pub fn run(parts: &[u64]) -> u64 {
    let v: Vec<f64> = Vec::new();
    let ready = v.len() as f64 >= 0.5;
    u64::from(ready) + parts.len() as u64
}
