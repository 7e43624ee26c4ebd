// N1 positive fixture: float accumulation inside a parallel closure, both
// a `+=` and a float `.sum()`.
pub fn sweep(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    parallel_sweep(xs, |x| {
        acc += x;
        xs.iter().map(|v| *v).sum::<f64>()
    });
    acc
}
