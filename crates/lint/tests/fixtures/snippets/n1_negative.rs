// N1 negative: assignment from a call, integer accumulation, and float
// folds outside any parallel region.
pub fn exact(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    parallel_sweep(xs, |x| {
        acc = combine(acc, *x);
        let mut count = 0usize;
        count += 1;
        count
    });
    // Outside the parallel region: sequential float folds are fine.
    let mut total = 0.0;
    for x in xs {
        total += x;
    }
    acc + total
}
