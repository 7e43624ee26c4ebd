// M1 negative: analyzed as crates/metrics/src/sweep.rs, the one declared
// library-side read; a library's test code is exempt like everywhere.
pub fn threads() -> Option<usize> {
    std::env::var("NETPACK_THREADS").ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinned() {
        std::env::set_var("NETPACK_THREADS", "1");
    }
}
