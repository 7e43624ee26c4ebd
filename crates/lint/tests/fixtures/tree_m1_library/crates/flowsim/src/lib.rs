// M1 positive fixture: a library crate reading the environment. The name
// is registered, which does not help — only binaries read it.
pub fn smoke() -> bool {
    std::env::var("NETPACK_SMOKE").is_ok()
}
