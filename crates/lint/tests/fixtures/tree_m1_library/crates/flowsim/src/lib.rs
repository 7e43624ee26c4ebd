// M1 positive fixture: a library crate reading the environment. The name
// is registered, which does not help — only binaries read it.
pub fn quick() -> bool {
    std::env::var("NETPACK_QUICK").is_ok()
}
