// M1 negative: analyzed as a binary crate, where reads of registered
// variables are the sanctioned pattern; prose mentions of the NETPACK_
// prefix in comments never count.
pub fn quick() -> bool {
    std::env::var("NETPACK_QUICK").is_ok()
}
