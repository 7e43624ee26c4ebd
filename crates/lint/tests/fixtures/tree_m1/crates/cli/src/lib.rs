// M1 positive fixture: an env read whose name is not in the mode-gate
// registry.
pub fn mode() -> bool {
    std::env::var("NETPACK_UNREGISTERED_MODE").is_ok()
}
