//! Golden fixture: contracts honored — `&self` receivers on the read
//! trait, and a `VersionStore` impl backed by a send/sync static
//! assertion. Must produce zero diagnostics.

pub struct Reader;

impl StoreReader for Reader {
    fn latest(&self) -> u32 {
        0
    }

    fn document(&self, version: u32) -> Option<String> {
        let _ = version;
        None
    }
}

pub struct Store;

impl VersionStore for Store {}

const _: () = {
    fn assert_send_sync<T: Send + Sync>() {}
    fn check() {
        assert_send_sync::<Store>();
    }
};
