//! Golden fixture: read-path and thread-safety contract violations.
//! This file is analyzer input, not a compile target.

pub struct Reader;

impl StoreReader for Reader {
    fn latest(&mut self) -> u32 { //~ api-contract
        0
    }

    fn spec(&self) -> &'static str {
        "fine: shared receiver"
    }
}

pub struct Store;

impl VersionStore for Store {} //~ api-contract
