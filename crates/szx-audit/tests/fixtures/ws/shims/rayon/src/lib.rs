//! Clean fixture crate root: unsafe code is denied here and re-allowed
//! only by the pool module.

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
