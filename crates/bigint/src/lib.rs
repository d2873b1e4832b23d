//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This crate is the numeric substrate for the `refstate` workspace: the
//! reference-state protocols of Hohl (2000) authenticate agent states with
//! DSA signatures, and DSA needs multi-precision modular arithmetic. No
//! big-integer crate is available in the sanctioned offline dependency set,
//! so this crate implements one from scratch:
//!
//! * [`Uint`] — a little-endian `u64`-limb unsigned integer with schoolbook
//!   multiplication and Knuth Algorithm D division,
//! * modular arithmetic ([`Uint::pow_mod`], [`Uint::inv_mod`],
//!   [`Uint::mul_mod`]),
//! * a Montgomery reduction context ([`Montgomery`]) with sliding-window
//!   exponentiation, and a fixed-base precomputed-table exponentiator
//!   ([`FixedBase`]) for bases that recur across many exponentiations,
//! * stack scalars ([`Scalar`]) for moduli of up to 256 bits, on which a
//!   narrow context multiplies, inverts and reduces any limb slice without
//!   the heap or a division,
//! * probabilistic primality testing and prime generation
//!   ([`is_probable_prime`], [`gen_prime`]).
//!
//! All operations are portable Rust (no assembly, no SIMD). The schoolbook
//! [`Uint`] operations favour clarity and serve as the reference oracle;
//! the [`Montgomery`]/[`FixedBase`] layer is the performance path the DSA
//! hot loops run on, property-tested to agree with the schoolbook results
//! on every input.
//!
//! # Examples
//!
//! ```
//! use refstate_bigint::Uint;
//!
//! let p = Uint::from(101u64);
//! let g = Uint::from(7u64);
//! let x = Uint::from(13u64);
//! let y = g.pow_mod(&x, &p);
//! assert_eq!(y, Uint::from(75u64)); // 7^13 mod 101
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod div;
mod error;
mod modular;
mod montgomery;
mod prime;
mod random;
mod scalar;
mod signed;
mod uint;
mod window;

pub use error::ParseUintError;
pub use montgomery::{MontInt, Montgomery};
pub use prime::{gen_prime, is_probable_prime, SMALL_PRIMES};
pub use random::{random_below, random_bits, random_exact_bits, random_in_unit_range};
pub use scalar::{Scalar, SCALAR_LIMBS};
pub use uint::Uint;
pub use window::FixedBase;
