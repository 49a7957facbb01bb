//! Routing-table substrate for the CLUE reproduction.
//!
//! This crate provides the data model every other crate in the workspace
//! builds on:
//!
//! * [`Prefix`] / [`NextHop`] — IPv4 prefixes and forwarding actions;
//! * [`Trie`] — an arena-based binary trie with longest-prefix match,
//!   iteration in `(bits, len)` order, and per-subtree route counters;
//! * [`RouteTable`] / [`Route`] / [`Update`] — FIBs and BGP-like update
//!   messages, with a plain-text interchange format;
//! * [`gen`] — seeded synthetic FIB generation standing in for the RIPE
//!   RIS RIBs used by the paper (see `DESIGN.md` for the substitution
//!   rationale).
//!
//! # Examples
//!
//! ```
//! use clue_fib::{gen::FibGen, NextHop, RouteTable};
//!
//! // Generate a small synthetic FIB and look an address up.
//! let fib: RouteTable = FibGen::new(1).routes(1_000).generate();
//! let trie = fib.to_trie();
//! let route = fib.iter().next().unwrap();
//! let (matched, nh) = trie.lookup(route.prefix.low()).unwrap();
//! assert!(matched.contains(route.prefix) || route.prefix.contains(matched));
//! let _: NextHop = *nh;
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod gen;
pub mod io;
mod prefix;
mod route;
mod trie;

pub use prefix::{mask, Bit, NextHop, ParsePrefixError, Prefix, MAX_LEN};
pub use route::{ParseRouteError, Route, RouteTable, Update};
pub use trie::{Iter, NodeRef, Trie};
