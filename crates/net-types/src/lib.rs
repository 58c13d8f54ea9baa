//! Core network types shared by every crate in the Edge Fabric reproduction.
//!
//! This crate is dependency-light on purpose: it defines the vocabulary —
//! [`Prefix`], [`Asn`], [`Community`] — and the longest-prefix-match trie
//! several subsystems need, the path-compressed arena [`CompressedTrie`].
//!
//! # Examples
//!
//! ```
//! use ef_net_types::{CompressedTrie, Prefix};
//!
//! let mut trie: CompressedTrie<&str> = CompressedTrie::new();
//! trie.insert("10.0.0.0/8".parse().unwrap(), "coarse");
//! trie.insert("10.1.0.0/16".parse().unwrap(), "fine");
//!
//! let hit = trie.longest_match("10.1.2.0/24".parse().unwrap()).unwrap();
//! assert_eq!(*hit.1, "fine");
//! ```

mod asn;
mod community;
mod ctrie;
mod prefix;

pub use asn::Asn;
pub use community::Community;
pub use ctrie::CompressedTrie;
pub use prefix::{Prefix, PrefixParseError};
