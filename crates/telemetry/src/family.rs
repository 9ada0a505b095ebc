//! One declaration per stats family.
//!
//! [`stats_family!`](crate::stats_family) declares a snapshot struct
//! once — every field with its aggregation rule — and derives the
//! struct plus the inherent methods named after the colon:
//!
//! | rule    | `delta` (newer − older)  | `merge` (two shards)  |
//! |---------|--------------------------|-----------------------|
//! | `sum`   | subtracts                | adds                  |
//! | `level` | keeps the newer value    | adds                  |
//! | `peak`  | keeps the newer value    | takes the max         |
//!
//! `to_json` writes one compact object with the fields in declaration
//! order and `from_json` parses it back (`None` on any missing or
//! mistyped field). A field whose type is itself a family uses `sum`:
//! its `delta` and `merge` recurse. A family that derives neither
//! `delta` nor `merge` may leave the rules out. A bracket after the rule lists what
//! the field contributes to the JSON object, in order: `self` is the
//! field, any other name is a method of the struct whose value is
//! written under that name (`[self, hit_rate]`), and `[]` leaves the
//! field out.
//!
//! ```
//! masm_telemetry::stats_family! {
//!     /// Reads served and the deepest queue seen.
//!     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
//!     pub struct Reads: delta, merge, to_json, from_json {
//!         /// Reads served (unit: ops).
//!         pub ops: u64 = sum,
//!         /// Deepest queue seen (unit: ops).
//!         pub max_depth: u64 = peak,
//!     }
//! }
//! let (a, b) = (Reads { ops: 5, max_depth: 2 }, Reads { ops: 8, max_depth: 1 });
//! assert_eq!(b.delta(&a), Reads { ops: 3, max_depth: 1 });
//! assert_eq!(a.merge(&b), Reads { ops: 13, max_depth: 2 });
//! assert_eq!(a.to_json(), r#"{"ops":5,"max_depth":2}"#);
//! ```
//!
//! The traits below are the per-field plumbing the generated code
//! calls; a hand-written type (a histogram, the wear summary) joins a
//! family by implementing the ones its rules need.
//!
//! [`counter_set!`](crate::counter_set) declares the live side: the
//! registry-backed counters and gauges a subsystem bumps, read back
//! into its family's snapshot.

use crate::json::{JsonObj, JsonValue};

/// A field value that subtracts (the `sum` rule's `delta`).
pub trait StatDelta: Copy {
    /// `self − earlier`.
    #[must_use]
    fn delta_since(self, earlier: Self) -> Self;
}

/// A field value that adds (the `sum` and `level` rules' `merge`).
pub trait StatMerge: Copy {
    /// `self + other`.
    #[must_use]
    fn merged(self, other: Self) -> Self;
}

/// A field value that writes itself into a JSON object.
pub trait JsonWrite {
    /// Append `self` under `key`.
    fn write_json(&self, key: &str, o: &mut JsonObj);
}

/// A field value that reads itself back out of a JSON object.
pub trait JsonRead: Sized {
    /// The value under `key` of object `v`.
    fn read_json(v: &JsonValue, key: &str) -> Option<Self>;
}

macro_rules! scalar_stat {
    ($($t:ty),*) => {$(
        impl StatDelta for $t {
            fn delta_since(self, earlier: Self) -> Self {
                self - earlier
            }
        }
        impl StatMerge for $t {
            fn merged(self, other: Self) -> Self {
                self + other
            }
        }
        impl JsonWrite for $t {
            fn write_json(&self, key: &str, o: &mut JsonObj) {
                o.u64(key, *self as u64);
            }
        }
        impl JsonRead for $t {
            fn read_json(v: &JsonValue, key: &str) -> Option<Self> {
                Some(v.get_u64(key)? as $t)
            }
        }
    )*};
}

scalar_stat!(u64, usize);

impl JsonWrite for f64 {
    fn write_json(&self, key: &str, o: &mut JsonObj) {
        o.f64(key, *self);
    }
}

/// Declare a stats family; see the [module docs](crate::family).
#[macro_export]
macro_rules! stats_family {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident : $($derive:ident),+ { $($fields:tt)* }
    ) => {
        $crate::stats_family!(@struct [$(#[$meta])*] $vis $name { $($fields)* });
        $crate::stats_family!(@derive [$($derive)+] $name { $($fields)* });
    };
    (@derive [$($derive:ident)+] $name:ident $fields:tt) => {
        $( $crate::stats_family!(@$derive $name $fields); )+
    };

    (@struct [$(#[$meta:meta])*] $vis:vis $name:ident {
        $( $(#[$fmeta:meta])* pub $f:ident : $t:ty $(= $rule:ident)? $([$($j:ident),*])? ),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* pub $f: $t, )*
        }
    };

    (@delta $name:ident {
        $( $(#[$fmeta:meta])* pub $f:ident : $t:ty = $rule:ident $([$($j:ident),*])? ),* $(,)?
    }) => {
        impl $name {
            /// What happened between `earlier` and `self`: `sum` fields
            /// subtract, `level` and `peak` fields keep the newer value.
            #[must_use]
            pub fn delta(&self, earlier: &Self) -> Self {
                Self { $( $f: $crate::stats_family!(@delta_rule $rule, self.$f, earlier.$f), )* }
            }
        }
        impl $crate::family::StatDelta for $name {
            fn delta_since(self, earlier: Self) -> Self {
                self.delta(&earlier)
            }
        }
    };
    (@delta_rule sum, $a:expr, $b:expr) => { $crate::family::StatDelta::delta_since($a, $b) };
    (@delta_rule level, $a:expr, $b:expr) => { $a };
    (@delta_rule peak, $a:expr, $b:expr) => { $a };

    (@merge $name:ident {
        $( $(#[$fmeta:meta])* pub $f:ident : $t:ty = $rule:ident $([$($j:ident),*])? ),* $(,)?
    }) => {
        impl $name {
            /// Combine two shards' values: `sum` and `level` fields add,
            /// `peak` fields take the max. Associative and commutative.
            #[must_use]
            pub fn merge(&self, other: &Self) -> Self {
                Self { $( $f: $crate::stats_family!(@merge_rule $rule, self.$f, other.$f), )* }
            }
        }
        impl $crate::family::StatMerge for $name {
            fn merged(self, other: Self) -> Self {
                self.merge(&other)
            }
        }
    };
    (@merge_rule sum, $a:expr, $b:expr) => { $crate::family::StatMerge::merged($a, $b) };
    (@merge_rule level, $a:expr, $b:expr) => { $crate::family::StatMerge::merged($a, $b) };
    (@merge_rule peak, $a:expr, $b:expr) => { ::std::cmp::Ord::max($a, $b) };

    (@to_json $name:ident {
        $( $(#[$fmeta:meta])* pub $f:ident : $t:ty $(= $rule:ident)? $([$($j:ident),*])? ),* $(,)?
    }) => {
        impl $name {
            /// One compact JSON object, fields in declaration order.
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut o = $crate::json::JsonObj::new();
                $( $crate::stats_family!(@write self, o, $f $([$($j),*])?); )*
                o.finish()
            }
        }
        impl $crate::family::JsonWrite for $name {
            fn write_json(&self, key: &str, o: &mut $crate::json::JsonObj) {
                o.raw(key, &self.to_json());
            }
        }
    };
    (@write $s:ident, $o:ident, $f:ident) => {
        $crate::family::JsonWrite::write_json(&$s.$f, stringify!($f), &mut $o)
    };
    (@write $s:ident, $o:ident, $f:ident [$($j:ident),*]) => {
        $( $crate::stats_family!(@write_one $s, $o, $f, $j); )*
    };
    (@write_one $s:ident, $o:ident, $f:ident, self) => {
        $crate::family::JsonWrite::write_json(&$s.$f, stringify!($f), &mut $o)
    };
    (@write_one $s:ident, $o:ident, $f:ident, $m:ident) => {
        $crate::family::JsonWrite::write_json(&$s.$m(), stringify!($m), &mut $o)
    };

    (@from_json $name:ident {
        $( $(#[$fmeta:meta])* pub $f:ident : $t:ty $(= $rule:ident)? $([$($j:ident),*])? ),* $(,)?
    }) => {
        impl $name {
            /// Parse an object written by `to_json`; `None` on any
            /// missing or mistyped field.
            #[must_use]
            pub fn from_json(v: &$crate::json::JsonValue) -> Option<Self> {
                Some(Self { $( $f: $crate::family::JsonRead::read_json(v, stringify!($f))?, )* })
            }
        }
        impl $crate::family::JsonRead for $name {
            fn read_json(v: &$crate::json::JsonValue, key: &str) -> Option<Self> {
                Self::from_json(v.get(key)?)
            }
        }
    };
}

/// Declare the live store behind a stats family: one registry-backed
/// metric per listed field, so a subsystem's snapshot and its exported
/// metrics are the same atomics. Each field names its kind — `counter`
/// (a [`Counter`](crate::Counter), `record` adds), `peak` (a
/// [`Gauge`](crate::Gauge) high-water mark, `record` raises it) or
/// `level` (a gauge the owner sets) — plus its unit and help string.
/// Fields and methods take the struct's visibility. The methods are
/// `new` (unregistered metrics), `attach` (register them all under
/// `family.field` with
/// [`Registry::attach_counter`](crate::Registry::attach_counter) /
/// [`Registry::attach_gauge`](crate::Registry::attach_gauge); a key
/// the registry already holds keeps its first metric), `registered`
/// (`new` then `attach`), `record` (fold a snapshot in) and `snapshot`
/// (read them back, unlisted fields at their defaults).
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident for $snap:ident in $family:literal {
            $( $f:ident : $kind:ident($unit:ident, $help:literal) ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $vis $f: ::std::sync::Arc<$crate::counter_set!(@ty $kind)>, )*
        }

        #[allow(dead_code)]
        impl $name {
            $vis fn new() -> Self {
                Self { $( $f: ::std::default::Default::default(), )* }
            }

            $vis fn attach(&self, registry: &$crate::Registry) {
                $( $crate::counter_set!(@attach $kind, registry, $family, $f,
                    ::std::sync::Arc::clone(&self.$f), $unit, $help); )*
            }

            $vis fn registered(registry: &$crate::Registry) -> Self {
                let set = Self::new();
                set.attach(registry);
                set
            }

            $vis fn record(&self, r: &$snap) {
                $( $crate::counter_set!(@record $kind, self.$f, r.$f as u64); )*
            }

            #[allow(clippy::needless_update)]
            $vis fn snapshot(&self) -> $snap {
                $snap { $( $f: self.$f.get() as _, )* ..::std::default::Default::default() }
            }
        }
    };
    (@ty counter) => { $crate::Counter };
    (@ty peak) => { $crate::Gauge };
    (@ty level) => { $crate::Gauge };
    (@attach counter, $r:ident, $fam:literal, $f:ident, $m:expr, $unit:ident, $help:literal) => {
        $r.attach_counter($fam, stringify!($f), $m, $crate::Unit::$unit, $help)
    };
    (@attach $kind:ident, $r:ident, $fam:literal, $f:ident, $m:expr, $unit:ident, $help:literal) => {
        $r.attach_gauge($fam, stringify!($f), $m, $crate::Unit::$unit, $help)
    };
    (@record counter, $m:expr, $v:expr) => { $m.add($v) };
    (@record peak, $m:expr, $v:expr) => { $m.raise_to($v) };
    (@record level, $m:expr, $v:expr) => { $m.set($v) };
}
