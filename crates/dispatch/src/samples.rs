//! Ready-made iterator specifications.
//!
//! These are the canonical traversal shapes of the paper's three workloads
//! (Table 3), shared by tests, doc examples and the data-structure library:
//!
//! | spec | shape | paper `t_c/t_d` |
//! |---|---|---|
//! | [`hash_find_spec`] | chained hash lookup (Listing 3) | 0.06 |
//! | [`btree_search_spec`] | B-tree inner-node locate (Listing 9) | 0.63 |
//! | [`btrdb_aggregate_spec`] | stateful time-window aggregation | 0.71 |
//!
//! [`compute_heavy_spec`] is the counter-example: an iterator whose compute
//! exceeds `η·t_d`, which the dispatch engine refuses to offload.

use crate::spec::{CondExpr, Expr, IterSpec, Stmt};
use pulse_isa::{AluOp, Cond, Width};

/// Deployed B-tree fanout: lands the static `t_c/t_d` at ≈0.60, matching
/// Table 3's 0.63 for WiredTiger.
pub const DEFAULT_BTREE_FANOUT: u32 = 12;

/// Deployed BTrDB leaf capacity: lands the static `t_c/t_d` at ≈0.64,
/// matching Table 3's 0.71 for BTrDB.
pub const DEFAULT_BTRDB_LEAF_CAP: u32 = 3;

/// Scratch layout shared by the list/hash find specs.
pub mod hash_layout {
    /// Search key lives at scratch\[0..8\].
    pub const SP_KEY: u16 = 0;
    /// Result value (or NOT_FOUND flag) at scratch\[8..16\].
    pub const SP_RESULT: u16 = 8;
    /// Node field offsets: key, value, next.
    pub const KEY: i32 = 0;
    /// Value field offset.
    pub const VALUE: i32 = 8;
    /// Next-pointer field offset.
    pub const NEXT: i32 = 16;
    /// Node size in bytes.
    pub const NODE_SIZE: u64 = 24;
    /// `RETURN` code for "found".
    pub const FOUND: i64 = 0;
    /// `RETURN` code for "absent".
    pub const NOT_FOUND: i64 = 1;
}

/// `unordered_map::find` over a bucket chain (the paper's Listing 3).
///
/// Node layout: `key u64 | value u64 | next u64`. Scratch: search key at 0,
/// result value at 8.
pub fn hash_find_spec() -> IterSpec {
    use hash_layout::*;
    IterSpec::new(
        "unordered_map::find",
        16,
        vec![
            Stmt::if_then(
                CondExpr::new(Cond::Eq, Expr::field_u64(KEY), Expr::scratch_u64(SP_KEY)),
                vec![
                    Stmt::SetScratch {
                        off: SP_RESULT,
                        width: Width::B8,
                        value: Expr::field_u64(VALUE),
                    },
                    Stmt::Finish {
                        code: Expr::Const(FOUND),
                    },
                ],
            ),
            Stmt::if_then(
                CondExpr::new(Cond::Eq, Expr::field_u64(NEXT), Expr::Const(0)),
                vec![Stmt::Finish {
                    code: Expr::Const(NOT_FOUND),
                }],
            ),
            Stmt::Advance {
                next: Expr::field_u64(NEXT),
            },
        ],
    )
}

/// Node layout for the B-tree specs.
pub mod btree_layout {
    /// `is_leaf` flag (u64 for alignment).
    pub const IS_LEAF: i32 = 0;
    /// Number of live keys.
    pub const NUM_KEYS: i32 = 8;
    /// First key; keys are consecutive u64s.
    pub const KEYS: i32 = 16;
    /// Scratch slot holding the search key.
    pub const SP_KEY: u16 = 0;
    /// Scratch slot where the chosen child pointer is staged.
    pub const SP_CHILD: u16 = 8;
    /// Scratch slot receiving the located leaf pointer on return.
    pub const SP_LEAF: u16 = 16;
    /// `RETURN` code when the leaf is reached.
    pub const AT_LEAF: i64 = 0;

    /// Offset of key `i`.
    pub fn key(i: u32) -> i32 {
        KEYS + (i as i32) * 8
    }

    /// Offset of child pointer `i` for a given fanout.
    pub fn child(fanout: u32, i: u32) -> i32 {
        KEYS + (fanout as i32) * 8 + (i as i32) * 8
    }

    /// Node size in bytes for a given fanout (header + keys + children).
    pub fn node_size(fanout: u32) -> u64 {
        16 + fanout as u64 * 8 + (fanout as u64 + 1) * 8
    }
}

/// `btree::internal_locate` (the paper's Listing 9): find the first key
/// `>= search key` among the node's `fanout` slots, descend to that child,
/// stop at a leaf.
///
/// The per-key scan is unrolled at IR construction — the "loops that can be
/// unrolled to a fixed number of instructions" rule of §4.1.
pub fn btree_search_spec(fanout: u32) -> IterSpec {
    use btree_layout::*;
    // Innermost-first construction of the unrolled else-chain:
    //   if i >= num_keys || key <= keys[i] { sp_child = children[i] }
    //   else { <next i> }
    // Final else (i == fanout): sp_child = children[fanout].
    let take = |i: u32| Stmt::SetScratch {
        off: SP_CHILD,
        width: Width::B8,
        value: Expr::field_u64(child(fanout, i)),
    };
    let mut chain = vec![take(fanout)];
    for i in (0..fanout).rev() {
        let inner = chain;
        chain = vec![Stmt::If {
            cond: CondExpr::new(Cond::GeU, Expr::Const(i as i64), Expr::field_u64(NUM_KEYS)),
            then: vec![take(i)],
            els: vec![Stmt::If {
                cond: CondExpr::new(
                    Cond::LeU,
                    Expr::scratch_u64(SP_KEY),
                    Expr::field_u64(key(i)),
                ),
                then: vec![take(i)],
                els: inner,
            }],
        }];
    }
    let mut body = vec![
        // Leaf reached: report its address and stop.
        Stmt::if_then(
            CondExpr::new(Cond::Ne, Expr::field_u64(IS_LEAF), Expr::Const(0)),
            vec![
                Stmt::SetScratch {
                    off: SP_LEAF,
                    width: Width::B8,
                    value: Expr::CurPtr,
                },
                Stmt::Finish {
                    code: Expr::Const(AT_LEAF),
                },
            ],
        ),
    ];
    body.extend(chain);
    body.push(Stmt::Advance {
        next: Expr::scratch_u64(SP_CHILD),
    });
    IterSpec::new(format!("btree::internal_locate(f={fanout})"), 24, body)
}

/// Node/scratch layout for the BTrDB aggregation spec.
pub mod btrdb_layout {
    /// Leaf header: number of live samples.
    pub const COUNT: i32 = 0;
    /// Next-leaf pointer.
    pub const NEXT: i32 = 8;
    /// First (timestamp, value) pair; pairs are 16 B each.
    pub const SAMPLES: i32 = 16;
    /// Scratch: window start timestamp.
    pub const SP_T0: u16 = 0;
    /// Scratch: window end timestamp (exclusive).
    pub const SP_T1: u16 = 8;
    /// Scratch: running sum (signed fixed-point).
    pub const SP_SUM: u16 = 16;
    /// Scratch: running min.
    pub const SP_MIN: u16 = 24;
    /// Scratch: running max.
    pub const SP_MAX: u16 = 32;
    /// Scratch: sample count.
    pub const SP_N: u16 = 40;
    /// `RETURN` code when the window is exhausted.
    pub const WINDOW_DONE: i64 = 0;

    /// Offset of sample `i`'s timestamp.
    pub fn ts(i: u32) -> i32 {
        SAMPLES + (i as i32) * 16
    }

    /// Offset of sample `i`'s value.
    pub fn val(i: u32) -> i32 {
        SAMPLES + (i as i32) * 16 + 8
    }

    /// Leaf size for a given capacity.
    pub fn node_size(cap: u32) -> u64 {
        16 + cap as u64 * 16
    }
}

/// BTrDB-style stateful window aggregation over a chain of time-ordered
/// leaves: for each in-window sample accumulate `sum`, `min`, `max`, `n` in
/// the scratchpad; finish when a sample's timestamp passes the window end or
/// the chain ends.
///
/// Values are signed fixed-point (µ-units), exercising the ISA's signed
/// comparisons.
pub fn btrdb_aggregate_spec(leaf_cap: u32) -> IterSpec {
    use btrdb_layout::*;
    let mut body = Vec::new();
    for i in 0..leaf_cap {
        // if i >= count { skip }  — tail slots of a partially filled leaf.
        let sample_stmts = vec![
            // if ts >= t1: past the window; finish.
            Stmt::if_then(
                CondExpr::new(Cond::GeU, Expr::field_u64(ts(i)), Expr::scratch_u64(SP_T1)),
                vec![Stmt::Finish {
                    code: Expr::Const(WINDOW_DONE),
                }],
            ),
            // if ts >= t0: accumulate.
            Stmt::if_then(
                CondExpr::new(Cond::GeU, Expr::field_u64(ts(i)), Expr::scratch_u64(SP_T0)),
                vec![
                    Stmt::SetScratch {
                        off: SP_SUM,
                        width: Width::B8,
                        value: Expr::binop(
                            AluOp::Add,
                            Expr::scratch_u64(SP_SUM),
                            Expr::field_u64(val(i)),
                        ),
                    },
                    Stmt::if_then(
                        CondExpr::new(
                            Cond::LtS,
                            Expr::field_u64(val(i)),
                            Expr::scratch_u64(SP_MIN),
                        ),
                        vec![Stmt::SetScratch {
                            off: SP_MIN,
                            width: Width::B8,
                            value: Expr::field_u64(val(i)),
                        }],
                    ),
                    Stmt::if_then(
                        CondExpr::new(
                            Cond::GtS,
                            Expr::field_u64(val(i)),
                            Expr::scratch_u64(SP_MAX),
                        ),
                        vec![Stmt::SetScratch {
                            off: SP_MAX,
                            width: Width::B8,
                            value: Expr::field_u64(val(i)),
                        }],
                    ),
                    Stmt::SetScratch {
                        off: SP_N,
                        width: Width::B8,
                        value: Expr::binop(AluOp::Add, Expr::scratch_u64(SP_N), Expr::Const(1)),
                    },
                ],
            ),
        ];
        body.push(Stmt::if_then(
            CondExpr::new(Cond::LtU, Expr::Const(i as i64), Expr::field_u64(COUNT)),
            sample_stmts,
        ));
    }
    // End of chain?
    body.push(Stmt::if_then(
        CondExpr::new(Cond::Eq, Expr::field_u64(NEXT), Expr::Const(0)),
        vec![Stmt::Finish {
            code: Expr::Const(WINDOW_DONE),
        }],
    ));
    body.push(Stmt::Advance {
        next: Expr::field_u64(NEXT),
    });
    IterSpec::new(format!("btrdb::aggregate(cap={leaf_cap})"), 48, body)
}

/// A deliberately compute-bound iterator (a hash-mixing loop unrolled 24×)
/// that fails the `t_c ≤ η·t_d` gate — the dispatch engine must keep it on
/// the CPU node (§4.1 "if it involves compute-heavy ... tasks, it will not
/// be offloaded").
pub fn compute_heavy_spec() -> IterSpec {
    // A straight-line statement sequence (shallow nesting keeps register
    // pressure flat while the instruction count grows).
    let mut body = Vec::new();
    for round in 0..24i64 {
        body.push(Stmt::SetScratch {
            off: 0,
            width: Width::B8,
            value: Expr::binop(
                AluOp::Mul,
                Expr::add(Expr::scratch_u64(0), Expr::Const(0x9E37_79B9 + round)),
                Expr::Const(0x85EB_CA6B),
            ),
        });
    }
    body.push(Stmt::Finish {
        code: Expr::scratch_u64(0),
    });
    IterSpec::new("compute_heavy::mix24", 8, body)
}

/// `std::find` over `std::list` (the paper's Listing 5): like the hash
/// chain but comparing values instead of keys.
pub fn list_find_spec() -> IterSpec {
    // Same layout as the hash node; value comparison at offset 0.
    let mut spec = hash_find_spec();
    spec.name = "std::list::find".into();
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    #[test]
    fn all_samples_compile() {
        for spec in [
            hash_find_spec(),
            btree_search_spec(5),
            btree_search_spec(8),
            btrdb_aggregate_spec(4),
            compute_heavy_spec(),
            list_find_spec(),
        ] {
            let prog = compile(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(prog.len() >= 2, "{} too trivial", prog.name());
        }
    }

    #[test]
    fn all_samples_survive_the_wire() {
        use pulse_isa::{decode_program, encode_program, Program};
        for spec in [
            hash_find_spec(),
            btree_search_spec(5),
            btree_search_spec(DEFAULT_BTREE_FANOUT),
            btrdb_aggregate_spec(DEFAULT_BTRDB_LEAF_CAP),
            compute_heavy_spec(),
            list_find_spec(),
        ] {
            let p = compile(&spec).unwrap();
            let wire = encode_program(&p);
            let q = decode_program(&wire).unwrap();
            assert_eq!(encode_program(&q), wire, "{}", p.name());
            // The wire format carries no name; everything else — the
            // cached decoded form and wire length included — must compare
            // equal.
            let renamed =
                Program::new(q.name(), p.window(), p.insns().to_vec(), p.scratch_len()).unwrap();
            assert_eq!(q, renamed, "{}", p.name());
        }
    }

    #[test]
    fn btree_unrolling_scales_with_fanout() {
        let p5 = compile(&btree_search_spec(5)).unwrap();
        let p8 = compile(&btree_search_spec(8)).unwrap();
        assert!(p8.len() > p5.len());
        assert!(p8.window().len > p5.window().len);
    }

    #[test]
    fn btree_window_covers_whole_node() {
        let fanout = 5;
        let p = compile(&btree_search_spec(fanout)).unwrap();
        assert_eq!(p.window().len as u64, btree_layout::node_size(fanout));
    }

    #[test]
    fn btrdb_window_covers_leaf() {
        let cap = 4;
        let p = compile(&btrdb_aggregate_spec(cap)).unwrap();
        assert_eq!(p.window().len as u64, btrdb_layout::node_size(cap));
    }
}
