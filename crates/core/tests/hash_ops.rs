//! Differential suite for the flat hash table under `HashJoin` and the
//! generic `HashAggregate`: every run is compared **bit for bit** (doubles by
//! their bits) with the tuple-at-a-time row engine over the same plan, and —
//! wherever the operators promise an order — **in order**:
//!
//! * an in-memory join emits, per probe vector, its matched pairs by probe
//!   row with a row's matches in ascending build-row order, then (LEFT) the
//!   vector's unmatched rows; the row engine's rows are put in that order by
//!   the probe and build row numbers both tables carry;
//! * the generic aggregate emits groups in first-seen order, and accumulates
//!   each group in input order, which inexact `f64` SUM/AVG arguments pin.
//!
//! A grace join emits partition by partition and a spilled or fallen-back
//! aggregate re-associates its partial sums, so those runs compare as sorted
//! multisets (over doubles that add exactly).

mod common;

use common::run_generic;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use vw_baselines::{collect_row_engine, compile_row};
use vw_common::rng::Xoshiro256;
use vw_common::{DataType, Field, RangePartitionSpec, Schema, TableLayout, Value};
use vw_core::operators::collect_rows;
use vw_core::{compile_plan, Database};
use vw_plan::plan::AggPhase;
use vw_plan::{AggExpr, AggFunc, BinOp, Expr, JoinKind, LogicalPlan};

const VECTOR_SIZES: [usize; 3] = [1, 7, 1024];

/// The key shapes both operators are driven with.
#[derive(Clone, Copy, Debug)]
enum Keys {
    /// No key at all (scalar aggregate; the join suite skips it).
    None,
    I64,
    /// `(I64, Str)`: two columns, strings sharing long prefixes.
    I64Str,
    /// `I32` on the probe side against `I64` on the build side.
    I32vsI64,
    /// Doubles with `0.0`/`-0.0` and NaNs of both signs and two payloads.
    F64,
    Str,
}

const KEYS: [Keys; 6] = [
    Keys::None,
    Keys::I64,
    Keys::I64Str,
    Keys::I32vsI64,
    Keys::F64,
    Keys::Str,
];

impl Keys {
    /// Key column types as the build side (and the aggregate) sees them.
    fn types(self) -> Vec<DataType> {
        match self {
            Keys::None => vec![],
            Keys::I64 | Keys::I32vsI64 => vec![DataType::I64],
            Keys::I64Str => vec![DataType::I64, DataType::Str],
            Keys::F64 => vec![DataType::F64],
            Keys::Str => vec![DataType::Str],
        }
    }

    /// One key from a small domain, so keys repeat and sides meet; ~8% NULLs
    /// per column.
    fn draw(self, r: &mut Xoshiro256) -> Vec<Value> {
        const STRS: [&str; 7] = ["", "a", "ab", "commonprefix-1", "commonprefix-2", "ü", "üb"];
        let str_key = |r: &mut Xoshiro256| Value::Str(STRS[r.next_below(7) as usize].into());
        match self {
            Keys::None => vec![],
            Keys::I64 => vec![or_null(Value::I64(r.range_i64(0, 40)), r, 0.08)],
            Keys::I64Str => vec![
                or_null(Value::I64(r.range_i64(0, 6)), r, 0.08),
                or_null(str_key(r), r, 0.08),
            ],
            Keys::I32vsI64 => vec![or_null(Value::I64(r.range_i64(-20, 20)), r, 0.08)],
            Keys::F64 => {
                let x = match r.next_below(8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    3 => -f64::NAN,
                    4 => f64::from_bits(0x7ff8_0000_0000_0001),
                    5 => f64::INFINITY,
                    _ => r.range_i64(-3, 3) as f64 * 1.5,
                };
                vec![or_null(Value::F64(x), r, 0.08)]
            }
            Keys::Str => vec![or_null(str_key(r), r, 0.08)],
        }
    }
}

/// `v`, or NULL with probability `p`.
fn or_null(v: Value, r: &mut Xoshiro256, p: f64) -> Value {
    if r.chance(p) {
        Value::Null
    } else {
        v
    }
}

fn key_fields(prefix: &str, types: &[DataType]) -> Vec<Field> {
    let named = types.iter().enumerate();
    named
        .map(|(i, &t)| Field::nullable(format!("{prefix}{i}"), t))
        .collect()
}

/// A table stored in insertion order, whatever `VW_PARTITIONS` says: the
/// expected orders below are written in terms of row numbers.
fn load(db: &Database, name: &str, schema: Schema, rows: &[Vec<Value>]) -> LogicalPlan {
    let one_extent = TableLayout {
        order: Vec::new(),
        partition: Some(RangePartitionSpec {
            col: 0,
            partitions: 1,
        }),
    };
    let tid = db
        .create_table_with_layout(name, schema.clone(), one_extent)
        .unwrap();
    db.bulk_load(name, rows.to_vec()).unwrap();
    LogicalPlan::scan(name, tid, schema)
}

/// Run `plan` as written (no optimizer: build sides stay where the test put
/// them) on the vectorized engine, an aggregate on the generic hash table;
/// returns the rows and the bytes spilled.
fn run_vectorized(
    db: &Database,
    plan: &LogicalPlan,
    vector_size: usize,
    budget: Option<usize>,
) -> (Vec<Vec<Value>>, u64) {
    let mut cfg = db.config();
    cfg.vector_size = vector_size;
    cfg.mem_budget_bytes = budget;
    run_generic(db, plan, cfg)
}

fn run_row_engine(db: &Database, plan: &LogicalPlan) -> Vec<Vec<Value>> {
    let ctx = db.exec_context(None).unwrap();
    let tables: HashMap<_, _> = ctx
        .tables
        .iter()
        .map(|(id, p)| (*id, p.storage.clone()))
        .collect();
    let mut op = compile_row(plan, &tables).expect("row compile");
    collect_row_engine(op.as_mut()).expect("row run")
}

/// Rows with every `I32` widened, so an `I32` probe key column compares with
/// the `I64` one the row engine was given.
fn widened(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let widen = |v: Value| match v {
        Value::I32(x) => Value::I64(x as i64),
        v => v,
    };
    rows.into_iter()
        .map(|r| r.into_iter().map(widen).collect())
        .collect()
}

/// Sorted by a rendering that keeps what `Value` equality keeps (doubles by
/// their bits), so equal multisets sort to equal sequences.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let render = |v: &Value| match v {
        Value::F64(x) => format!("F{:016x}", x.to_bits()),
        v => format!("{v:?}"),
    };
    rows.sort_by_cached_key(|r| r.iter().map(render).collect::<Vec<_>>());
    rows
}

fn int(v: &Value) -> i64 {
    v.as_i64().expect("an integer column")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Inner/Left/Semi/Anti × every key shape × vector sizes 1/7/1024 ×
    /// {unbounded, grace-forcing budget}, with NULL keys, duplicate build
    /// keys, a probe-side selection vector and a residual predicate drawn
    /// per case.
    #[test]
    fn joins_match_the_row_engine(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed);
        for keys in KEYS.into_iter().skip(1) {
            let types = keys.types();
            let nk = types.len();
            let (np, nb) = (r.next_below(500) as usize, r.next_below(300) as usize);
            let nb = if r.chance(0.08) { 0 } else { nb };
            // probe(pid, keys.., v) and build(keys.., bid, w); pid and bid are
            // the row numbers.
            let probe: Vec<Vec<Value>> = (0..np).map(|i| {
                let mut row = vec![Value::I64(i as i64)];
                row.extend(keys.draw(&mut r));
                row.push(Value::I64(r.range_i64(0, 100)));
                row
            }).collect();
            let build: Vec<Vec<Value>> = (0..nb).map(|i| {
                let mut row = keys.draw(&mut r);
                if let (Keys::I32vsI64, true, Value::I64(k)) = (keys, r.chance(0.1), &mut row[0]) {
                    *k += 1 << 32; // equal to no i32, whatever its low bits
                }
                row.extend([Value::I64(i as i64), Value::I64(r.range_i64(0, 100))]);
                row
            }).collect();

            let db = Database::new().unwrap();
            let fields = |ktypes: &[DataType]| {
                let mut f = vec![Field::new("pid", DataType::I64)];
                f.extend(key_fields("pk", ktypes));
                f.push(Field::new("v", DataType::I64));
                Schema::new(f)
            };
            let narrow = matches!(keys, Keys::I32vsI64);
            let probe_scan = if narrow {
                let as_i32 = |v: &Value| match v {
                    Value::I64(x) => Value::I32(*x as i32),
                    v => v.clone(),
                };
                let rows: Vec<Vec<Value>> = probe.iter().map(|row| {
                    vec![row[0].clone(), as_i32(&row[1]), row[2].clone()]
                }).collect();
                load(&db, "probe", fields(&[DataType::I32]), &rows)
            } else {
                load(&db, "probe", fields(&types), &probe)
            };
            // The row engine compares keys as `Value`s, where an I32 equals
            // no I64: it reads the same probe rows with the key column wide.
            let wide_scan = narrow.then(|| load(&db, "probe_wide", fields(&types), &probe));
            let mut bfields = key_fields("bk", &types);
            bfields.extend([Field::new("bid", DataType::I64), Field::new("w", DataType::I64)]);
            let build_scan = load(&db, "build", Schema::new(bfields), &build);

            let (v_col, nl) = (1 + nk, 2 + nk);
            let selective = r.chance(0.5);
            let residual = r.chance(0.5).then(|| {
                Expr::binary(BinOp::Gt, Expr::col(v_col), Expr::col(nl + nk + 1))
            });
            for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
                let plan_over = |probe: &LogicalPlan| {
                    let mut left = probe.clone();
                    if selective {
                        left = left.filter(Expr::binary(BinOp::Lt, Expr::col(v_col), Expr::lit(Value::I64(70))));
                    }
                    LogicalPlan::Join {
                        left: Box::new(left),
                        right: Box::new(build_scan.clone()),
                        kind,
                        on: (0..nk).map(|k| (1 + k, k)).collect(),
                        residual: residual.clone(),
                    }
                };
                let plan = plan_over(&probe_scan);
                let reference = run_row_engine(&db, &plan_over(wide_scan.as_ref().unwrap_or(&probe_scan)));
                let want_sorted = sorted(reference.clone());
                for vs in VECTOR_SIZES {
                    // The operator's emission order, from the row numbers.
                    let mut want = reference.clone();
                    want.sort_by_key(|row| {
                        let pid = int(&row[0]);
                        let bid = row.get(nl + nk).map(|b| b.as_i64());
                        (pid / vs as i64, bid == Some(None), pid, bid.flatten())
                    });
                    let tag = format!("{keys:?} {kind:?} vs={vs} sel={selective} res={}", residual.is_some());
                    let (got, _) = run_vectorized(&db, &plan, vs, None);
                    prop_assert_eq!(widened(got), want, "{}", tag);
                    let (got, spilled) = run_vectorized(&db, &plan, vs, Some(2048));
                    prop_assert_eq!(sorted(widened(got)), want_sorted.clone(), "grace {}", tag);
                    prop_assert!(nb < 150 || spilled > 0, "grace {}: 2 KiB must not hold the build", tag);
                }
            }
        }
    }

    /// Every `AggFunc` over every key shape in Single, Partial and Final,
    /// vector sizes 1/7/1024: first-seen group order and bit-identical f64
    /// SUM/AVG unbounded, equal multisets under a spill-forcing budget.
    #[test]
    fn aggregates_match_the_row_engine(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed ^ 0xa66);
        for keys in KEYS {
            for spill in [false, true] {
                let types = keys.types();
                let nk = types.len();
                let n = r.next_below(600) as usize;
                // t(keys.., x, y, s, b, f): x is inexact unless the run
                // spills (fragments then re-associate the sums).
                let rows: Vec<Vec<Value>> = (0..n).map(|_| {
                    let x = r.range_i64(-500, 500) as f64;
                    let mut row = keys.draw(&mut r);
                    row.extend([
                        or_null(Value::F64(if spill { x / 4.0 } else { x / 7.0 }), &mut r, 0.1),
                        or_null(Value::I64(r.range_i64(-1000, 1000)), &mut r, 0.1),
                        or_null(Value::Str(format!("s{}", r.next_below(50))), &mut r, 0.1),
                        or_null(Value::Bool(r.chance(0.5)), &mut r, 0.1),
                        Value::I64(r.range_i64(0, 100)),
                    ]);
                    row
                }).collect();
                let mut fields = key_fields("k", &types);
                fields.extend([
                    Field::nullable("x", DataType::F64),
                    Field::nullable("y", DataType::I64),
                    Field::nullable("s", DataType::Str),
                    Field::nullable("b", DataType::Bool),
                    Field::new("f", DataType::I64),
                ]);
                let db = Database::new().unwrap();
                let scan = load(&db, "t", Schema::new(fields), &rows);
                let (x, y, s, b, f) = (nk, nk + 1, nk + 2, nk + 3, nk + 4);
                let agg = |func, col: Option<usize>, name: &str| AggExpr {
                    func,
                    arg: col.map(Expr::col),
                    name: name.into(),
                };
                let aggs = vec![
                    agg(AggFunc::CountStar, None, "n"),
                    agg(AggFunc::Count, Some(x), "nx"),
                    agg(AggFunc::Sum, Some(x), "sx"),
                    agg(AggFunc::Sum, Some(y), "sy"),
                    agg(AggFunc::Avg, Some(x), "ax"),
                    agg(AggFunc::Avg, Some(y), "ay"),
                    agg(AggFunc::Min, Some(x), "mnx"),
                    agg(AggFunc::Max, Some(x), "mxx"),
                    agg(AggFunc::Min, Some(y), "mny"),
                    agg(AggFunc::Max, Some(y), "mxy"),
                    agg(AggFunc::Min, Some(s), "mns"),
                    agg(AggFunc::Max, Some(s), "mxs"),
                    agg(AggFunc::Max, Some(b), "mxb"),
                ];
                let group_by: Vec<usize> = (0..nk).collect();
                let selective = r.chance(0.5);
                let keep = |row: &&Vec<Value>| !selective || int(&row[f]) < 70;
                let input = if selective {
                    scan.clone().filter(Expr::binary(BinOp::Lt, Expr::col(f), Expr::lit(Value::I64(70))))
                } else {
                    scan.clone()
                };
                let over = |input: LogicalPlan, aggs: &[AggExpr], phase| LogicalPlan::Aggregate {
                    input: Box::new(input),
                    group_by: group_by.clone(),
                    aggs: aggs.to_vec(),
                    phase,
                };
                // The Final phase reads partial rows: two Partial runs over
                // halves of the input, as a table of their own.
                let half = |lo: bool| {
                    let op = if lo { BinOp::Lt } else { BinOp::Ge };
                    let pred = Expr::binary(op, Expr::col(f), Expr::lit(Value::I64(50)));
                    over(scan.clone().filter(pred), &aggs, AggPhase::Partial)
                };
                let mut partials = run_row_engine(&db, &half(true));
                partials.extend(run_row_engine(&db, &half(false)));
                let pscan = load(&db, "partials", half(true).schema().unwrap(), &partials);
                let final_aggs: Vec<AggExpr> = aggs.iter().enumerate().map(|(i, a)| {
                    agg(a.func, Some(nk + i), &a.name)
                }).collect();
                let kept: Vec<&Vec<Value>> = rows.iter().filter(keep).collect();
                let all_partials: Vec<&Vec<Value>> = partials.iter().collect();
                for (phase, plan, input_rows) in [
                    (AggPhase::Single, over(input.clone(), &aggs, AggPhase::Single), &kept),
                    (AggPhase::Partial, over(input.clone(), &aggs, AggPhase::Partial), &kept),
                    (AggPhase::Final, over(pscan.clone(), &final_aggs, AggPhase::Final), &all_partials),
                ] {
                    // The row engine's groups, put in first-seen order.
                    let key_of = |row: &[Value]| -> Vec<Value> {
                        row[..nk].iter().map(|v| v.normalize_key()).collect()
                    };
                    let mut by_key: HashMap<Vec<Value>, Vec<Value>> =
                        run_row_engine(&db, &plan).into_iter().map(|row| (key_of(&row), row)).collect();
                    let mut want = Vec::new();
                    if nk == 0 {
                        want.extend(by_key.remove(&vec![]));
                    }
                    for row in input_rows.iter() {
                        want.extend(by_key.remove(&key_of(row)));
                    }
                    prop_assert!(by_key.is_empty(), "{:?} {:?}: groups of no input row", keys, phase);
                    let groups = want.len();
                    for vs in VECTOR_SIZES {
                        let tag = format!("{keys:?} {phase:?} vs={vs} sel={selective} spill={spill}");
                        if !spill {
                            let (got, _) = run_vectorized(&db, &plan, vs, None);
                            prop_assert_eq!(got, want.clone(), "{}", tag);
                            continue;
                        }
                        let (got, spilled) = run_vectorized(&db, &plan, vs, Some(4096));
                        prop_assert_eq!(sorted(got), sorted(want.clone()), "{}", tag);
                        prop_assert!(groups < 64 || spilled > 0, "{}: 4 KiB must not hold {} groups", tag, groups);
                    }
                }
            }
        }
    }

    /// A string key whose domain outgrows the perfect-hash coder mid-stream:
    /// the flat accumulators are re-emitted as partial rows and merged into
    /// the hash table, and nothing is lost, doubled or re-ordered within a
    /// group — inexact f64 sums stay bit-identical to the row engine's.
    #[test]
    fn perfect_to_generic_fallback_matches_the_row_engine(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed ^ 0xfa11);
        let n = 2000 + r.next_below(2000) as usize;
        let turn = n / 3 + r.next_below(n as u64 / 3) as usize;
        let rows: Vec<Vec<Value>> = (0..n).map(|i| {
            let domain = if i < turn { 8 } else { 60 };
            let g = or_null(Value::Str(format!("g{}", r.next_below(domain))), &mut r, 0.05);
            let x = or_null(Value::F64(r.range_i64(-500, 500) as f64 / 7.0), &mut r, 0.1);
            vec![g, x, Value::I64(r.range_i64(-9, 9))]
        }).collect();
        let schema = Schema::new(vec![
            Field::nullable("g", DataType::Str),
            Field::nullable("x", DataType::F64),
            Field::new("y", DataType::I64),
        ]);
        let db = Database::new().unwrap();
        let agg = |func, col: Option<usize>, name: &str| AggExpr { func, arg: col.map(Expr::col), name: name.into() };
        let plan = load(&db, "t", schema, &rows).aggregate(vec![0], vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some(1), "sx"),
            agg(AggFunc::Avg, Some(1), "ax"),
            agg(AggFunc::Min, Some(1), "mn"),
            agg(AggFunc::Max, Some(2), "mx"),
        ]);
        let want = sorted(run_row_engine(&db, &plan));
        let distinct: HashSet<&Value> = rows.iter().map(|row| &row[0]).collect();
        prop_assert!(distinct.len() > 40, "the domain must outgrow the coder's 32 strings");
        for vs in [7, 1024] {
            let mut cfg = db.config();
            cfg.vector_size = vs;
            let ctx = db.exec_context_with(None, cfg).unwrap();
            let got = collect_rows(compile_plan(&plan, &ctx).unwrap().as_mut()).unwrap();
            prop_assert_eq!(sorted(got), want.clone(), "vs={}", vs);
        }
    }
}
