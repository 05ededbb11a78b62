//! End-to-end coverage of every SQL dialect feature, through the full stack
//! (parse → bind → optimize → rewrite → vectorized execution).

mod common;

use vectorwise::{Database, Value};

fn db() -> Database {
    let db = Database::new().unwrap();
    db.execute(
        "CREATE TABLE emp (
            id BIGINT NOT NULL,
            name VARCHAR NOT NULL,
            dept VARCHAR,
            salary DOUBLE NOT NULL,
            hired DATE NOT NULL,
            boss BIGINT
        )",
    )
    .unwrap();
    db.execute(
        "INSERT INTO emp VALUES
            (1, 'ann',   'eng',   100.0, '2020-01-15', NULL),
            (2, 'bob',   'eng',    80.0, '2021-03-01', 1),
            (3, 'cat',   'sales',  90.0, '2019-07-20', 1),
            (4, 'dan',   NULL,     70.0, '2022-11-05', 3),
            (5, 'eve',   'sales', 120.0, '2018-02-28', NULL),
            (6, 'fay',   'eng',    95.0, '2023-06-17', 2)",
    )
    .unwrap();
    db.execute("CREATE TABLE dept (name VARCHAR NOT NULL, floor BIGINT NOT NULL)")
        .unwrap();
    db.execute("INSERT INTO dept VALUES ('eng', 3), ('sales', 1), ('legal', 9)")
        .unwrap();
    db
}

fn one(db: &Database, sql: &str) -> Value {
    let r = db.execute(sql).unwrap();
    assert_eq!(r.rows.len(), 1, "{}", sql);
    r.rows[0][0].clone()
}

fn col(db: &Database, sql: &str) -> Vec<Value> {
    db.execute(sql)
        .unwrap()
        .rows
        .into_iter()
        .map(|mut r| r.remove(0))
        .collect()
}

#[test]
fn arithmetic_and_precedence() {
    let d = db();
    assert_eq!(
        one(&d, "SELECT salary + 10 * 2 FROM emp WHERE id = 2"),
        Value::F64(100.0)
    );
    assert_eq!(
        one(&d, "SELECT (salary + 10) * 2 FROM emp WHERE id = 2"),
        Value::F64(180.0)
    );
    assert_eq!(
        one(&d, "SELECT -salary FROM emp WHERE id = 1"),
        Value::F64(-100.0)
    );
    assert_eq!(
        one(&d, "SELECT salary / 4 FROM emp WHERE id = 2"),
        Value::F64(20.0)
    );
}

#[test]
fn comparison_operators_and_boolean_logic() {
    let d = db();
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE salary >= 90 AND salary <= 100"
        ),
        Value::I64(3)
    );
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE dept = 'eng' OR dept = 'sales'"
        ),
        Value::I64(5)
    );
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE NOT (salary < 90)"),
        Value::I64(4)
    );
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE salary <> 100"),
        Value::I64(5)
    );
}

#[test]
fn null_predicates_and_three_valued_logic() {
    let d = db();
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE dept IS NULL"),
        Value::I64(1)
    );
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE dept IS NOT NULL"),
        Value::I64(5)
    );
    // dept = NULL never matches (not even the NULL row)
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE dept = NULL"),
        Value::I64(0)
    );
    // boss > 0 OR TRUE-branch logic with NULL boss
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE boss > 0 OR salary > 110"
        ),
        Value::I64(5)
    );
}

#[test]
fn between_in_like() {
    let d = db();
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE salary BETWEEN 80 AND 100"
        ),
        Value::I64(4)
    );
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE salary NOT BETWEEN 80 AND 100"
        ),
        Value::I64(2)
    );
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE name IN ('ann', 'eve', 'zzz')"
        ),
        Value::I64(2)
    );
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE name NOT IN ('ann', 'eve')"
        ),
        Value::I64(4)
    );
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE name LIKE '%a%'"),
        Value::I64(4) // ann, cat, dan, fay
    );
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE name LIKE '_a_'"),
        Value::I64(3) // cat, dan, fay
    );
    assert_eq!(
        one(&d, "SELECT COUNT(*) FROM emp WHERE name NOT LIKE '%a%'"),
        Value::I64(2)
    );
}

#[test]
fn case_expressions() {
    let d = db();
    let bands = col(
        &d,
        "SELECT CASE WHEN salary >= 100 THEN 'high' WHEN salary >= 85 THEN 'mid' \
         ELSE 'low' END FROM emp ORDER BY id",
    );
    assert_eq!(
        bands,
        vec![
            Value::Str("high".into()),
            Value::Str("low".into()),
            Value::Str("mid".into()),
            Value::Str("low".into()),
            Value::Str("high".into()),
            Value::Str("mid".into()),
        ]
    );
    // CASE without ELSE → NULL
    assert_eq!(
        one(
            &d,
            "SELECT CASE WHEN salary > 1000 THEN 1 END FROM emp WHERE id = 1"
        ),
        Value::Null
    );
}

#[test]
fn dates_extract_and_intervals() {
    let d = db();
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE hired >= DATE '2021-01-01'"
        ),
        Value::I64(3)
    );
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE hired < DATE '2020-01-01' + INTERVAL '2' YEAR"
        ),
        Value::I64(4) // 2018, 2019, 2020-01-15, 2021-03-01 < 2022-01-01
    );
    let years = col(
        &d,
        "SELECT EXTRACT(YEAR FROM hired) FROM emp ORDER BY hired",
    );
    assert_eq!(years[0], Value::I32(2018));
    assert_eq!(years[5], Value::I32(2023));
    assert_eq!(
        one(&d, "SELECT EXTRACT(MONTH FROM hired) FROM emp WHERE id = 4"),
        Value::I32(11)
    );
}

#[test]
fn string_functions_and_cast() {
    let d = db();
    assert_eq!(
        one(
            &d,
            "SELECT SUBSTRING(name FROM 1 FOR 2) FROM emp WHERE id = 3"
        ),
        Value::Str("ca".into())
    );
    assert_eq!(
        one(&d, "SELECT CAST(salary AS BIGINT) FROM emp WHERE id = 2"),
        Value::I64(80)
    );
    assert_eq!(
        one(&d, "SELECT CAST(id AS DOUBLE) / 2 FROM emp WHERE id = 5"),
        Value::F64(2.5)
    );
}

#[test]
fn aggregates_group_having_order() {
    let d = db();
    let r = d
        .execute(
            "SELECT dept, COUNT(*) AS n, SUM(salary) AS total, AVG(salary) AS mean, \
             MIN(salary) AS lo, MAX(salary) AS hi \
             FROM emp WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(
        r.rows[0],
        vec![
            Value::Str("eng".into()),
            Value::I64(3),
            Value::F64(275.0),
            Value::F64(275.0 / 3.0),
            Value::F64(80.0),
            Value::F64(100.0),
        ]
    );
    // HAVING over aggregates
    let names = col(
        &d,
        "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) >= 2 AND dept IS NOT NULL ORDER BY dept",
    );
    assert_eq!(
        names,
        vec![Value::Str("eng".into()), Value::Str("sales".into())]
    );
    // expressions over aggregates in the SELECT list
    assert_eq!(
        one(&d, "SELECT MAX(salary) - MIN(salary) FROM emp"),
        Value::F64(50.0)
    );
    // COUNT of a nullable column skips NULLs
    assert_eq!(one(&d, "SELECT COUNT(dept) FROM emp"), Value::I64(5));
    assert_eq!(one(&d, "SELECT COUNT(*) FROM emp"), Value::I64(6));
}

#[test]
fn group_by_expression_and_aliases() {
    let d = db();
    let r = d
        .execute(
            "SELECT EXTRACT(YEAR FROM hired) AS yr, COUNT(*) AS n FROM emp \
             GROUP BY EXTRACT(YEAR FROM hired) ORDER BY yr",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 6);
    assert_eq!(r.rows[0], vec![Value::I32(2018), Value::I64(1)]);
    assert_eq!(r.schema.field(0).name, "yr");
}

#[test]
fn distinct() {
    let d = db();
    let depts = col(&d, "SELECT DISTINCT dept FROM emp ORDER BY dept");
    assert_eq!(depts.len(), 3); // NULL, eng, sales
    assert_eq!(depts[0], Value::Null);
}

#[test]
fn joins_inner_left_self() {
    let d = db();
    // inner
    let r = d
        .execute(
            "SELECT e.name, d.floor FROM emp e JOIN dept d ON e.dept = d.name \
             ORDER BY e.id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5); // dan has NULL dept
    assert_eq!(r.rows[0], vec![Value::Str("ann".into()), Value::I64(3)]);
    // left join pads
    let r = d
        .execute(
            "SELECT e.name, d.floor FROM emp e LEFT JOIN dept d ON e.dept = d.name \
             WHERE e.id = 4",
        )
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Str("dan".into()), Value::Null]);
    // self join (boss relationship) with aliases
    let r = d
        .execute("SELECT e.name, b.name FROM emp e JOIN emp b ON e.boss = b.id ORDER BY e.id")
        .unwrap();
    assert_eq!(r.rows.len(), 4);
    assert_eq!(
        r.rows[0],
        vec![Value::Str("bob".into()), Value::Str("ann".into())]
    );
    // comma join with WHERE condition
    let r = d
        .execute("SELECT COUNT(*) FROM emp, dept WHERE emp.dept = dept.name")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::I64(5));
}

#[test]
fn in_subquery_semi_anti() {
    let d = db();
    // employees in departments that exist in dept table
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE dept IN (SELECT name FROM dept)"
        ),
        Value::I64(5)
    );
    // anti: nobody is in legal
    let names = col(
        &d,
        "SELECT name FROM emp WHERE id NOT IN (SELECT boss FROM emp WHERE boss IS NOT NULL) \
         ORDER BY name",
    );
    // bosses are 1, 2, 3 → non-bosses 4, 5, 6
    assert_eq!(
        names,
        vec![
            Value::Str("dan".into()),
            Value::Str("eve".into()),
            Value::Str("fay".into())
        ]
    );
    // subquery with its own WHERE
    assert_eq!(
        one(
            &d,
            "SELECT COUNT(*) FROM emp WHERE dept IN (SELECT name FROM dept WHERE floor > 2)"
        ),
        Value::I64(3)
    );
}

#[test]
fn order_by_variants_limit_offset() {
    let d = db();
    let ids = col(&d, "SELECT id FROM emp ORDER BY salary DESC, id LIMIT 3");
    assert_eq!(ids, vec![Value::I64(5), Value::I64(1), Value::I64(6)]);
    let ids = col(&d, "SELECT id FROM emp ORDER BY 1 DESC LIMIT 2 OFFSET 1");
    assert_eq!(ids, vec![Value::I64(5), Value::I64(4)]);
    let ids = col(&d, "SELECT id FROM emp ORDER BY id LIMIT 100 OFFSET 5");
    assert_eq!(ids, vec![Value::I64(6)]);
}

/// `LIMIT 9223372036854775807` is a Top-N whose N exceeds any table, with
/// sizes that saturate rather than overflow; `OFFSET` alone has no N and
/// stays a full sort. Both return what the row engine returns.
#[test]
fn huge_limit_and_offset_alone_match_the_row_engine() {
    use vectorwise::sql::{bind, parse_statement, BoundStatement};
    use vectorwise::{DataType, Field, Schema};
    // Bulk-loaded: the row engine reads the stable image alone.
    let d = Database::new().unwrap();
    let schema = Schema::new(vec![
        Field::new("id", DataType::I64),
        Field::nullable("g", DataType::I64),
    ]);
    d.create_table("t", schema).unwrap();
    let g = |i: i64| {
        if i % 7 == 0 {
            Value::Null
        } else {
            Value::I64(i % 5)
        }
    };
    d.bulk_load("t", (0..3000).map(|i| vec![Value::I64(i), g(i)]))
        .unwrap();
    let huge = "SELECT id, g FROM t ORDER BY g DESC, id LIMIT 9223372036854775807";
    let offset = "SELECT id, g FROM t ORDER BY g, id DESC OFFSET 2";
    for sql in [huge, offset, &format!("{huge} OFFSET 9223372036854775807")] {
        let BoundStatement::Query(plan) = bind(&parse_statement(sql).unwrap(), &d).unwrap() else {
            panic!("not a query: {sql}")
        };
        let want = common::run_row_engine(&d, &d.optimize_plan(plan));
        assert_eq!(d.execute(sql).unwrap().rows, want, "{sql}");
        assert!(want.len() >= 2998 || sql.ends_with("OFFSET 9223372036854775807"));
    }
    let limit_line = |sql: &str| {
        let rows = d.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap().rows;
        let lines = rows.iter().map(|r| r[0].to_string());
        lines.into_iter().find(|l| l.starts_with("Limit")).unwrap()
    };
    assert!(limit_line(huge).contains("topn=1"));
    assert!(!limit_line(offset).contains("topn=1"));
}

#[test]
fn insert_variants() {
    let d = db();
    // column subset, remaining nullable columns default to NULL
    d.execute("INSERT INTO emp (id, name, salary, hired) VALUES (7, 'gil', 60.0, '2024-01-01')")
        .unwrap();
    let r = d
        .execute("SELECT dept, boss FROM emp WHERE id = 7")
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Null, Value::Null]);
    // multi-row insert
    d.execute(
        "INSERT INTO emp (id, name, salary, hired) VALUES \
         (8, 'hal', 61.0, '2024-01-02'), (9, 'ivy', 62.0, '2024-01-03')",
    )
    .unwrap();
    assert_eq!(one(&d, "SELECT COUNT(*) FROM emp"), Value::I64(9));
    // integer literal into DOUBLE column coerces
    d.execute("INSERT INTO emp (id, name, salary, hired) VALUES (10, 'joe', 55, '2024-02-01')")
        .unwrap();
    assert_eq!(
        one(&d, "SELECT salary FROM emp WHERE id = 10"),
        Value::F64(55.0)
    );
}

#[test]
fn update_with_expressions_and_delete() {
    let d = db();
    d.execute("UPDATE emp SET salary = salary * 1.5, dept = 'exec' WHERE boss IS NULL")
        .unwrap();
    assert_eq!(
        one(&d, "SELECT SUM(salary) FROM emp WHERE dept = 'exec'"),
        Value::F64((100.0 + 120.0) * 1.5)
    );
    // assignments see pre-update values
    d.execute("CREATE TABLE swapt (a BIGINT NOT NULL, b BIGINT NOT NULL)")
        .unwrap();
    d.execute("INSERT INTO swapt VALUES (1, 2)").unwrap();
    d.execute("UPDATE swapt SET a = b, b = a").unwrap();
    let r = d.execute("SELECT a, b FROM swapt").unwrap();
    assert_eq!(r.rows[0], vec![Value::I64(2), Value::I64(1)]);
    // delete with predicate
    d.execute("DELETE FROM emp WHERE dept = 'exec'").unwrap();
    assert_eq!(one(&d, "SELECT COUNT(*) FROM emp"), Value::I64(4));
    // delete everything
    d.execute("DELETE FROM swapt").unwrap();
    assert_eq!(one(&d, "SELECT COUNT(*) FROM swapt"), Value::I64(0));
}

#[test]
fn wildcard_and_qualified_wildcard_order() {
    let d = db();
    let r = d.execute("SELECT * FROM dept ORDER BY floor").unwrap();
    assert_eq!(r.schema.field(0).name, "name");
    assert_eq!(r.schema.field(1).name, "floor");
    assert_eq!(r.rows[0][0], Value::Str("sales".into()));
}

#[test]
fn error_messages_are_helpful() {
    let d = db();
    let e = d.execute("SELECT nope FROM emp").unwrap_err();
    assert!(e.to_string().contains("nope"), "{}", e);
    let e = d.execute("SELECT name FROM emp GROUP BY dept").unwrap_err();
    assert!(e.to_string().contains("GROUP BY"), "{}", e);
    let e = d.execute("SELECT * FROM emp WHERE salary").unwrap_err();
    assert!(e.to_string().contains("BOOLEAN"), "{}", e);
    let e = d.execute("INSERT INTO emp (id) VALUES (99)").unwrap_err();
    assert!(e.to_string().contains("NOT NULL"), "{}", e);
    let e = d.execute("SELECT ( FROM emp").unwrap_err();
    assert_eq!(e.kind(), "parse");
}

#[test]
fn parser_never_panics_on_garbage() {
    use vectorwise::common::rng::Xoshiro256;
    let d = db();
    let tokens = [
        "SELECT", "FROM", "WHERE", "emp", "dept", "(", ")", ",", "*", "+", "-", "/", "=", "<", ">",
        "'x'", "42", "3.5", "AND", "OR", "NOT", "GROUP", "BY", "ORDER", "LIMIT", "JOIN", "ON",
        "IN", "LIKE", "BETWEEN", "CASE", "WHEN", "NULL", "AS", "name", ";",
    ];
    let mut r = Xoshiro256::seeded(99);
    for _ in 0..500 {
        let n = r.next_below(12) + 1;
        let sql: Vec<&str> = (0..n)
            .map(|_| tokens[r.next_below(tokens.len() as u64) as usize])
            .collect();
        // must never panic; errors are fine
        let _ = d.execute(&sql.join(" "));
    }
}

#[test]
fn explain_all_feature_shapes() {
    let d = db();
    for sql in [
        "EXPLAIN SELECT * FROM emp",
        "EXPLAIN SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 1",
        "EXPLAIN SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE d.floor > 1",
        "EXPLAIN SELECT name FROM emp WHERE dept IN (SELECT name FROM dept) ORDER BY name LIMIT 1",
    ] {
        let r = d.execute(sql).unwrap();
        assert!(!r.rows.is_empty(), "{}", sql);
    }
}

/// ORDER BY is one total order — `Value::total_cmp` — on every path: the
/// in-memory sort, Top-N, and the merge of spilled runs. A `DOUBLE` column
/// holding NaN used to abort the process on the full-sort path (`LIMIT
/// 10000`): NaN compared `Equal` to everything there, which is not a total
/// order, and `slice::sort_by` panics on one.
#[test]
fn order_by_doubles_with_nan_is_one_total_order_on_every_path() {
    use vectorwise::sql::{bind, parse_statement, BoundStatement};
    use vectorwise::{DataType, Field, Schema};
    let d = Database::new().unwrap();
    d.create_table(
        "t",
        Schema::new(vec![
            Field::new("id", DataType::I64),
            Field::nullable("x", DataType::F64),
        ]),
    )
    .unwrap();
    let x = |i: i64| match i % 12 {
        0 => Value::F64(f64::NAN),
        3 | 9 => Value::F64(f64::from_bits(0x7ff8_0000_0000_0000 + i as u64 % 5)),
        6 => Value::F64(-f64::NAN),
        1 => Value::F64(0.0),
        7 => Value::F64(-0.0),
        4 => Value::Null,
        5 => Value::F64(f64::NEG_INFINITY),
        _ => Value::F64(((i * 7919) % 1000 - 500) as f64 / 8.0),
    };
    d.bulk_load("t", (0..20_000).map(|i| vec![Value::I64(i), x(i)]))
        .unwrap();

    let row_engine = |sql: &str| {
        let BoundStatement::Query(plan) = bind(&parse_statement(sql).unwrap(), &d).unwrap() else {
            panic!("not a query: {sql}")
        };
        common::run_row_engine(&d, &d.optimize_plan(plan))
    };
    for dir in ["ASC", "DESC"] {
        for nulls in ["NULLS FIRST", "NULLS LAST"] {
            for (limit, rows) in [(" LIMIT 5", 5), (" LIMIT 10000", 10_000), ("", 20_000)] {
                let sql = format!("SELECT id, x FROM t ORDER BY x {dir} {nulls}, id{limit}");
                let want = row_engine(&sql);
                assert_eq!(want.len(), rows);
                for budget in [None, Some(96 << 10)] {
                    d.set_mem_budget(budget);
                    let got = d.execute(&sql).unwrap().rows;
                    // `Value` equality is bitwise on doubles: NaN payloads
                    // and the sign of zero must land in the same places.
                    assert_eq!(got, want, "{sql} under {budget:?}");
                    if budget.is_some() && rows > 5 {
                        let spilled = d.profile_last_query().unwrap().mem.spill_bytes;
                        assert!(spilled > 0, "{sql}: the budget must force runs");
                    }
                }
                d.set_mem_budget(None);
            }
        }
    }
}

/// `EXPLAIN ANALYZE` shows what the hash and sort operators did: where a join
/// spent its time and how its table came out (sized from the three build
/// rows, not a fixed allocation), the aggregate's group directory, and the
/// sort key's width and cost; Top-N also counts the rows its cut-off dropped
/// before materialising them.
#[test]
fn explain_analyze_reports_hash_table_and_sort_key_figures() {
    let d = db();
    let analyze = |sql: &str| {
        let r = d.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let lines = r.rows.iter().map(|row| row[0].to_string());
        lines.collect::<Vec<_>>().join("\n")
    };
    // Grouping by a DOUBLE keeps the aggregate on the hash-table path.
    let sql = "SELECT e.salary, COUNT(*) AS n FROM emp e JOIN dept d ON e.dept = d.name \
               GROUP BY e.salary ORDER BY n DESC, e.salary";
    let plan = analyze(sql);
    let line = |op: &str| {
        let found = plan.lines().find(|l| l.trim_start().starts_with(op));
        found
            .unwrap_or_else(|| panic!("no {op} in\n{plan}"))
            .to_string()
    };
    for key in [
        "build_rows=3",
        "ht_slots=16",
        "ht_max_chain=",
        "build_ns=",
        "probe_ns=",
        "emit_ns=",
    ] {
        assert!(line("INNERJoin").contains(key), "{key} missing:\n{plan}");
    }
    for key in [
        "agg_path_generic=1",
        "groups=5",
        "ht_slots=16",
        "ht_rehashes=0",
        "lookup_ns=",
        "update_ns=",
    ] {
        assert!(line("Aggregate").contains(key), "{key} missing:\n{plan}");
    }
    // `n DESC` then the DOUBLE: 64 + 64 bits, neither column nullable here.
    for key in ["key_bytes=16", "encode_ns=", "sort_ns="] {
        assert!(line("Sort").contains(key), "{key} missing:\n{plan}");
    }
    let topn = analyze(&format!("{sql} LIMIT 2"));
    for key in [
        "topn=1",
        "topn_cut_rows=0",
        "key_bytes=16",
        "encode_ns=",
        "sort_ns=",
    ] {
        assert!(topn.contains(key), "{key} missing:\n{topn}");
    }
}

/// Strings beyond ASCII are the same strings whether they arrive as SQL
/// literals or through the bulk-load API: rows of either origin compare
/// equal under `=`, `IN` and `LIKE`, come back byte for byte, and count
/// their characters alike (`_` in a pattern, `SUBSTRING`).
#[test]
fn non_ascii_strings_round_trip_through_sql_text() {
    let d = Database::new().unwrap();
    d.execute("CREATE TABLE u (id BIGINT NOT NULL, s VARCHAR)")
        .unwrap();
    let words = ["é", "𝄞", "n'é", "déjà vu", "€uro", "plain"];
    d.bulk_load(
        "u",
        words
            .iter()
            .enumerate()
            .map(|(i, w)| vec![Value::I64(i as i64), Value::Str(w.to_string())]),
    )
    .unwrap();
    for (i, w) in words.iter().enumerate() {
        let lit = w.replace('\'', "''");
        d.execute(&format!("INSERT INTO u VALUES ({}, '{}')", 100 + i, lit))
            .unwrap();
        // The loaded row and the inserted one, under each predicate.
        let both = vec![Value::I64(i as i64), Value::I64(100 + i as i64)];
        for pred in [
            format!("s = '{lit}'"),
            format!("s IN ('{lit}', 'nothing')"),
            format!("s LIKE '{lit}'"),
            format!("'{lit}' = s"),
        ] {
            let sql = format!("SELECT id FROM u WHERE {pred} ORDER BY id");
            assert_eq!(col(&d, &sql), both, "{sql}");
        }
        let back = col(&d, &format!("SELECT s FROM u WHERE id = {}", 100 + i));
        assert_eq!(back, vec![Value::Str(w.to_string())]);
    }
    assert_eq!(
        one(&d, "SELECT SUBSTRING(s FROM 1 FOR 1) FROM u WHERE id = 100"),
        Value::Str("é".into())
    );
    // One character each, whatever its width in bytes: from both origins.
    assert_eq!(
        col(&d, "SELECT id FROM u WHERE s LIKE '_' ORDER BY id"),
        [0, 1, 100, 101].map(Value::I64).to_vec()
    );
    assert_eq!(
        col(&d, "SELECT id FROM u WHERE s LIKE 'd_j_ vu' ORDER BY id"),
        [3, 103].map(Value::I64).to_vec()
    );
    assert_eq!(
        col(&d, "SELECT id FROM u WHERE s LIKE '_uro' ORDER BY id"),
        [4, 104].map(Value::I64).to_vec()
    );
    // The same after the rows have moved into compressed blocks.
    d.checkpoint("u").unwrap();
    assert_eq!(
        col(&d, "SELECT id FROM u WHERE s LIKE '_' ORDER BY id"),
        [0, 1, 100, 101].map(Value::I64).to_vec()
    );
    assert_eq!(
        col(&d, "SELECT id FROM u WHERE s NOT LIKE '%é%' ORDER BY id"),
        [1, 4, 5, 101, 104, 105].map(Value::I64).to_vec()
    );
}

/// `_` in a `LIKE` pattern is one character, as `SUBSTRING` counts them,
/// not one byte — over strings that only ever came through the load API,
/// in the append tail and in compressed blocks (dictionary-coded, and
/// plain where the values are all different).
#[test]
fn like_underscore_matches_one_character() {
    let d = Database::new().unwrap();
    d.execute("CREATE TABLE w (id BIGINT NOT NULL, few VARCHAR, many VARCHAR)")
        .unwrap();
    let few = ["é", "𝄞", "ab", "x", "€x"];
    d.bulk_load(
        "w",
        (0..400i64).map(|i| {
            let f = few[i as usize % few.len()];
            vec![
                Value::I64(i),
                Value::Str(f.to_string()),
                Value::Str(format!("{f}{i:03}")),
            ]
        }),
    )
    .unwrap();
    let n = |sql: &str| one(&d, sql);
    for _ in 0..2 {
        // é, 𝄞 and x: one character each.
        assert_eq!(
            n("SELECT COUNT(*) FROM w WHERE few LIKE '_'"),
            Value::I64(240)
        );
        assert_eq!(
            n("SELECT COUNT(*) FROM w WHERE few LIKE '__'"),
            Value::I64(160)
        );
        assert_eq!(
            n("SELECT COUNT(*) FROM w WHERE few NOT LIKE '_%_'"),
            Value::I64(240)
        );
        // One character and three digits.
        assert_eq!(
            n("SELECT COUNT(*) FROM w WHERE many LIKE '_0__'"),
            Value::I64(60)
        );
        assert_eq!(
            n("SELECT COUNT(*) FROM w WHERE many LIKE '_x1%'"),
            Value::I64(20)
        );
        assert_eq!(
            n("SELECT COUNT(*) FROM w WHERE SUBSTRING(few FROM 1 FOR 1) = few"),
            Value::I64(240)
        );
        d.execute("INSERT INTO w VALUES (1000, 'zz', 'zz')")
            .unwrap();
        d.execute("DELETE FROM w WHERE id = 1000").unwrap();
    }
}
