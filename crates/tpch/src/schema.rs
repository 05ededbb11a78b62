//! TPC-H table schemas, mapped onto the engine's types: DECIMAL → DOUBLE,
//! fixed/variable CHAR → VARCHAR, DATE → DATE. The money and quantity
//! columns are doubles to every operator; storage packs each block of them
//! whose values are all exact decimals as scaled integers.

use vw_common::{DataType, Field, Schema};

/// Schema of one TPC-H table (by its lowercase standard name).
pub fn tpch_schema(table: &str) -> Option<Schema> {
    use DataType::*;
    let fields: Vec<Field> = match table {
        "region" => vec![
            Field::new("r_regionkey", I64),
            Field::new("r_name", Str),
            Field::new("r_comment", Str),
        ],
        "nation" => vec![
            Field::new("n_nationkey", I64),
            Field::new("n_name", Str),
            Field::new("n_regionkey", I64),
            Field::new("n_comment", Str),
        ],
        "supplier" => vec![
            Field::new("s_suppkey", I64),
            Field::new("s_name", Str),
            Field::new("s_address", Str),
            Field::new("s_nationkey", I64),
            Field::new("s_phone", Str),
            Field::new("s_acctbal", F64),
            Field::new("s_comment", Str),
        ],
        "part" => vec![
            Field::new("p_partkey", I64),
            Field::new("p_name", Str),
            Field::new("p_mfgr", Str),
            Field::new("p_brand", Str),
            Field::new("p_type", Str),
            Field::new("p_size", I64),
            Field::new("p_container", Str),
            Field::new("p_retailprice", F64),
            Field::new("p_comment", Str),
        ],
        "partsupp" => vec![
            Field::new("ps_partkey", I64),
            Field::new("ps_suppkey", I64),
            Field::new("ps_availqty", I64),
            Field::new("ps_supplycost", F64),
            Field::new("ps_comment", Str),
        ],
        "customer" => vec![
            Field::new("c_custkey", I64),
            Field::new("c_name", Str),
            Field::new("c_address", Str),
            Field::new("c_nationkey", I64),
            Field::new("c_phone", Str),
            Field::new("c_acctbal", F64),
            Field::new("c_mktsegment", Str),
            Field::new("c_comment", Str),
        ],
        "orders" => vec![
            Field::new("o_orderkey", I64),
            Field::new("o_custkey", I64),
            Field::new("o_orderstatus", Str),
            Field::new("o_totalprice", F64),
            Field::new("o_orderdate", Date),
            Field::new("o_orderpriority", Str),
            Field::new("o_clerk", Str),
            Field::new("o_shippriority", I64),
            Field::new("o_comment", Str),
        ],
        "lineitem" => vec![
            Field::new("l_orderkey", I64),
            Field::new("l_partkey", I64),
            Field::new("l_suppkey", I64),
            Field::new("l_linenumber", I64),
            Field::new("l_quantity", F64),
            Field::new("l_extendedprice", F64),
            Field::new("l_discount", F64),
            Field::new("l_tax", F64),
            Field::new("l_returnflag", Str),
            Field::new("l_linestatus", Str),
            Field::new("l_shipdate", Date),
            Field::new("l_commitdate", Date),
            Field::new("l_receiptdate", Date),
            Field::new("l_shipinstruct", Str),
            Field::new("l_shipmode", Str),
            Field::new("l_comment", Str),
        ],
        _ => return None,
    };
    Some(Schema::new(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_tables_have_schemas() {
        for t in [
            "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
        ] {
            let s = tpch_schema(t).unwrap();
            assert!(!s.is_empty(), "{}", t);
            s.check_unique_names().unwrap();
        }
        assert!(tpch_schema("nosuch").is_none());
    }

    #[test]
    fn lineitem_has_16_columns_like_the_spec() {
        assert_eq!(tpch_schema("lineitem").unwrap().len(), 16);
        assert_eq!(tpch_schema("orders").unwrap().len(), 9);
        assert_eq!(tpch_schema("part").unwrap().len(), 9);
    }
}
