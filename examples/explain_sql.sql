full_sort
SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem
ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10000

worst_first
SELECT l_orderkey, l_linenumber FROM lineitem
ORDER BY l_orderkey DESC, l_linenumber DESC LIMIT 10000

offset_only
SELECT l_orderkey, l_linenumber FROM lineitem
ORDER BY l_orderkey DESC, l_linenumber DESC OFFSET 50000
