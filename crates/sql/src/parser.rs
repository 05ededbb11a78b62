//! Recursive-descent SQL parser with Pratt-style expression parsing.

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};
use vw_common::date::parse_date;
use vw_common::{DataType, Result, Value, VwError};

/// Parse a single SQL statement (trailing semicolon optional).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> VwError {
        VwError::Parse(format!(
            "{} near byte {} (found {:?})",
            msg, self.tokens[self.pos].pos, self.tokens[self.pos].kind
        ))
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {}", kw)))
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {}", what)))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err("trailing input"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            _ => {
                self.pos -= 1;
                Err(self.err("expected identifier"))
            }
        }
    }

    // ------------------------------------------------------------ statements

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("EXPLAIN") {
            if self.eat_kw("ANALYZE") {
                return Ok(Statement::ExplainAnalyze(Box::new(self.statement()?)));
            }
            return Ok(Statement::Explain(Box::new(self.statement()?)));
        }
        if self.eat_kw("TRACE") {
            return Ok(Statement::Trace(Box::new(self.statement()?)));
        }
        if self.is_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("CREATE") {
            return self.create_table();
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("SET") {
            return self.set_stmt();
        }
        Err(self.err("expected a statement"))
    }

    fn set_stmt(&mut self) -> Result<Statement> {
        // GLOBAL/LOCAL are not reserved words: `SET global = 1` must still
        // parse as an option named "global". A scope keyword is only
        // recognized when another identifier (the option name) follows
        // before the `=`.
        let mut name = self.ident()?;
        let mut scope = SetScope::Default;
        if !matches!(self.peek(), TokenKind::Eq) {
            scope = match name.to_ascii_lowercase().as_str() {
                "global" => SetScope::Global,
                "local" => SetScope::Local,
                _ => return Err(self.err("expected = (or a GLOBAL/LOCAL scope)")),
            };
            name = self.ident()?;
        }
        self.expect_kind(&TokenKind::Eq, "=")?;
        // A bare word (`unbounded`, `on`) is sugar for the string literal —
        // including keywords like ON, so `SET profiling = on` parses.
        let value = match self.peek() {
            TokenKind::Ident(_) => AstExpr::Literal(Value::Str(self.ident()?)),
            TokenKind::Keyword(k) if !matches!(k.as_str(), "TRUE" | "FALSE" | "NULL") => {
                let word = k.to_ascii_lowercase();
                self.bump();
                AstExpr::Literal(Value::Str(word))
            }
            _ => self.expr(0)?,
        };
        Ok(Statement::Set { name, value, scope })
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect_kind(&TokenKind::LParen, "(")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let ty = self.data_type()?;
            let mut nullable = true;
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                nullable = false;
            } else if self.eat_kw("NULL") {
                nullable = true;
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                nullable = false;
            }
            columns.push(ColumnDef {
                name: col_name,
                ty,
                nullable,
            });
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(&TokenKind::RParen, ")")?;
        // Physical design clauses: ORDER BY (col [ASC|DESC] [NULLS …], …)
        // and PARTITION BY RANGE(col) PARTITIONS n.
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let parens = self.eat_kind(&TokenKind::LParen);
            loop {
                let col = self.ident()?;
                let (asc, nulls_first) = self.order_direction()?;
                order_by.push(OrderItem {
                    expr: AstExpr::Column(None, col),
                    asc,
                    nulls_first,
                });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            if parens {
                self.expect_kind(&TokenKind::RParen, ")")?;
            }
        }
        let mut partition_by = None;
        if self.eat_kw("PARTITION") {
            self.expect_kw("BY")?;
            self.expect_kw("RANGE")?;
            self.expect_kind(&TokenKind::LParen, "(")?;
            let column = self.ident()?;
            self.expect_kind(&TokenKind::RParen, ")")?;
            self.expect_kw("PARTITIONS")?;
            let partitions = match self.peek() {
                TokenKind::Int(n) if *n >= 1 => {
                    let n = *n as usize;
                    self.bump();
                    n
                }
                _ => return Err(self.err("expected a partition count >= 1")),
            };
            partition_by = Some(PartitionByRange { column, partitions });
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            order_by,
            partition_by,
        })
    }

    /// `[ASC|DESC] [NULLS FIRST|NULLS LAST]` after an ORDER BY expression.
    fn order_direction(&mut self) -> Result<(bool, Option<bool>)> {
        let asc = if self.eat_kw("DESC") {
            false
        } else {
            self.eat_kw("ASC");
            true
        };
        let nulls_first = if self.eat_kw("NULLS") {
            if self.eat_kw("FIRST") {
                Some(true)
            } else {
                self.expect_kw("LAST")?;
                Some(false)
            }
        } else {
            None
        };
        Ok((asc, nulls_first))
    }

    fn data_type(&mut self) -> Result<DataType> {
        let kw = match self.bump() {
            TokenKind::Keyword(k) => k,
            _ => {
                self.pos -= 1;
                return Err(self.err("expected a type name"));
            }
        };
        let ty = match kw.as_str() {
            "INTEGER" | "INT" => DataType::I32,
            "BIGINT" => DataType::I64,
            "DOUBLE" | "FLOAT" => DataType::F64,
            "VARCHAR" | "TEXT" => {
                // optional (n)
                if self.eat_kind(&TokenKind::LParen) {
                    self.bump(); // length
                    self.expect_kind(&TokenKind::RParen, ")")?;
                }
                DataType::Str
            }
            "BOOLEAN" => DataType::Bool,
            "DATE" => DataType::Date,
            "DECIMAL" => {
                // DECIMAL(p, s) maps onto DOUBLE in this engine; storage
                // packs blocks of exact decimals as scaled integers.
                if self.eat_kind(&TokenKind::LParen) {
                    self.bump();
                    if self.eat_kind(&TokenKind::Comma) {
                        self.bump();
                    }
                    self.expect_kind(&TokenKind::RParen, ")")?;
                }
                DataType::F64
            }
            _ => return Err(self.err("unknown type")),
        };
        Ok(ty)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_kind(&TokenKind::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, ")")?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(&TokenKind::LParen, "(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr(0)?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, ")")?;
            rows.push(row);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_kind(&TokenKind::Eq, "=")?;
            assignments.push((col, self.expr(0)?));
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr(0)?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            predicate,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr(0)?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    // ---------------------------------------------------------------- SELECT

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            if self.eat_kind(&TokenKind::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr(0)?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else if let TokenKind::Ident(_) = self.peek() {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr(0)?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr(0)?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr(0)?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.expr(0)?;
                let (asc, nulls_first) = self.order_direction()?;
                order_by.push(OrderItem {
                    expr: e,
                    asc,
                    nulls_first,
                });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => limit = Some(n as u64),
                _ => return Err(self.err("expected LIMIT count")),
            }
        }
        if self.eat_kw("OFFSET") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => offset = Some(n as u64),
                _ => return Err(self.err("expected OFFSET count")),
            }
        }
        Ok(SelectStmt {
            distinct,
            items,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = self.opt_alias()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw("JOIN") || {
                if self.is_kw("INNER") {
                    self.bump();
                    self.expect_kw("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                AstJoinKind::Inner
            } else if self.is_kw("LEFT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                AstJoinKind::Left
            } else {
                break;
            };
            let t = self.ident()?;
            let a = self.opt_alias()?;
            self.expect_kw("ON")?;
            let on = self.expr(0)?;
            joins.push(Join {
                kind,
                table: t,
                alias: a,
                on,
            });
        }
        Ok(TableRef { name, alias, joins })
    }

    fn opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if let TokenKind::Ident(_) = self.peek() {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    // ----------------------------------------------------------- expressions

    /// Pratt parser. Binding powers (higher binds tighter):
    /// OR=1, AND=2, NOT=3, comparisons/IS/IN/LIKE/BETWEEN=4, +/-=5, */÷=6,
    /// unary minus=7.
    fn expr(&mut self, min_bp: u8) -> Result<AstExpr> {
        let mut lhs = self.prefix()?;
        loop {
            let (op_bp, op): (u8, Option<AstBinOp>) = match self.peek() {
                TokenKind::Keyword(k) if k == "OR" => (1, Some(AstBinOp::Or)),
                TokenKind::Keyword(k) if k == "AND" => (2, Some(AstBinOp::And)),
                TokenKind::Eq => (4, Some(AstBinOp::Eq)),
                TokenKind::NotEq => (4, Some(AstBinOp::Ne)),
                TokenKind::Lt => (4, Some(AstBinOp::Lt)),
                TokenKind::LtEq => (4, Some(AstBinOp::Le)),
                TokenKind::Gt => (4, Some(AstBinOp::Gt)),
                TokenKind::GtEq => (4, Some(AstBinOp::Ge)),
                TokenKind::Plus => (5, Some(AstBinOp::Add)),
                TokenKind::Minus => (5, Some(AstBinOp::Sub)),
                TokenKind::Star => (6, Some(AstBinOp::Mul)),
                TokenKind::Slash => (6, Some(AstBinOp::Div)),
                TokenKind::Keyword(k)
                    if (k == "IS" || k == "IN" || k == "LIKE" || k == "BETWEEN" || k == "NOT")
                        && min_bp <= 4 =>
                {
                    lhs = self.postfix_predicate(lhs)?;
                    continue;
                }
                _ => (0, None),
            };
            let Some(op) = op else { break };
            if op_bp < min_bp {
                break;
            }
            // special case: `expr + INTERVAL 'n' MONTH`
            if matches!(op, AstBinOp::Add | AstBinOp::Sub)
                && matches!(self.peek2(), TokenKind::Keyword(k) if k == "INTERVAL")
            {
                let negate = op == AstBinOp::Sub;
                self.bump(); // +/-
                let months = self.interval_months()?;
                lhs = AstExpr::AddMonths {
                    e: Box::new(lhs),
                    months: if negate { -months } else { months },
                };
                continue;
            }
            self.bump();
            let rhs = self.expr(op_bp + 1)?;
            lhs = AstExpr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    /// IS [NOT] NULL / [NOT] IN / [NOT] LIKE / [NOT] BETWEEN postfixes.
    fn postfix_predicate(&mut self, lhs: AstExpr) -> Result<AstExpr> {
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(AstExpr::IsNull {
                e: Box::new(lhs),
                negated,
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_kind(&TokenKind::LParen, "(")?;
            if self.is_kw("SELECT") {
                let q = self.select()?;
                self.expect_kind(&TokenKind::RParen, ")")?;
                return Ok(AstExpr::InSubquery {
                    e: Box::new(lhs),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr(0)?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, ")")?;
            return Ok(AstExpr::InList {
                e: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.bump() {
                TokenKind::Str(s) => s,
                _ => return Err(self.err("expected LIKE pattern string")),
            };
            return Ok(AstExpr::Like {
                e: Box::new(lhs),
                pattern,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.expr(5)?;
            self.expect_kw("AND")?;
            let hi = self.expr(5)?;
            return Ok(AstExpr::Between {
                e: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected IN, LIKE or BETWEEN after NOT"));
        }
        Err(self.err("expected predicate"))
    }

    fn interval_months(&mut self) -> Result<i32> {
        self.expect_kw("INTERVAL")?;
        let n: i64 = match self.bump() {
            TokenKind::Str(s) => s
                .trim()
                .parse()
                .map_err(|_| self.err("bad INTERVAL quantity"))?,
            TokenKind::Int(n) => n,
            _ => return Err(self.err("expected INTERVAL quantity")),
        };
        if self.eat_kw("MONTH") {
            Ok(n as i32)
        } else if self.eat_kw("YEAR") {
            Ok((n * 12) as i32)
        } else {
            Err(self.err("expected MONTH or YEAR"))
        }
    }

    fn prefix(&mut self) -> Result<AstExpr> {
        match self.bump() {
            TokenKind::Int(n) => Ok(AstExpr::Literal(Value::I64(n))),
            TokenKind::Float(f) => Ok(AstExpr::Literal(Value::F64(f))),
            TokenKind::Str(s) => Ok(AstExpr::Literal(Value::Str(s))),
            TokenKind::Minus => {
                let e = self.expr(7)?;
                // fold literal negation for nicer plans
                Ok(match e {
                    AstExpr::Literal(Value::I64(n)) => AstExpr::Literal(Value::I64(-n)),
                    AstExpr::Literal(Value::F64(f)) => AstExpr::Literal(Value::F64(-f)),
                    other => AstExpr::Neg(Box::new(other)),
                })
            }
            TokenKind::LParen => {
                let e = self.expr(0)?;
                self.expect_kind(&TokenKind::RParen, ")")?;
                Ok(e)
            }
            TokenKind::Keyword(k) => self.keyword_prefix(&k),
            TokenKind::Ident(name) => {
                if self.eat_kind(&TokenKind::Dot) {
                    let col = self.ident()?;
                    Ok(AstExpr::Column(Some(name), col))
                } else {
                    Ok(AstExpr::Column(None, name))
                }
            }
            _ => {
                self.pos -= 1;
                Err(self.err("expected expression"))
            }
        }
    }

    fn keyword_prefix(&mut self, kw: &str) -> Result<AstExpr> {
        match kw {
            "NULL" => Ok(AstExpr::Literal(Value::Null)),
            "TRUE" => Ok(AstExpr::Literal(Value::Bool(true))),
            "FALSE" => Ok(AstExpr::Literal(Value::Bool(false))),
            "NOT" => Ok(AstExpr::Not(Box::new(self.expr(3)?))),
            "DATE" => {
                // DATE 'yyyy-mm-dd'
                match self.bump() {
                    TokenKind::Str(s) => {
                        let d = parse_date(&s).ok_or_else(|| self.err("invalid date literal"))?;
                        Ok(AstExpr::Literal(Value::Date(d)))
                    }
                    _ => Err(self.err("expected date string")),
                }
            }
            "INTERVAL" => Err(self.err("INTERVAL is only valid after + or -")),
            "CAST" => {
                self.expect_kind(&TokenKind::LParen, "(")?;
                let e = self.expr(0)?;
                self.expect_kw("AS")?;
                let ty = self.data_type()?;
                self.expect_kind(&TokenKind::RParen, ")")?;
                Ok(AstExpr::Cast { e: Box::new(e), ty })
            }
            "CASE" => {
                let mut whens = Vec::new();
                while self.eat_kw("WHEN") {
                    let c = self.expr(0)?;
                    self.expect_kw("THEN")?;
                    let t = self.expr(0)?;
                    whens.push((c, t));
                }
                let otherwise = if self.eat_kw("ELSE") {
                    Some(Box::new(self.expr(0)?))
                } else {
                    None
                };
                self.expect_kw("END")?;
                if whens.is_empty() {
                    return Err(self.err("CASE needs at least one WHEN"));
                }
                Ok(AstExpr::Case { whens, otherwise })
            }
            "SUBSTRING" => {
                self.expect_kind(&TokenKind::LParen, "(")?;
                let e = self.expr(0)?;
                // SUBSTRING(e FROM a FOR b) or SUBSTRING(e, a, b)
                let (start, len) = if self.eat_kw("FROM") {
                    let s = self.int_literal()?;
                    self.expect_kw("FOR")?;
                    let l = self.int_literal()?;
                    (s, l)
                } else {
                    self.expect_kind(&TokenKind::Comma, ",")?;
                    let s = self.int_literal()?;
                    self.expect_kind(&TokenKind::Comma, ",")?;
                    let l = self.int_literal()?;
                    (s, l)
                };
                self.expect_kind(&TokenKind::RParen, ")")?;
                Ok(AstExpr::Substring {
                    e: Box::new(e),
                    start: start as u32,
                    len: len as u32,
                })
            }
            "EXTRACT" => {
                self.expect_kind(&TokenKind::LParen, "(")?;
                let part = if self.eat_kw("YEAR") {
                    ExtractPart::Year
                } else if self.eat_kw("MONTH") {
                    ExtractPart::Month
                } else {
                    return Err(self.err("expected YEAR or MONTH"));
                };
                self.expect_kw("FROM")?;
                let e = self.expr(0)?;
                self.expect_kind(&TokenKind::RParen, ")")?;
                Ok(AstExpr::Extract {
                    part,
                    e: Box::new(e),
                })
            }
            "COUNT" | "SUM" | "MIN" | "MAX" | "AVG" => {
                let func = match kw {
                    "COUNT" => AstAggFunc::Count,
                    "SUM" => AstAggFunc::Sum,
                    "MIN" => AstAggFunc::Min,
                    "MAX" => AstAggFunc::Max,
                    _ => AstAggFunc::Avg,
                };
                self.expect_kind(&TokenKind::LParen, "(")?;
                let arg = if self.eat_kind(&TokenKind::Star) {
                    if func != AstAggFunc::Count {
                        return Err(self.err("only COUNT accepts *"));
                    }
                    None
                } else {
                    Some(Box::new(self.expr(0)?))
                };
                self.expect_kind(&TokenKind::RParen, ")")?;
                Ok(AstExpr::Agg { func, arg })
            }
            other => Err(self.err(&format!("unexpected keyword {}", other))),
        }
    }

    fn int_literal(&mut self) -> Result<i64> {
        match self.bump() {
            TokenKind::Int(n) => Ok(n),
            _ => Err(self.err("expected integer literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {:?}", other),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b AS bee FROM t WHERE a < 5 ORDER BY bee DESC LIMIT 10 OFFSET 2");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.from[0].name, "t");
        assert!(s.selection.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].asc);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(2));
    }

    #[test]
    fn wildcard_and_distinct() {
        let s = sel("SELECT DISTINCT * FROM t");
        assert!(s.distinct);
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn implicit_alias() {
        let s = sel("SELECT a total FROM t");
        match &s.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("total")),
            _ => panic!(),
        }
    }

    #[test]
    fn explicit_joins() {
        let s = sel(
            "SELECT * FROM orders o JOIN customer c ON o.custkey = c.custkey \
             LEFT JOIN nation n ON c.nationkey = n.nationkey",
        );
        assert_eq!(s.from.len(), 1);
        let t = &s.from[0];
        assert_eq!(t.alias.as_deref(), Some("o"));
        assert_eq!(t.joins.len(), 2);
        assert_eq!(t.joins[0].kind, AstJoinKind::Inner);
        assert_eq!(t.joins[1].kind, AstJoinKind::Left);
    }

    #[test]
    fn comma_joins() {
        let s = sel("SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y");
        assert_eq!(s.from.len(), 3);
    }

    #[test]
    fn operator_precedence() {
        // a + b * c < 10 AND x OR y  →  ((a + (b*c)) < 10 AND x) OR y
        let s = sel("SELECT 1 FROM t WHERE a + b * c < 10 AND x OR y");
        let e = s.selection.unwrap();
        match e {
            AstExpr::Binary {
                op: AstBinOp::Or,
                l,
                ..
            } => match *l {
                AstExpr::Binary {
                    op: AstBinOp::And,
                    l,
                    ..
                } => match *l {
                    AstExpr::Binary {
                        op: AstBinOp::Lt,
                        l,
                        ..
                    } => match *l {
                        AstExpr::Binary {
                            op: AstBinOp::Add,
                            r,
                            ..
                        } => {
                            assert!(matches!(
                                *r,
                                AstExpr::Binary {
                                    op: AstBinOp::Mul,
                                    ..
                                }
                            ));
                        }
                        other => panic!("{:?}", other),
                    },
                    other => panic!("{:?}", other),
                },
                other => panic!("{:?}", other),
            },
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn predicates() {
        let s = sel("SELECT 1 FROM t WHERE a BETWEEN 1 AND 5 AND b IS NOT NULL \
             AND c LIKE '%x%' AND d NOT IN (1, 2) AND e IN ('a', 'b')");
        let text = format!("{:?}", s.selection.unwrap());
        assert!(text.contains("Between"));
        assert!(text.contains("IsNull"));
        assert!(text.contains("Like"));
        assert!(text.contains("InList"));
        assert!(text.contains("negated: true"));
    }

    #[test]
    fn in_subquery() {
        let s = sel("SELECT 1 FROM t WHERE k IN (SELECT k FROM u WHERE z > 3)");
        match s.selection.unwrap() {
            AstExpr::InSubquery { negated, query, .. } => {
                assert!(!negated);
                assert_eq!(query.from[0].name, "u");
            }
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn date_and_interval() {
        let s = sel(
            "SELECT 1 FROM t WHERE d >= DATE '1995-01-01' AND d < DATE '1995-01-01' + INTERVAL '3' MONTH",
        );
        let text = format!("{:?}", s.selection.unwrap());
        assert!(text.contains("AddMonths"));
        assert!(text.contains("months: 3"));
        let s2 = sel("SELECT 1 FROM t WHERE d < DATE '1995-01-01' + INTERVAL '1' YEAR");
        assert!(format!("{:?}", s2.selection.unwrap()).contains("months: 12"));
    }

    #[test]
    fn aggregates_and_group() {
        let s = sel("SELECT flag, COUNT(*), SUM(qty * price) AS rev FROM li \
             GROUP BY flag HAVING COUNT(*) > 10 ORDER BY 2");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        match &s.items[1] {
            SelectItem::Expr { expr, .. } => assert!(expr.contains_aggregate()),
            _ => panic!(),
        }
    }

    #[test]
    fn case_cast_substring_extract() {
        let s = sel("SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END, \
             CAST(a AS DOUBLE), SUBSTRING(name FROM 1 FOR 2), \
             EXTRACT(YEAR FROM d) FROM t");
        assert_eq!(s.items.len(), 4);
    }

    #[test]
    fn dml_statements() {
        match parse_statement("CREATE TABLE t (a BIGINT NOT NULL, b VARCHAR(20), c DATE)").unwrap()
        {
            Statement::CreateTable {
                name,
                columns,
                order_by,
                partition_by,
            } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert!(!columns[0].nullable);
                assert!(columns[1].nullable);
                assert_eq!(columns[2].ty, DataType::Date);
                assert!(order_by.is_empty());
                assert!(partition_by.is_none());
            }
            _ => panic!(),
        }
        match parse_statement(
            "CREATE TABLE li (k BIGINT, d DATE, v DOUBLE) \
             ORDER BY (k, d DESC NULLS LAST) PARTITION BY RANGE(k) PARTITIONS 4",
        )
        .unwrap()
        {
            Statement::CreateTable {
                order_by,
                partition_by,
                ..
            } => {
                assert_eq!(order_by.len(), 2);
                assert_eq!(order_by[0].expr, AstExpr::Column(None, "k".into()));
                assert!(order_by[0].asc);
                assert_eq!(order_by[0].nulls_first, None);
                assert!(!order_by[1].asc);
                assert_eq!(order_by[1].nulls_first, Some(false));
                let p = partition_by.unwrap();
                assert_eq!(p.column, "k");
                assert_eq!(p.partitions, 4);
            }
            _ => panic!(),
        }
        assert!(
            parse_statement("CREATE TABLE bad (k BIGINT) PARTITION BY RANGE(k) PARTITIONS 0")
                .is_err()
        );
        match parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)").unwrap() {
            Statement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns, vec!["a", "b"]);
            }
            _ => panic!(),
        }
        match parse_statement("UPDATE t SET b = 'y', a = a + 1 WHERE a = 1").unwrap() {
            Statement::Update {
                assignments,
                predicate,
                ..
            } => {
                assert_eq!(assignments.len(), 2);
                assert!(predicate.is_some());
            }
            _ => panic!(),
        }
        match parse_statement("DELETE FROM t WHERE a > 5").unwrap() {
            Statement::Delete { predicate, .. } => assert!(predicate.is_some()),
            _ => panic!(),
        }
        assert!(matches!(
            parse_statement("EXPLAIN SELECT 1 FROM t").unwrap(),
            Statement::Explain(_)
        ));
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE SELECT 1 FROM t").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
    }

    #[test]
    fn negative_numbers_fold() {
        let s = sel("SELECT -5, -2.5 FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr, &AstExpr::Literal(Value::I64(-5)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT 1 FROM t WHERE").is_err());
        assert!(parse_statement("FOO BAR").is_err());
        assert!(parse_statement("SELECT 1 FROM t LIMIT x").is_err());
        assert!(parse_statement("SELECT 1 extra FROM t ORDER").is_err());
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
        assert!(parse_statement("SELECT 1; SELECT 2").is_err()); // one stmt only
    }

    #[test]
    fn semicolon_optional() {
        assert!(parse_statement("SELECT 1 FROM t;").is_ok());
        assert!(parse_statement("SELECT 1 FROM t").is_ok());
    }

    #[test]
    fn set_statement_forms() {
        assert_eq!(
            parse_statement("SET memory_budget = '16MiB'").unwrap(),
            Statement::Set {
                name: "memory_budget".into(),
                value: AstExpr::Literal(Value::Str("16MiB".into())),
                scope: SetScope::Default,
            }
        );
        assert_eq!(
            parse_statement("SET parallelism = 4").unwrap(),
            Statement::Set {
                name: "parallelism".into(),
                value: AstExpr::Literal(Value::I64(4)),
                scope: SetScope::Default,
            }
        );
        // bare words — identifiers and keywords alike — become strings
        assert_eq!(
            parse_statement("SET memory_budget = unbounded").unwrap(),
            Statement::Set {
                name: "memory_budget".into(),
                value: AstExpr::Literal(Value::Str("unbounded".into())),
                scope: SetScope::Default,
            }
        );
        assert_eq!(
            parse_statement("SET profiling = on").unwrap(),
            Statement::Set {
                name: "profiling".into(),
                value: AstExpr::Literal(Value::Str("on".into())),
                scope: SetScope::Default,
            }
        );
        assert!(parse_statement("SET = 3").is_err());
        assert!(parse_statement("SET x 3").is_err());
    }

    #[test]
    fn set_statement_scopes() {
        assert_eq!(
            parse_statement("SET GLOBAL parallelism = 4").unwrap(),
            Statement::Set {
                name: "parallelism".into(),
                value: AstExpr::Literal(Value::I64(4)),
                scope: SetScope::Global,
            }
        );
        assert_eq!(
            parse_statement("SET local vector_size = 512").unwrap(),
            Statement::Set {
                name: "vector_size".into(),
                value: AstExpr::Literal(Value::I64(512)),
                scope: SetScope::Local,
            }
        );
        // "global"/"local" stay usable as plain option names.
        assert_eq!(
            parse_statement("SET global = 1").unwrap(),
            Statement::Set {
                name: "global".into(),
                value: AstExpr::Literal(Value::I64(1)),
                scope: SetScope::Default,
            }
        );
        assert!(parse_statement("SET GLOBAL LOCAL x = 1").is_err());
        assert!(parse_statement("SET sideways parallelism = 4").is_err());
    }
}
