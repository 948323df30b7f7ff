//! SQL-subset front end: lexer and recursive-descent parser.
//!
//! The grammar covers what the AIQL → SQL translation (and a generic analyst)
//! needs: `SELECT [DISTINCT] items FROM t a (JOIN t b ON expr | , t b)*
//! [WHERE expr] [GROUP BY cols] [HAVING expr] [ORDER BY cols [ASC|DESC]]
//! [LIMIT n]`, with comparisons, `LIKE`, `IN`, `IS NULL`, `AND`/`OR`/`NOT`,
//! and the aggregates `COUNT` (incl. `COUNT(DISTINCT c)` and `COUNT(*)`),
//! `SUM`, `AVG`, `MIN`, `MAX`.

use crate::BaselineError;
use aiql_model::Value;
use aiql_rdb::CmpOp;

/// An unresolved column reference `alias.column` or bare `column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// An unresolved SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Col(ColRef),
    Lit(Value),
    Cmp(CmpOp, Box<SqlExpr>, Box<SqlExpr>),
    Like(Box<SqlExpr>, String, bool),
    In(Box<SqlExpr>, Vec<Value>, bool),
    IsNull(Box<SqlExpr>, bool),
    And(Vec<SqlExpr>),
    Or(Vec<SqlExpr>),
    Not(Box<SqlExpr>),
    /// Aggregate call; `None` column means `COUNT(*)`.
    Agg(AggFunc, Option<ColRef>, bool),
    /// Numeric addition.
    Add(Box<SqlExpr>, Box<SqlExpr>),
    /// Numeric subtraction.
    Sub(Box<SqlExpr>, Box<SqlExpr>),
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: SqlExpr,
    pub alias: Option<String>,
}

/// One table in the FROM clause. `on` is `None` for the first table and for
/// comma-joined (cross product) tables.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: String,
    pub on: Option<SqlExpr>,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub star: bool,
    pub from: Vec<TableRef>,
    pub where_: Option<SqlExpr>,
    pub group_by: Vec<ColRef>,
    pub having: Option<SqlExpr>,
    pub order_by: Vec<(ColRef, bool)>,
    pub limit: Option<usize>,
}

/// Parses one SELECT statement (an optional trailing `;` is allowed).
pub fn parse_select(input: &str) -> Result<SelectStmt, BaselineError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.select()?;
    p.eat_opt(&Tok::Semi);
    if !p.at_end() {
        return Err(BaselineError::Parse(format!(
            "trailing input at token {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Cmp(CmpOp),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Semi,
    Plus,
    Minus,
}

fn lex(input: &str) -> Result<Vec<Tok>, BaselineError> {
    let mut out = Vec::new();
    let b: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            ';' => {
                out.push(Tok::Semi);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' if !b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) => {
                out.push(Tok::Minus);
                i += 1;
            }
            '=' => {
                out.push(Tok::Cmp(CmpOp::Eq));
                i += 1;
            }
            '!' if b.get(i + 1) == Some(&'=') => {
                out.push(Tok::Cmp(CmpOp::Ne));
                i += 2;
            }
            '<' => {
                if b.get(i + 1) == Some(&'>') {
                    out.push(Tok::Cmp(CmpOp::Ne));
                    i += 2;
                } else if b.get(i + 1) == Some(&'=') {
                    out.push(Tok::Cmp(CmpOp::Le));
                    i += 2;
                } else {
                    out.push(Tok::Cmp(CmpOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&'=') {
                    out.push(Tok::Cmp(CmpOp::Ge));
                    i += 2;
                } else {
                    out.push(Tok::Cmp(CmpOp::Gt));
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match b.get(i) {
                        Some('\'') if b.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                        None => return Err(BaselineError::Parse("unterminated string".into())),
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '-' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
            {
                let start = i;
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == '.') {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                if text.contains('.') {
                    out.push(Tok::Float(text.parse().map_err(|_| {
                        BaselineError::Parse(format!("bad number: {text}"))
                    })?));
                } else {
                    out.push(Tok::Int(text.parse().map_err(|_| {
                        BaselineError::Parse(format!("bad number: {text}"))
                    })?));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.push(Tok::Ident(b[start..i].iter().collect()));
            }
            other => {
                return Err(BaselineError::Parse(format!(
                    "unexpected character: {other}"
                )))
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_opt(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), BaselineError> {
        if self.eat_opt(t) {
            Ok(())
        } else {
            Err(BaselineError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Consumes a keyword (case-insensitive identifier) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), BaselineError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(BaselineError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, BaselineError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(BaselineError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, BaselineError> {
        self.expect_kw("select")?;
        let mut stmt = SelectStmt {
            distinct: self.eat_kw("distinct"),
            ..SelectStmt::default()
        };
        if self.eat_opt(&Tok::Star) {
            stmt.star = true;
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat_kw("as") {
                    Some(self.ident()?)
                } else {
                    None
                };
                stmt.items.push(SelectItem { expr, alias });
                if !self.eat_opt(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("from")?;
        stmt.from.push(self.table_ref(None)?);
        loop {
            if self.eat_opt(&Tok::Comma) {
                stmt.from.push(self.table_ref(None)?);
            } else if self.eat_kw("inner") {
                self.expect_kw("join")?;
                let r = self.joined_ref()?;
                stmt.from.push(r);
            } else if self.eat_kw("join") {
                let r = self.joined_ref()?;
                stmt.from.push(r);
            } else if self.eat_kw("cross") {
                self.expect_kw("join")?;
                stmt.from.push(self.table_ref(None)?);
            } else {
                break;
            }
        }
        if self.eat_kw("where") {
            stmt.where_ = Some(self.expr()?);
        }
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                stmt.group_by.push(self.col_ref()?);
                if !self.eat_opt(&Tok::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("having") {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let c = self.col_ref()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                stmt.order_by.push((c, asc));
                if !self.eat_opt(&Tok::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("limit") {
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => stmt.limit = Some(n as usize),
                other => {
                    return Err(BaselineError::Parse(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        }
        Ok(stmt)
    }

    fn joined_ref(&mut self) -> Result<TableRef, BaselineError> {
        let mut r = self.table_ref(None)?;
        self.expect_kw("on")?;
        r.on = Some(self.expr()?);
        Ok(r)
    }

    fn table_ref(&mut self, _on: Option<SqlExpr>) -> Result<TableRef, BaselineError> {
        let table = self.ident()?;
        let alias = if self.eat_kw("as") {
            self.ident()?
        } else if let Some(Tok::Ident(s)) = self.peek() {
            // A bare identifier that is not a clause keyword is an alias.
            const CLAUSES: [&str; 11] = [
                "where", "group", "having", "order", "limit", "join", "inner", "on", "cross",
                "select", "from",
            ];
            if CLAUSES.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                table.clone()
            } else {
                self.ident()?
            }
        } else {
            table.clone()
        };
        Ok(TableRef {
            table,
            alias,
            on: None,
        })
    }

    fn col_ref(&mut self) -> Result<ColRef, BaselineError> {
        let first = self.ident()?;
        if self.eat_opt(&Tok::Dot) {
            Ok(ColRef {
                table: Some(first),
                column: self.ident()?,
            })
        } else {
            Ok(ColRef {
                table: None,
                column: first,
            })
        }
    }

    fn expr(&mut self) -> Result<SqlExpr, BaselineError> {
        let mut terms = vec![self.and_expr()?];
        while self.eat_kw("or") {
            terms.push(self.and_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("len checked")
        } else {
            SqlExpr::Or(terms)
        })
    }

    fn and_expr(&mut self) -> Result<SqlExpr, BaselineError> {
        let mut terms = vec![self.not_expr()?];
        while self.eat_kw("and") {
            terms.push(self.not_expr()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().expect("len checked")
        } else {
            SqlExpr::And(terms)
        })
    }

    fn not_expr(&mut self) -> Result<SqlExpr, BaselineError> {
        if self.eat_kw("not") {
            Ok(SqlExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<SqlExpr, BaselineError> {
        let lhs = self.additive()?;
        if let Some(Tok::Cmp(op)) = self.peek() {
            let op = *op;
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(SqlExpr::Cmp(op, Box::new(lhs), Box::new(rhs)));
        }
        let negated = {
            let save = self.pos;
            if self.eat_kw("not") {
                if self.peek_kw("like") || self.peek_kw("in") {
                    true
                } else {
                    self.pos = save;
                    return Ok(lhs);
                }
            } else {
                false
            }
        };
        if self.eat_kw("like") {
            match self.next() {
                Some(Tok::Str(p)) => return Ok(SqlExpr::Like(Box::new(lhs), p, negated)),
                other => {
                    return Err(BaselineError::Parse(format!(
                        "expected pattern string after LIKE, found {other:?}"
                    )))
                }
            }
        }
        if self.eat_kw("in") {
            self.expect(&Tok::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal()?);
                if !self.eat_opt(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            return Ok(SqlExpr::In(Box::new(lhs), list, negated));
        }
        if self.eat_kw("is") {
            let neg = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(SqlExpr::IsNull(Box::new(lhs), neg));
        }
        Ok(lhs)
    }

    fn literal(&mut self) -> Result<Value, BaselineError> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(Value::str(s)),
            Some(Tok::Int(i)) => Ok(Value::Int(i)),
            Some(Tok::Float(f)) => Ok(Value::Float(f)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            other => Err(BaselineError::Parse(format!(
                "expected literal, found {other:?}"
            ))),
        }
    }

    fn additive(&mut self) -> Result<SqlExpr, BaselineError> {
        let mut e = self.operand()?;
        loop {
            if self.eat_opt(&Tok::Plus) {
                e = SqlExpr::Add(Box::new(e), Box::new(self.operand()?));
            } else if self.eat_opt(&Tok::Minus) {
                e = SqlExpr::Sub(Box::new(e), Box::new(self.operand()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn operand(&mut self) -> Result<SqlExpr, BaselineError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Str(_)) | Some(Tok::Int(_)) | Some(Tok::Float(_)) => {
                Ok(SqlExpr::Lit(self.literal()?))
            }
            Some(Tok::Ident(id)) => {
                let agg = match id.to_ascii_lowercase().as_str() {
                    "count" => Some(AggFunc::Count),
                    "sum" => Some(AggFunc::Sum),
                    "avg" => Some(AggFunc::Avg),
                    "min" => Some(AggFunc::Min),
                    "max" => Some(AggFunc::Max),
                    _ => None,
                };
                if let Some(func) = agg {
                    if self.tokens.get(self.pos + 1) == Some(&Tok::LParen) {
                        self.pos += 2; // Consume name and '('.
                        if func == AggFunc::Count && self.eat_opt(&Tok::Star) {
                            self.expect(&Tok::RParen)?;
                            return Ok(SqlExpr::Agg(AggFunc::Count, None, false));
                        }
                        let distinct = self.eat_kw("distinct");
                        let col = self.col_ref()?;
                        self.expect(&Tok::RParen)?;
                        return Ok(SqlExpr::Agg(func, Some(col), distinct));
                    }
                }
                if id.eq_ignore_ascii_case("null")
                    || id.eq_ignore_ascii_case("true")
                    || id.eq_ignore_ascii_case("false")
                {
                    return Ok(SqlExpr::Lit(self.literal()?));
                }
                Ok(SqlExpr::Col(self.col_ref()?))
            }
            other => Err(BaselineError::Parse(format!(
                "expected operand, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lex_basics() {
        let toks = lex("SELECT a.b, 'it''s' <= 3.5 <> != ;").unwrap();
        assert!(toks.contains(&Tok::Str("it's".into())));
        assert!(toks.contains(&Tok::Cmp(CmpOp::Le)));
        assert!(toks.contains(&Tok::Float(3.5)));
        assert_eq!(
            toks.iter().filter(|t| **t == Tok::Cmp(CmpOp::Ne)).count(),
            2
        );
        assert!(lex("'unterminated").is_err());
        assert!(lex("a @ b").is_err());
    }

    #[test]
    fn parse_simple_select() {
        let s = parse_select("SELECT u.id FROM users u WHERE u.name = 'bob'").unwrap();
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.from[0].alias, "u");
        assert_eq!(s.items.len(), 1);
        assert!(s.where_.is_some());
    }

    #[test]
    fn parse_joins_and_commas() {
        let s = parse_select(
            "SELECT e1.id FROM events e1 JOIN procs p1 ON e1.subject_id = p1.id, events e2 \
             WHERE e1.start_time < e2.start_time",
        )
        .unwrap();
        assert_eq!(s.from.len(), 3);
        assert!(s.from[1].on.is_some());
        assert!(s.from[2].on.is_none());
    }

    #[test]
    fn parse_group_having_order_limit() {
        let s = parse_select(
            "SELECT p.name, COUNT(DISTINCT e.object_id) AS freq FROM events e \
             JOIN procs p ON e.subject_id = p.id GROUP BY p.name HAVING freq > 2 \
             ORDER BY freq DESC, p.name ASC LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].1);
        assert!(s.order_by[1].1);
        assert_eq!(s.limit, Some(10));
        match &s.items[1].expr {
            SqlExpr::Agg(AggFunc::Count, Some(_), true) => {}
            other => panic!("expected count distinct, got {other:?}"),
        }
    }

    #[test]
    fn parse_like_in_null_not() {
        let s = parse_select(
            "SELECT * FROM t WHERE a LIKE '%x%' AND b NOT LIKE 'y' AND c IN (1, 2) \
             AND d NOT IN ('z') AND e IS NULL AND f IS NOT NULL AND NOT (g = 1 OR h = 2)",
        )
        .unwrap();
        assert!(s.star);
        let w = s.where_.unwrap();
        match w {
            SqlExpr::And(parts) => assert_eq!(parts.len(), 7),
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn parse_count_star_and_distinct_select() {
        let s = parse_select("SELECT DISTINCT COUNT(*) FROM t").unwrap();
        assert!(s.distinct);
        assert_eq!(s.items[0].expr, SqlExpr::Agg(AggFunc::Count, None, false));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_select("SELECT").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t extra garbage ~").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_select("UPDATE t SET a = 1").is_err());
    }

    #[test]
    fn parse_additive_operands() {
        let s = parse_select("SELECT a FROM t WHERE t.x >= t.y + 100 AND t.x - 5 < t.z").unwrap();
        let w = s.where_.unwrap();
        match w {
            SqlExpr::And(parts) => {
                assert!(
                    matches!(&parts[0], SqlExpr::Cmp(_, _, rhs) if matches!(rhs.as_ref(), SqlExpr::Add(_, _)))
                );
                assert!(
                    matches!(&parts[1], SqlExpr::Cmp(_, lhs, _) if matches!(lhs.as_ref(), SqlExpr::Sub(_, _)))
                );
            }
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn alias_forms() {
        let s = parse_select("SELECT t.a FROM tbl AS t WHERE t.a = 1").unwrap();
        assert_eq!(s.from[0].alias, "t");
        let s = parse_select("SELECT tbl.a FROM tbl WHERE tbl.a = 1").unwrap();
        assert_eq!(s.from[0].alias, "tbl");
        let s = parse_select("SELECT t.a FROM tbl t").unwrap();
        assert_eq!(s.from[0].alias, "t");
    }

    #[test]
    fn keyword_not_taken_as_alias() {
        let s = parse_select("SELECT a FROM t WHERE a = 1").unwrap();
        assert_eq!(s.from[0].alias, "t");
        assert!(s.where_.is_some());
    }

    /// The AIQL → SQL translation emits this dialect: Query 7's big join,
    /// an aggregate with HAVING/ORDER/LIMIT, and an escaped quote parse.
    #[test]
    fn translations_parse_in_this_dialect() {
        for src in [
            r#"
            (at "01/02/2017")
            agentid = 9
            proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
            proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
            proc p4["%sbblv.exe"] read file f1 as evt3
            proc p4 read || write ip i1[dstip = "10.10.1.129"] as evt4
            with evt1 before evt2, evt2 before evt3, evt3 before evt4
            return distinct p1, p2, p3, f1, p4, i1
            "#,
            "proc p read file f return p, count(f) as n group by p having n > 10 sort by n desc top 5",
            r#"proc p["%o'brien%"] read file f return p"#,
        ] {
            let sql = aiql_translate::sql::to_sql(&aiql_core::compile(src).unwrap()).unwrap();
            parse_select(&sql).expect("executable SQL");
        }
    }
}
