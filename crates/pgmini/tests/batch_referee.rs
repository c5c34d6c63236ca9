//! Generated referee for the batch kernels: the row-at-a-time interpreter
//! (`expr::eval`) is the reference, and `filter_batch` / `eval_batch` must
//! answer like it on every selection of a stripe.
//!
//! Each case draws a few rows over edge values (integers NULL, 0, -1,
//! `i64::MIN`, `i64::MAX`; floats NULL, NaN, ±0.0; timestamps; dictionary
//! text, one value of which parses as a timestamp; booleans), a selection of
//! them, and an expression as SQL text: arithmetic, comparisons, AND / OR /
//! NOT nested three deep, `[NOT] BETWEEN`, IN lists holding NULL or a failing
//! item, an IN list long enough to fold into a set, `IS [NOT] NULL`,
//! `[NOT] [I]LIKE`, both CASE forms, casts of columns and of bad literals,
//! and failing parts such as `1 / 0`. Then:
//!
//! * a batch call returns `Ok` exactly when every selected row evaluates
//!   without error;
//! * its selection (for a predicate) or its lanes (for a value) equal the
//!   interpreter's, compared as `{:?}` so that NaN equals itself;
//! * on an error, its code and message equal an error the interpreter raises
//!   on at least one selected row (which of several failing rows reports
//!   first may differ: see DESIGN.md's determinism argument).

use pgmini::batch::{eval_batch, filter_batch, supports_batch, ColumnBatch};
use pgmini::error::PgResult;
use pgmini::expr::{bind, eval, BExpr, EvalCtx, RowScope};
use pgmini::stripe::Stripe;
use pgmini::types::{splitmix64, Datum, Row};
use proptest::prelude::*;
use sqlparse::ast::TypeName;

const COLUMNS: [(&str, TypeName); 5] = [
    ("i", TypeName::Int),
    ("f", TypeName::Float),
    ("ts", TypeName::Timestamp),
    ("s", TypeName::Text),
    ("b", TypeName::Bool),
];

/// 2020-01-01 00:00:00 in microseconds since the Unix epoch.
const JAN_1_2020: i64 = 1_577_836_800_000_000;
const DAY: i64 = 86_400_000_000;

/// More members than `sqlparse::shape::FOLDED_IN_LIST`, so the binder folds
/// a constant list this long into a set.
const FOLDED_LEN: usize = 34;

/// Predicates that fail wherever they run.
const FAILING: [&str; 2] = ["(1 / 0 > 0)", "(CAST('x' AS bigint) = 1)"];

/// Row `cells`: each index picks one value of its column's edge set.
fn row(cells: (usize, usize, usize, usize, usize)) -> Row {
    let (i, f, ts, s, b) = cells;
    let ints =
        [Datum::Null, Datum::Int(0), Datum::Int(-1), Datum::Int(i64::MIN), Datum::Int(i64::MAX)];
    let floats = [Datum::Null, Datum::Float(f64::NAN), Datum::Float(0.0), Datum::Float(-0.0)];
    let times = [Datum::Null, Datum::Timestamp(JAN_1_2020), Datum::Timestamp(JAN_1_2020 + 3 * DAY)];
    let texts = [
        Datum::Null,
        Datum::from_text("MAIL"),
        Datum::from_text(""),
        Datum::from_text("2020-01-02"),
        Datum::from_text("héllo"),
    ];
    let bools = [Datum::Null, Datum::Bool(true), Datum::Bool(false)];
    vec![ints[i].clone(), floats[f].clone(), times[ts].clone(), texts[s].clone(), bools[b].clone()]
}

fn cells() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (0..5usize, 0..4usize, 0..3usize, 0..5usize, 0..3usize)
}

/// A deterministic source of choices for the expression generator.
struct Gen(u64);

impl Gen {
    fn pick(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }

    fn one<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.pick(items.len())]
    }

    /// A number-valued expression, `depth` levels at most.
    fn num(&mut self, depth: u32) -> String {
        if depth == 0 {
            return self
                .one(&["i", "f", "0", "1", "-1", "2", "0.5", "NULL", "9223372036854775807"])
                .to_string();
        }
        let d = depth - 1;
        match self.pick(12) {
            0..=3 => {
                let op = self.one(&["+", "-", "*", "/", "%"]);
                format!("({} {op} {})", self.num(d), self.num(d))
            }
            4 => format!("(- {})", self.num(d)),
            5 => "(-9223372036854775807 - 1)".to_string(),
            6 => self.one(&["(1 / 0)", "(i / 0)", "(f % 0)", "(i / -1)", "(i % -1)"]).to_string(),
            7 => {
                let ty = self.one(&["bigint", "float"]);
                let what = self.one(&["s", "f", "'x'", "'7'", "b"]);
                format!("CAST({what} AS {ty})")
            }
            8 => self.case(d, Gen::num),
            9 => format!("({} + 1)", self.one(&["i", "f"])),
            _ => self.num(0),
        }
    }

    /// A text-valued expression.
    fn text(&mut self, depth: u32) -> String {
        match self.pick(if depth == 0 { 2 } else { 5 }) {
            0 => "s".to_string(),
            1 => self.one(&["'MAIL'", "''", "'2020-01-02'", "NULL"]).to_string(),
            2 => format!("({} || 'x')", self.text(depth - 1)),
            3 => format!("CAST({} AS text)", self.one(&["i", "f", "ts", "b"])),
            _ => self.case(depth - 1, Gen::text),
        }
    }

    /// A timestamp-valued expression.
    fn time(&mut self, depth: u32) -> String {
        match self.pick(if depth == 0 { 2 } else { 4 }) {
            0 => "ts".to_string(),
            1 => "timestamp '2020-01-03'".to_string(),
            2 => format!("CAST({} AS timestamp)", self.one(&["s", "'nope'", "'2020-01-02'"])),
            _ => format!("(ts + {})", self.num(depth - 1)),
        }
    }

    /// A value of any type.
    fn any(&mut self, depth: u32) -> String {
        match self.pick(4) {
            0 => self.num(depth),
            1 => self.text(depth),
            2 => self.time(depth),
            _ => self.pred(depth),
        }
    }

    /// Both CASE forms over `branch`-generated results.
    fn case(&mut self, depth: u32, branch: fn(&mut Gen, u32) -> String) -> String {
        let mut out = String::from("CASE");
        let operand = self.pick(2) == 0;
        if operand {
            out += &format!(" {}", self.num(depth));
        }
        for _ in 0..1 + self.pick(2) {
            let when = if operand { self.num(depth) } else { self.pred(depth) };
            out += &format!(" WHEN {when} THEN {}", branch(self, depth));
        }
        if self.pick(2) == 0 {
            out += &format!(" ELSE {}", branch(self, depth));
        }
        out + " END"
    }

    /// A boolean-valued expression, `depth` levels at most.
    fn pred(&mut self, depth: u32) -> String {
        if depth == 0 {
            return match self.pick(5) {
                0 => "b".to_string(),
                1 => self.one(&["true", "false", "NULL"]).to_string(),
                2 => self.one(&FAILING).to_string(),
                3 => format!("(i {} {})", self.one(&["=", "<", ">="]), self.num(0)),
                _ => format!("(f {} {})", self.one(&["<>", "<=", ">"]), self.num(0)),
            };
        }
        let d = depth - 1;
        let not = if self.pick(2) == 0 { "" } else { "NOT " };
        let cmp = self.one(&["=", "<>", "<", "<=", ">", ">="]);
        let op = self.one(&["AND", "OR"]);
        match self.pick(17) {
            0..=3 => format!("({} {op} {})", self.pred(d), self.pred(d)),
            // a failing constant behind a short circuit that reads the row,
            // itself behind one
            4 | 16 => {
                let inner = self.one(&["AND", "OR"]);
                let guarded = format!("({} {inner} {})", self.pred(d / 2), self.one(&FAILING));
                format!("({} {op} {guarded})", self.pred(d))
            }
            5 => format!("(NOT {})", self.pred(d)),
            6 => format!("({} {cmp} {})", self.num(d), self.num(d)),
            7 => match self.pick(3) {
                0 => format!("({} {cmp} {})", self.time(d), self.time(d)),
                1 => format!("({} {cmp} {})", self.text(d), self.text(d)),
                _ => format!("(ts {cmp} {})", self.text(d)),
            },
            8 => format!("({} {not}BETWEEN {} AND {})", self.num(d), self.num(d), self.num(d)),
            9 => {
                // items that fail on some rows or on all, behind items that
                // match some rows first
                let items: Vec<String> = (0..1 + self.pick(4))
                    .map(|_| match self.pick(3) {
                        0 => self
                            .one(&[
                                "NULL",
                                "(1 / 0)",
                                "CAST('x' AS bigint)",
                                "(1 / i)",
                                "CAST(s AS bigint)",
                            ])
                            .to_string(),
                        1 => self.one(&["i", "0", "-1"]).to_string(),
                        _ => self.num(d),
                    })
                    .collect();
                let probe = if self.pick(2) == 0 { "i".to_string() } else { self.num(d) };
                format!("({probe} {not}IN ({}))", items.join(", "))
            }
            10 => {
                let items: Vec<String> = (0..1 + self.pick(3))
                    .map(|_| self.one(&["'MAIL'", "''", "NULL", "s", "'2020-01-02'"]).to_string())
                    .collect();
                format!("({} {not}IN ({}))", self.text(d), items.join(", "))
            }
            11 => {
                let mut items: Vec<String> =
                    (0..FOLDED_LEN as i64).map(|k| (k * 3 - 4).to_string()).collect();
                items.push(self.one(&["NULL", "9223372036854775807", "-1"]).to_string());
                let probe = self.one(&["i", "f", "(i + 1)", "s"]);
                format!("({probe} {not}IN ({}))", items.join(", "))
            }
            12 => format!("({} IS {not}NULL)", self.any(d)),
            13 => {
                let like = self.one(&["LIKE", "ILIKE"]);
                let pattern =
                    self.one(&["'M%'", "'%a%'", "'_'", "'h_llo'", "''", "'2020%'", "NULL"]);
                format!("({} {not}{like} {pattern})", self.text(d))
            }
            14 => self.case(d, Gen::pred),
            _ => format!("CAST({} AS boolean)", self.one(&["s", "'maybe'", "'true'", "b"])),
        }
    }
}

fn scope() -> RowScope {
    let names: Vec<String> = COLUMNS.iter().map(|(n, _)| n.to_string()).collect();
    RowScope::of_table("t", &names)
}

fn show(r: &PgResult<Datum>) -> String {
    match r {
        Ok(d) => format!("{d:?}"),
        Err(e) => format!("error {}: {}", e.code.sqlstate(), e.message),
    }
}

/// Compare one batch call with the interpreter's answers on the selected
/// rows: `Ok` exactly when every row is `Ok`, an error one of theirs, and
/// `same` checks the values.
fn referee<T: std::fmt::Debug>(
    what: &str,
    batch: PgResult<T>,
    rows: &[(usize, PgResult<Datum>)],
    same: impl FnOnce(&T) -> Result<(), String>,
) -> Result<(), TestCaseError> {
    let errors: Vec<String> =
        rows.iter().filter(|(_, r)| r.is_err()).map(|(_, r)| show(r)).collect();
    match batch {
        Ok(v) => {
            prop_assert!(errors.is_empty(), "{what}: batch answered {v:?}, rows raise {errors:?}");
            same(&v).map_err(|m| TestCaseError::fail(format!("{what}: {m}")))
        }
        Err(e) => {
            let got = show(&Err(e));
            prop_assert!(
                errors.contains(&got),
                "{what}: batch raised {got}, rows raise {errors:?}"
            );
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batch_kernels_answer_like_the_interpreter(
        cells in prop::collection::vec(cells(), 1..10),
        picked in prop::collection::vec(any::<bool>(), 10),
        seed in any::<u64>(),
    ) {
        let rows: Vec<Row> = cells.into_iter().map(row).collect();
        let types: Vec<TypeName> = COLUMNS.iter().map(|(_, t)| *t).collect();
        let stripe = Stripe::from_rows(rows.clone(), &types).unwrap();
        let all: Vec<usize> = (0..COLUMNS.len()).collect();
        let batch = ColumnBatch::from_stripe(&stripe, 0, rows.len(), &all);
        let sel: Vec<usize> = (0..rows.len()).filter(|&r| picked[r]).collect();
        let ctx = EvalCtx::default();
        let mut gen = Gen(seed);
        for _ in 0..32 {
            let (pred, value) = (gen.pred(3), gen.any(3));
            for (src, is_pred) in [(&pred, true), (&value, false)] {
                let parsed = sqlparse::parse_expr(src).unwrap_or_else(|e| panic!("{src}: {e}"));
                let e: BExpr = bind(&parsed, &scope()).unwrap();
                prop_assert!(supports_batch(&e), "{src}");
                let answers: Vec<(usize, PgResult<Datum>)> =
                    sel.iter().map(|&r| (r, eval(&e, &rows[r], &ctx))).collect();
                if is_pred {
                    let want: Vec<usize> = answers
                        .iter()
                        .filter(|(_, a)| matches!(a, Ok(Datum::Bool(true))))
                        .map(|(r, _)| *r)
                        .collect();
                    let what = format!("filter_batch({src}) on {sel:?}");
                    referee(&what, filter_batch(&e, &batch, &sel, &ctx), &answers, |got| {
                        if *got == want {
                            Ok(())
                        } else {
                            Err(format!("kept {got:?}, want {want:?}"))
                        }
                    })?;
                }
                let what = format!("eval_batch({src}) on {sel:?}");
                referee(&what, eval_batch(&e, &batch, &sel, &ctx), &answers, |lanes| {
                    for (r, a) in &answers {
                        let (got, want) = (format!("{:?}", lanes.get(*r).to_datum()), show(a));
                        if got != want {
                            return Err(format!("row {r}: lane {got}, interpreter {want}"));
                        }
                    }
                    Ok(())
                })?;
            }
        }
    }
}
