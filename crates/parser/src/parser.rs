//! Recursive-descent parser for programs of TGDs and facts.
//!
//! Grammar (statements end with `.`):
//!
//! ```text
//! program   := statement*
//! statement := rule | fact
//! rule      := conj "->" conj "."          (body -> head)
//!            | conj ":-" conj "."          (head :- body)
//! conj      := atom ("," atom)*
//! atom      := ident "(" term ("," term)* ")"
//! fact      := atom "."                    (all arguments constant)
//! term      := variable | constant
//! ```
//!
//! Identifiers starting with an uppercase letter, `_`, or `?` are variables;
//! everything else (including quoted strings and numbers) is a constant.
//! Head-only variables are existentially quantified (implicit `∃`, as in the
//! DLGP format used by existential-rule tools).

use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::{is_variable_name, Lexer, Token};
use soct_model::{Atom, ConstId, Database, FxHashMap, Interner, Schema, Term, Tgd, VarId};

/// A parsed program: rules plus a database of facts, over a shared schema
/// and constant interner.
#[derive(Debug, Default)]
pub struct Program {
    pub schema: Schema,
    pub consts: Interner,
    pub tgds: Vec<Tgd>,
    pub database: Database,
}

impl Program {
    /// Parses a complete program from text.
    pub fn parse(text: &str) -> Result<Program, ParseError> {
        let mut p = Program::default();
        parse_into(
            text,
            &mut p.schema,
            &mut p.consts,
            &mut p.tgds,
            &mut p.database,
        )?;
        Ok(p)
    }
}

/// Parses `text`, accumulating into existing schema/interner/rule/fact
/// collections (so several files can share one vocabulary).
pub fn parse_into(
    text: &str,
    schema: &mut Schema,
    consts: &mut Interner,
    tgds: &mut Vec<Tgd>,
    database: &mut Database,
) -> Result<(), ParseError> {
    Parser::new(text, schema, consts, Admit::Any).run(tgds, database)
}

/// Parses a set of TGDs only; a fact is an error at its first token.
pub fn parse_tgds(
    text: &str,
    schema: &mut Schema,
    consts: &mut Interner,
) -> Result<Vec<Tgd>, ParseError> {
    let mut tgds = Vec::new();
    Parser::new(text, schema, consts, Admit::RulesOnly).run(&mut tgds, &mut Database::new())?;
    Ok(tgds)
}

/// Parses a database of facts only; a rule is an error at its first token.
pub fn parse_facts(
    text: &str,
    schema: &mut Schema,
    consts: &mut Interner,
) -> Result<Database, ParseError> {
    let mut db = Database::new();
    Parser::new(text, schema, consts, Admit::FactsOnly).run(&mut Vec::new(), &mut db)?;
    Ok(db)
}

/// Which statements a parse admits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Admit {
    Any,
    RulesOnly,
    FactsOnly,
}

/// A statement of a kind the parse does not admit, reported at its first
/// token.
fn wrong_kind(line: u32, column: u32, expected: &'static str, found: &str) -> ParseError {
    ParseError::new(
        line,
        column,
        ParseErrorKind::Expected {
            expected,
            found: found.to_string(),
        },
    )
}

/// The parser state. Every buffer lives for the whole parse and is reused
/// per statement, so a rule allocates only what its [`Tgd`] keeps.
struct Parser<'a, 'v> {
    lexer: Lexer<'a>,
    lookahead: Option<Token<'a>>,
    schema: &'v mut Schema,
    consts: &'v mut Interner,
    admit: Admit,
    /// Variable name → dense id, scoped to the current statement.
    vars: FxHashMap<&'a str, u32>,
    /// The current statement's atoms, in source order.
    atoms: Vec<Atom>,
    /// The arguments of the atom being parsed.
    args: Vec<Term>,
    /// Old → new variable id while renumbering a `:-` rule.
    remap: Vec<u32>,
}

impl<'a, 'v> Parser<'a, 'v> {
    fn new(text: &'a str, schema: &'v mut Schema, consts: &'v mut Interner, admit: Admit) -> Self {
        Parser {
            lexer: Lexer::new(text),
            lookahead: None,
            schema,
            consts,
            admit,
            vars: FxHashMap::default(),
            atoms: Vec::new(),
            args: Vec::new(),
            remap: Vec::new(),
        }
    }

    fn run(mut self, tgds: &mut Vec<Tgd>, db: &mut Database) -> Result<(), ParseError> {
        while self.peek()? != Token::Eof {
            self.statement(tgds, db)?;
        }
        Ok(())
    }

    fn peek(&mut self) -> Result<Token<'a>, ParseError> {
        if self.lookahead.is_none() {
            self.lookahead = Some(self.lexer.next_token()?);
        }
        Ok(self.lookahead.unwrap())
    }

    fn advance(&mut self) -> Result<Token<'a>, ParseError> {
        match self.lookahead.take() {
            Some(t) => Ok(t),
            None => self.lexer.next_token(),
        }
    }

    fn error(&self, expected: &'static str, found: Token<'_>) -> ParseError {
        ParseError::new(
            self.lexer.line(),
            self.lexer.column(),
            ParseErrorKind::Expected {
                expected,
                found: found.describe(),
            },
        )
    }

    fn expect(&mut self, want: Token<'static>, what: &'static str) -> Result<(), ParseError> {
        let got = self.advance()?;
        if got == want {
            Ok(())
        } else {
            Err(self.error(what, got))
        }
    }

    fn model_err(&self, e: soct_model::ModelError) -> ParseError {
        ParseError::new(
            self.lexer.line(),
            self.lexer.column(),
            ParseErrorKind::Model(e),
        )
    }

    /// Parses one statement (rule or fact) into the output collections.
    /// Called with the statement's first token in the lookahead.
    fn statement(&mut self, tgds: &mut Vec<Tgd>, db: &mut Database) -> Result<(), ParseError> {
        let (line, column) = self.lexer.token_start();
        self.vars.clear();
        self.atoms.clear();
        self.conjunction()?;
        let first = self.atoms.len();
        match self.advance()? {
            Token::Period if self.admit == Admit::RulesOnly => {
                Err(wrong_kind(line, column, "rules only", "a fact"))
            }
            Token::Arrow | Token::ColonDash if self.admit == Admit::FactsOnly => {
                Err(wrong_kind(line, column, "facts only", "a rule"))
            }
            Token::Period => {
                // A conjunction of facts: the parser only makes constants
                // and variables, so a fact is an atom of constants.
                let ground = self.atoms.iter().take_while(|a| a.is_fact()).count();
                for atom in self.atoms.drain(..ground) {
                    db.insert(atom);
                }
                if self.atoms.is_empty() {
                    Ok(())
                } else {
                    Err(self.model_err(soct_model::ModelError::VariableInFact))
                }
            }
            Token::Arrow => {
                self.conjunction()?;
                self.expect(Token::Period, "`.`")?;
                self.rule(first, tgds)
            }
            Token::ColonDash => {
                self.conjunction()?;
                self.expect(Token::Period, "`.`")?;
                // `head :- body`: move the body in front and number the
                // variables body-first, exactly as the `->` spelling would.
                self.atoms.rotate_left(first);
                self.renumber();
                self.rule(self.atoms.len() - first, tgds)
            }
            other => Err(self.error("`.`, `->` or `:-`", other)),
        }
    }

    /// Moves the statement's atoms, `body ++ head`, into a [`Tgd`].
    fn rule(&mut self, body_len: usize, tgds: &mut Vec<Tgd>) -> Result<(), ParseError> {
        // Collecting a drain allocates exactly `len`, so the TGD keeps
        // the block without a shrinking reallocation.
        let atoms = self.atoms.drain(..).collect();
        tgds.push(Tgd::from_atoms(atoms, body_len).map_err(|e| self.model_err(e))?);
        Ok(())
    }

    /// Renumbers the statement's variables in first-occurrence order.
    fn renumber(&mut self) {
        self.remap.clear();
        self.remap.resize(self.vars.len(), u32::MAX);
        let mut next = 0;
        for t in self.atoms.iter_mut().flat_map(|a| a.terms.iter_mut()) {
            if let Term::Var(v) = t {
                let id = &mut self.remap[v.index()];
                if *id == u32::MAX {
                    *id = next;
                    next += 1;
                }
                *v = VarId(*id);
            }
        }
    }

    fn conjunction(&mut self) -> Result<(), ParseError> {
        self.atom()?;
        while self.peek()? == Token::Comma {
            self.advance()?;
            self.atom()?;
        }
        Ok(())
    }

    fn atom(&mut self) -> Result<(), ParseError> {
        let name = match self.advance()? {
            Token::Ident(s) => s,
            other => return Err(self.error("a predicate name", other)),
        };
        self.expect(Token::LParen, "`(`")?;
        self.args.clear();
        loop {
            let term = match self.advance()? {
                Token::Ident(s) if is_variable_name(s) => {
                    let next = self.vars.len() as u32;
                    Term::Var(VarId(*self.vars.entry(s).or_insert(next)))
                }
                Token::Ident(s) | Token::Quoted(s) => {
                    Term::Const(ConstId::from_symbol(self.consts.intern(s)))
                }
                other => return Err(self.error("a term", other)),
            };
            self.args.push(term);
            match self.advance()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => return Err(self.error("`,` or `)`", other)),
            }
        }
        let pred = self
            .schema
            .add_predicate(name, self.args.len())
            .map_err(|e| self.model_err(e))?;
        self.atoms.push(Atom {
            pred,
            terms: self.args.as_slice().into(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soct_model::TgdClass;

    #[test]
    fn parses_rules_and_facts() {
        let p = Program::parse(
            "% the running example of §3\n\
             r(a, b).\n\
             r(X, Y) -> r(Y, Z).\n",
        )
        .unwrap();
        assert_eq!(p.tgds.len(), 1);
        assert_eq!(p.database.len(), 1);
        let tgd = &p.tgds[0];
        assert!(tgd.is_simple_linear());
        assert_eq!(tgd.frontier().len(), 1);
        assert_eq!(tgd.existential().len(), 1);
    }

    #[test]
    fn datalog_orientation_swaps_body_and_head() {
        // The two spellings are alpha-equivalent; the writer renumbers
        // variables in body-first order, so the rendered forms coincide.
        let a = Program::parse("s(Y, Z) :- r(X, Y).").unwrap();
        let b = Program::parse("r(X, Y) -> s(Y, Z).").unwrap();
        let ra = crate::writer::write_tgds(&a.tgds, &a.schema, &a.consts);
        let rb = crate::writer::write_tgds(&b.tgds, &b.schema, &b.consts);
        assert_eq!(ra, rb);
    }

    #[test]
    fn variables_scoped_per_rule() {
        let p = Program::parse("r(X) -> s(X).\nr(X) -> t(X).").unwrap();
        assert_eq!(p.tgds[0].frontier(), p.tgds[1].frontier());
    }

    #[test]
    fn multi_atom_conjunctions() {
        let p = Program::parse("r(X, Y), s(Y) -> t(X), u(X, Y).").unwrap();
        let tgd = &p.tgds[0];
        assert_eq!(tgd.body().len(), 2);
        assert_eq!(tgd.head().len(), 2);
        assert_eq!(tgd.class(), TgdClass::General);
    }

    #[test]
    fn fact_conjunction_inserts_all() {
        let p = Program::parse("r(a, b), r(b, c).").unwrap();
        assert_eq!(p.database.len(), 2);
    }

    #[test]
    fn repeated_body_variable_is_linear() {
        let p = Program::parse("r(X, X) -> r(Z, X).").unwrap();
        assert_eq!(p.tgds[0].class(), TgdClass::Linear);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let err = Program::parse("r(a, b).\nr(a).").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Model(_)), "{err}");
    }

    #[test]
    fn variables_in_facts_are_rejected() {
        let err = Program::parse("r(X, b).").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::Model(soct_model::ModelError::VariableInFact)
        ));
    }

    #[test]
    fn parse_tgds_rejects_facts_and_vice_versa() {
        let mut s = Schema::new();
        let mut c = Interner::new();
        assert!(parse_tgds("r(a).", &mut s, &mut c).is_err());
        let mut s2 = Schema::new();
        let mut c2 = Interner::new();
        assert!(parse_facts("r(X) -> s(X).", &mut s2, &mut c2).is_err());
        let mut s3 = Schema::new();
        let mut c3 = Interner::new();
        assert_eq!(
            parse_facts("r(a). r(b).", &mut s3, &mut c3).unwrap().len(),
            2
        );
    }

    #[test]
    fn parse_tgds_reports_the_first_fact_where_it_starts() {
        let (mut s, mut c) = (Schema::new(), Interner::new());
        let err = parse_tgds("r(X) -> s(X).\n  r(a).\nt(b).", &mut s, &mut c).unwrap_err();
        assert_eq!((err.line, err.column), (2, 3), "{err}");
        assert!(err
            .to_string()
            .contains("expected rules only, found `a fact`"));
    }

    #[test]
    fn parse_facts_reports_the_first_rule_where_it_starts() {
        let (mut s, mut c) = (Schema::new(), Interner::new());
        let text = "r(a). r(b).\nr(a).   s(Y) :- r(Y).\nr(X) -> s(X).";
        let err = parse_facts(text, &mut s, &mut c).unwrap_err();
        assert_eq!((err.line, err.column), (2, 9), "{err}");
        assert!(err
            .to_string()
            .contains("expected facts only, found `a rule`"));
    }

    #[test]
    fn both_orientations_yield_equal_tgds() {
        // One vocabulary, so both spellings see the same predicate ids.
        let (mut s, mut c) = (Schema::new(), Interner::new());
        for (arrow, datalog) in [
            ("r(X, Y) -> s(Y, Z).", "s(Y, Z) :- r(X, Y)."),
            (
                "r(X, Y), t(Y, W) -> s(W, Z), u(Z, X).",
                "s(W, Z), u(Z, X) :- r(X, Y), t(Y, W).",
            ),
            ("r(X, X) -> s(Z, Z).", "s(Z, Z) :- r(X, X)."),
        ] {
            let a = parse_tgds(arrow, &mut s, &mut c).unwrap();
            let b = parse_tgds(datalog, &mut s, &mut c).unwrap();
            assert_eq!(a, b, "{arrow} vs {datalog}");
        }
    }

    #[test]
    fn a_statement_with_ten_thousand_variables() {
        // Body: 5000 atoms b(Xi, Xi+5000), numbered Xi ↦ 2i and
        // Xi+5000 ↦ 2i+1 in first-occurrence order; head: 5000 atoms
        // h(Xi, Yi) with Yi ↦ 10000+i — 5000 frontier, 5000 existential.
        let n = 5000u32;
        let body: Vec<String> = (0..n).map(|i| format!("b(X{i}, X{})", i + n)).collect();
        let head: Vec<String> = (0..n).map(|i| format!("h(X{i}, Y{i})")).collect();
        let text = format!("{} -> {}.", body.join(", "), head.join(", "));
        let p = Program::parse(&text).unwrap();
        let tgd = &p.tgds[0];
        assert_eq!(
            (tgd.body().len(), tgd.head().len()),
            (n as usize, n as usize)
        );
        assert_eq!(tgd.body_variables().len(), 2 * n as usize);
        let ids = |it: std::ops::Range<u32>, f: fn(u32) -> u32| {
            it.map(|i| VarId(f(i))).collect::<Vec<_>>()
        };
        assert_eq!(tgd.frontier(), ids(0..n, |i| 2 * i));
        assert_eq!(tgd.existential(), ids(2 * n..3 * n, |i| i));
        assert_eq!(
            tgd.head()[7].terms[..],
            [Term::Var(VarId(14)), Term::Var(VarId(2 * n + 7))]
        );
    }

    #[test]
    fn quoted_and_numeric_constants() {
        let p = Program::parse("r('hello world', 42).").unwrap();
        assert_eq!(p.database.len(), 1);
        assert_eq!(p.consts.len(), 2);
        assert!(p.consts.get("hello world").is_some());
        assert!(p.consts.get("42").is_some());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = Program::parse("r(a)\ns(b).").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn shared_vocabulary_across_calls() {
        let mut schema = Schema::new();
        let mut consts = Interner::new();
        let tgds = parse_tgds("r(X, Y) -> s(Y).", &mut schema, &mut consts).unwrap();
        let db = parse_facts("r(a, b).", &mut schema, &mut consts).unwrap();
        assert_eq!(tgds.len(), 1);
        assert_eq!(db.len(), 1);
        assert_eq!(schema.len(), 2);
        // The fact and the rule body share the predicate id.
        assert_eq!(db.atoms()[0].pred, tgds[0].body()[0].pred);
    }
}
