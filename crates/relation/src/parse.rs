//! Text formats for schemes, states and tuples — the `idr` CLI's file
//! formats, factored here so the fuzzing oracle's replayable corpus
//! fixtures (`idr-oracle`) parse and render the exact same syntax.
//!
//! ## Scheme files
//!
//! ```text
//! # comments and blank lines are ignored
//! universe: H R C T S G
//! scheme R1: H R C  keys H R
//! scheme R2: H T R  keys H T | H R
//! ```
//!
//! Attribute names are whitespace-separated tokens; alternative keys are
//! separated by `|`.
//!
//! ## State files
//!
//! One tuple per line: the relation name, a colon, then `ATTR=value`
//! pairs covering exactly the relation's attributes.
//!
//! ```text
//! R1: H=h1 R=r1 C=c1
//! R4: C=c1 S=s1 G=g1
//! ```
//!
//! Errors are human-readable strings prefixed with the 1-based line
//! number (`"line 3: unknown attribute \"Z\""`), which the CLI maps to
//! its parse-error exit code.

use crate::{
    AttrSet, DatabaseScheme, DatabaseState, RelationScheme, SymbolTable, Tuple, Universe,
};

/// Parses the scheme file format described in the module docs.
pub fn parse_scheme(text: &str) -> Result<DatabaseScheme, String> {
    let mut universe = Universe::new();
    let mut universe_seen = false;
    let mut schemes: Vec<RelationScheme> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        if let Some(rest) = line.strip_prefix("universe:") {
            for tok in rest.split_whitespace() {
                universe.add(tok).map_err(|e| at(&format!("{e}")))?;
            }
            universe_seen = true;
        } else if let Some(rest) = line.strip_prefix("scheme ") {
            if !universe_seen {
                return Err(at("'universe:' must come before schemes"));
            }
            let (name, body) = rest
                .split_once(':')
                .ok_or_else(|| at("expected 'scheme NAME: ATTRS keys K1 | K2'"))?;
            let (attrs_part, keys_part) = body
                .split_once("keys")
                .ok_or_else(|| at("missing 'keys' clause"))?;
            let mut attrs = AttrSet::empty();
            for tok in attrs_part.split_whitespace() {
                let a = universe
                    .attr(tok)
                    .ok_or_else(|| at(&format!("unknown attribute {tok:?}")))?;
                attrs.insert(a);
            }
            let mut keys = Vec::new();
            for alt in keys_part.split('|') {
                let mut k = AttrSet::empty();
                for tok in alt.split_whitespace() {
                    let a = universe
                        .attr(tok)
                        .ok_or_else(|| at(&format!("unknown attribute {tok:?}")))?;
                    k.insert(a);
                }
                if !k.is_empty() {
                    keys.push(k);
                }
            }
            schemes.push(
                RelationScheme::new(name.trim(), attrs, keys)
                    .map_err(|e| at(&format!("{e}")))?,
            );
        } else {
            return Err(at("expected 'universe:' or 'scheme ...'"));
        }
    }
    DatabaseScheme::new(universe, schemes).map_err(|e| format!("{e}"))
}

/// Parses one `NAME: ATTR=value ...` state line into a relation index and
/// a tuple covering exactly that relation's attributes.
pub fn parse_tuple_line(
    line: &str,
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
) -> Result<(usize, Tuple), String> {
    let u = db.universe();
    let (name, body) = line
        .split_once(':')
        .ok_or_else(|| "expected 'NAME: ATTR=value ...'".to_string())?;
    let name = name.trim();
    let i = (0..db.len())
        .find(|&i| db.scheme(i).name() == name)
        .ok_or_else(|| format!("unknown relation {name:?}"))?;
    let mut pairs = Vec::new();
    for tok in body.split_whitespace() {
        let (attr, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected ATTR=value, got {tok:?}"))?;
        let a = u
            .attr(attr)
            .ok_or_else(|| format!("unknown attribute {attr:?}"))?;
        pairs.push((a, symbols.intern(value)));
    }
    let t = Tuple::from_pairs(pairs);
    if t.attrs() != db.scheme(i).attrs() {
        return Err(format!(
            "tuple covers {} but {name} has attributes {}",
            u.render(t.attrs()),
            u.render(db.scheme(i).attrs())
        ));
    }
    Ok((i, t))
}

/// Parses the state file format described in the module docs: one
/// `NAME: ATTR=value ...` tuple per line, values interned into `symbols`.
pub fn parse_state(
    text: &str,
    db: &DatabaseScheme,
    symbols: &mut SymbolTable,
) -> Result<DatabaseState, String> {
    let mut state = DatabaseState::empty(db);
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let (i, t) = parse_tuple_line(line, db, symbols).map_err(|e| at(&e))?;
        state.insert(i, t).map_err(|e| at(&format!("{e}")))?;
    }
    Ok(state)
}

/// Renders a scheme back into the scheme file format; the output
/// round-trips through [`parse_scheme`] to an equal scheme. Attribute
/// names are space-separated, so multi-character names survive.
pub fn render_scheme_file(db: &DatabaseScheme) -> String {
    let u = db.universe();
    let set = |s: AttrSet| {
        s.iter()
            .map(|a| u.name(a).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut out = String::from("universe:");
    for a in u.iter() {
        out.push(' ');
        out.push_str(u.name(a));
    }
    out.push('\n');
    for s in db.schemes() {
        let keys = s
            .keys()
            .iter()
            .map(|&k| set(k))
            .collect::<Vec<_>>()
            .join(" | ");
        out.push_str(&format!(
            "scheme {}: {} keys {}\n",
            s.name(),
            set(s.attrs()),
            keys
        ));
    }
    out
}

/// Renders one `(relation, tuple)` pair as a state-file line
/// (`R1: H=h1 R=r1`), round-tripping through [`parse_tuple_line`].
pub fn render_tuple_line(
    db: &DatabaseScheme,
    symbols: &SymbolTable,
    i: usize,
    t: &Tuple,
) -> String {
    format!("{}: {}", db.scheme(i).name(), render_pairs(db, symbols, t))
}

/// A tuple's `attr=value` pairs, space-separated.
fn render_pairs(db: &DatabaseScheme, symbols: &SymbolTable, t: &Tuple) -> String {
    let u = db.universe();
    t.iter()
        .map(|(a, v)| format!("{}={}", u.name(a), symbols.resolve(v)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a state as sorted state-file lines: the fingerprint that
/// compares states across symbol tables (each table interns values in
/// its own order, so raw `Value`s are not comparable).
pub fn render_state_lines(
    db: &DatabaseScheme,
    state: &DatabaseState,
    symbols: &SymbolTable,
) -> Vec<String> {
    let mut lines: Vec<String> = state
        .iter_all()
        .map(|(i, t)| render_tuple_line(db, symbols, i, t))
        .collect();
    lines.sort();
    lines
}

/// Renders a query answer as sorted, deduplicated `attr=value` lines:
/// the answer's fingerprint across symbol tables.
pub fn render_answer_lines(
    db: &DatabaseScheme,
    tuples: &[Tuple],
    symbols: &SymbolTable,
) -> Vec<String> {
    let mut lines: Vec<String> = tuples
        .iter()
        .map(|t| render_pairs(db, symbols, t))
        .collect();
    lines.sort();
    lines.dedup();
    lines
}

/// Renders a full state as state-file lines, relation by relation.
pub fn render_state_file(
    db: &DatabaseScheme,
    state: &DatabaseState,
    symbols: &SymbolTable,
) -> String {
    let mut out = String::new();
    for (i, t) in state.iter_all() {
        out.push_str(&render_tuple_line(db, symbols, i, t));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE1: &str = "
# Example 1 of the paper
universe: C T H R S G
scheme R1: H R C  keys H R
scheme R2: H T R  keys H T | H R
scheme R3: H T C  keys H T
scheme R4: C S G  keys C S
scheme R5: H S R  keys H S
";

    #[test]
    fn parses_example1() {
        let db = parse_scheme(EXAMPLE1).unwrap();
        assert_eq!(db.len(), 5);
        assert_eq!(db.scheme(1).keys().len(), 2);
    }

    #[test]
    fn rejects_unknown_attribute() {
        let err = parse_scheme("universe: A B\nscheme R1: A Z keys A").unwrap_err();
        assert!(err.contains("unknown attribute"));
    }

    #[test]
    fn rejects_scheme_before_universe() {
        let err = parse_scheme("scheme R1: A keys A").unwrap_err();
        assert!(err.contains("universe"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let db = parse_scheme("# hi\n\nuniverse: A B\n# mid\nscheme R1: A B keys A\n").unwrap();
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn parses_a_state_file() {
        let db = parse_scheme(EXAMPLE1).unwrap();
        let mut sym = SymbolTable::new();
        let state = parse_state(
            "# registrar\nR1: H=h1 R=r1 C=c1\nR4: C=c1 S=s1 G=g1\n",
            &db,
            &mut sym,
        )
        .unwrap();
        assert_eq!(state.total_tuples(), 2);
        assert_eq!(state.relation(0).len(), 1);
        assert_eq!(state.relation(3).len(), 1);
    }

    #[test]
    fn state_parser_rejects_bad_lines() {
        let db = parse_scheme(EXAMPLE1).unwrap();
        let mut sym = SymbolTable::new();
        for (text, needle) in [
            ("R9: H=h", "unknown relation"),
            ("R1: H=h1", "tuple covers"),
            ("R1: H=h1 R=r1 Z=z", "unknown attribute"),
            ("R1 H=h1", "expected 'NAME:"),
            ("R1: H", "expected ATTR=value"),
        ] {
            let err = parse_state(text, &db, &mut sym).unwrap_err();
            assert!(err.contains(needle), "{text:?} gave {err:?}");
        }
    }

    #[test]
    fn scheme_file_round_trips() {
        let db = parse_scheme(EXAMPLE1).unwrap();
        let rendered = render_scheme_file(&db);
        let back = parse_scheme(&rendered).unwrap();
        assert_eq!(render_scheme_file(&back), rendered);
        assert_eq!(back.len(), db.len());
        for i in 0..db.len() {
            assert_eq!(back.scheme(i).name(), db.scheme(i).name());
            assert_eq!(back.scheme(i).attrs(), db.scheme(i).attrs());
            assert_eq!(back.scheme(i).keys(), db.scheme(i).keys());
        }
    }

    #[test]
    fn state_file_round_trips_with_multichar_names() {
        let db = parse_scheme(
            "universe: X0 X1 X2\nscheme R0: X0 X1 keys X0\nscheme R1: X1 X2 keys X2\n",
        )
        .unwrap();
        let mut sym = SymbolTable::new();
        let state = parse_state("R0: X0=a_1 X1=b\nR1: X1=b X2=c\n", &db, &mut sym).unwrap();
        let rendered = render_state_file(&db, &state, &sym);
        let mut sym2 = SymbolTable::new();
        let back = parse_state(&rendered, &db, &mut sym2).unwrap();
        assert_eq!(back.total_tuples(), state.total_tuples());
        assert_eq!(render_state_file(&db, &back, &sym2), rendered);
    }
}
