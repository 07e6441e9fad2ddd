//! Fuzz tests of the three text entry points, the serving request language
//! ([`ServingRequest::parse`]), the graph database reader
//! ([`skinny_graph::io::parse_database`]) and the single-graph reader
//! ([`skinny_graph::io::parse_graph`]): on any input each may return only
//! `Ok` or its typed error, never panic.  Two input shapes are drawn:
//!
//! * token strings — an optional well-formed prefix followed by random
//!   clauses (or lines), each a key (or line tag) and random tokens from a
//!   small alphabet of the language's own keys, digits, separators and
//!   whitespace, so that accepted inputs occur as well as every kind of
//!   malformed one;
//! * arbitrary bytes, after an optional well-formed prefix of either
//!   language, decoded with [`String::from_utf8_lossy`] and fed to all
//!   three parsers, so that control bytes, multi-byte characters and the
//!   replacement character reach every tokenizer.

use proptest::prelude::*;
use skinny_graph::io::{parse_database, parse_graph, write_database, write_graph};
use skinny_graph::{GraphError, SupportMeasure};
use skinnymine::{MineError, ServingRequest};

/// Well-formed request prefixes, so random clauses reach the optional
/// clauses and the duplicate-clause check.
const REQUEST_PREFIXES: [&str; 3] = ["", "l=2 delta=1 sigma=2 ", "l=1..3 delta=0 sigma=1 "];

/// Clause heads, including a bare key, a bare `=` and an unknown key.
const REQUEST_KEYS: [&str; 11] =
    ["l=", "l>=", "delta=", "sigma=", "report=", "require=", "forbid=", "top=", "l", "=", "x="];

/// Clause values: numbers (negative and past `u32` and `usize`), range and
/// list separators, report modes and whitespace.
const REQUEST_VALUES: [&str; 15] = [
    "0",
    "1",
    "2",
    "9",
    "..",
    ",",
    "=",
    "all",
    "closed",
    "maximal",
    "-",
    "4294967296",
    "18446744073709551616",
    " ",
    "\t",
];

/// Well-formed database prefixes: none, an empty transaction, and a
/// transaction holding two vertices that random edge lines can join.
const DATABASE_PREFIXES: [&str; 3] = ["", "t # 0\n", "t # 0\nv 0 0\nv 1 1\n"];

/// Line tags, including a comment, an unknown tag and none.
const DATABASE_TAGS: [&str; 6] = ["t", "v", "e", "#", "x", ""];

/// Line fields: numbers (negative and past `u32`), a non-number and
/// whitespace.
const DATABASE_FIELDS: [&str; 11] = ["0", "1", "2", "7", "-1", "4294967296", "a", "=", " ", "\t", "\n"];

/// The bytes both languages are written in, so that arbitrary byte strings
/// still form numbers, keys and separators often.
const GRAMMAR_BYTES: &[u8] = b"0123456789 \t\r\n=.,#-tvelx";

/// An optional well-formed prefix of either language, then up to 63 bytes,
/// each an arbitrary byte or (as often) one of [`GRAMMAR_BYTES`].
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    let prefixes: Vec<&'static str> = REQUEST_PREFIXES.iter().chain(&DATABASE_PREFIXES).copied().collect();
    let byte = (0u8..=1, 0u8..=255).prop_map(|(raw, b)| {
        if raw == 1 {
            b
        } else {
            GRAMMAR_BYTES[b as usize % GRAMMAR_BYTES.len()]
        }
    });
    (0..prefixes.len(), proptest::collection::vec(byte, 0..64)).prop_map(move |(p, tail)| {
        let mut out = prefixes[p].as_bytes().to_vec();
        out.extend(tail);
        out
    })
}

/// A request parses or fails with `InvalidConfig`; a parsed request is
/// valid, and so is the mining configuration it is served from.
fn check_request(input: &str) -> Result<(), TestCaseError> {
    match ServingRequest::parse(input) {
        Ok(request) => {
            prop_assert!(request.validate().is_ok(), "{:?} -> {:?}", input, request);
            for measure in [SupportMeasure::MinimumImage, SupportMeasure::Transactions] {
                prop_assert!(request.base_config(measure).validate().is_ok(), "{:?}", input);
            }
        }
        Err(err) => prop_assert!(matches!(err, MineError::InvalidConfig { .. }), "{:?}: {:?}", input, err),
    }
    Ok(())
}

/// A database parses or fails with a located `Parse` error; a parsed
/// database survives a write and re-parse unchanged.
fn check_database(input: &str) -> Result<(), TestCaseError> {
    match parse_database(input) {
        Ok(db) => {
            let written = write_database(&db);
            let back = parse_database(&written);
            prop_assert!(back.is_ok(), "{:?} -> {:?}", input, written);
            prop_assert_eq!(write_database(&back.unwrap()), written);
        }
        Err(err) => prop_assert!(matches!(err, GraphError::Parse { .. }), "{:?}: {:?}", input, err),
    }
    Ok(())
}

/// A graph parses or fails with a `Parse` error; a parsed graph is the
/// database's first transaction and survives a write and re-parse
/// unchanged.
fn check_graph(input: &str) -> Result<(), TestCaseError> {
    match parse_graph(input) {
        Ok(g) => {
            let db = parse_database(input);
            prop_assert!(db.as_ref().is_ok_and(|db| !db.is_empty() && db[0] == g), "{:?}", input);
            let written = write_graph(&g, 0);
            let back = parse_graph(&written);
            prop_assert!(back.as_ref().is_ok_and(|b| *b == g), "{:?} -> {:?}", input, written);
        }
        Err(err) => prop_assert!(matches!(err, GraphError::Parse { .. }), "{:?}: {:?}", input, err),
    }
    Ok(())
}

/// A prefix, then up to five clauses: a head and up to three tokens, each
/// token after `sep`, the clause closed by `end`.
fn text(
    prefixes: &'static [&'static str],
    heads: &'static [&'static str],
    tokens: &'static [&'static str],
    (sep, end): (&'static str, &'static str),
) -> impl Strategy<Value = String> {
    let clause = (0..heads.len(), proptest::collection::vec(0..tokens.len(), 0..4));
    (0..prefixes.len(), proptest::collection::vec(clause, 0..6)).prop_map(move |(p, clauses)| {
        let mut out = prefixes[p].to_string();
        for (head, picks) in clauses {
            out.push_str(heads[head]);
            for i in picks {
                out.push_str(sep);
                out.push_str(tokens[i]);
            }
            out.push_str(end);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_parse_never_panics(
        input in text(&REQUEST_PREFIXES, &REQUEST_KEYS, &REQUEST_VALUES, ("", " ")),
    ) {
        check_request(&input)?;
    }

    #[test]
    fn database_parse_never_panics(
        input in text(&DATABASE_PREFIXES, &DATABASE_TAGS, &DATABASE_FIELDS, (" ", "\n")),
    ) {
        check_database(&input)?;
    }

    #[test]
    fn graph_parse_never_panics(
        input in text(&DATABASE_PREFIXES, &DATABASE_TAGS, &DATABASE_FIELDS, (" ", "\n")),
    ) {
        check_graph(&input)?;
    }

    /// Arbitrary bytes reach every parser as lossily decoded text.
    #[test]
    fn arbitrary_bytes_never_panic_any_parser(input in bytes()) {
        let input = String::from_utf8_lossy(&input);
        check_request(&input)?;
        check_database(&input)?;
        check_graph(&input)?;
    }
}
