//! Parser hardening: inputs a monitor client can send that must come back
//! as an `Error`, never as a stack overflow, a panic or a wrong value.

use serde_json::Value;

fn nested_arrays(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn nesting_up_to_the_limit_parses() {
    let v: Value = serde_json::from_str(&nested_arrays(128)).expect("128 levels parse");
    assert_eq!(serde_json::to_string(&v).unwrap(), nested_arrays(128));
    let objects = "{\"a\":".repeat(128) + "1" + &"}".repeat(128);
    serde_json::from_str::<Value>(&objects).expect("128 object levels parse");
}

#[test]
fn nesting_past_the_limit_is_an_error() {
    let err = serde_json::from_str::<Value>(&nested_arrays(129)).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
    let objects = "{\"a\":".repeat(129) + "1" + &"}".repeat(129);
    assert!(serde_json::from_str::<Value>(&objects).is_err());
}

/// 200,000 unclosed `[` used to recurse once per byte and abort the whole
/// process with a stack overflow on a 2 MiB thread (a connection thread's
/// stack size).
#[test]
fn hostile_nesting_returns_an_error_on_a_small_stack() {
    let body = "[".repeat(200_000);
    let result = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || serde_json::from_str::<Value>(&body).is_err())
        .unwrap()
        .join()
        .expect("parser must not overflow the stack");
    assert!(result);
}

#[test]
fn surrogate_pairs_decode() {
    let s: String = serde_json::from_str(r#""\uD83D\uDE00""#).unwrap();
    assert_eq!(s, "\u{1F600}");
    let s: String = serde_json::from_str(r#""\uDBFF\uDFFF""#).unwrap();
    assert_eq!(s, "\u{10FFFF}");
}

/// A high surrogate must be followed by a low one (`DC00..E000`); anything
/// else used to be combined unchecked: `"\uD800\u0041"` decoded to U+2441
/// in release builds and overflowed a subtraction in debug builds.
#[test]
fn invalid_surrogate_pairs_are_errors() {
    for text in [
        r#""\uD800\u0041""#, // high surrogate, then a non-surrogate
        r#""\uD800\uD800""#, // high surrogate, then another high one
        r#""\uD800\uE000""#, // just past the low-surrogate range
        r#""\uD800x""#,      // high surrogate, no second escape
        r#""\uDC00""#,       // lone low surrogate
    ] {
        assert!(
            serde_json::from_str::<String>(text).is_err(),
            "{text} must be rejected"
        );
    }
}
