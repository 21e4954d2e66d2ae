// Lexer pin: byte strings and raw byte strings are literals — their
// bodies must be blanked, so the rule-looking tokens inside them must
// not produce hits.
pub fn byte_strings() -> usize {
    let a = b"a.partial_cmp(b) and .unwrap() live here";
    let b = br#"unsafe { Instant::now() } } { "#;
    let c = br##"nested "# close attempt, still one literal"##;
    a.len() + b.len() + c.len()
}
