// Lexer pin: char literals containing a quote or a brace must not
// derail string/brace tracking. If `'"'` opened a string, the next
// real string would flip to code and leak `partial_cmp` into the code
// channel; if `'{'` counted as a brace, test-region tracking would
// swallow the rest of the file.
pub fn chars() -> (char, char, char, usize) {
    let quote = '"';
    let open = '{';
    let escaped = '\u{10FFFF}';
    let s = "a.partial_cmp(b) inside a literal, not code";
    (quote, open, escaped, s.len())
}
