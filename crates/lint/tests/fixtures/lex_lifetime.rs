// Lexer pin: lifetime ticks are not char-literal openers. If `'a`
// started a literal, everything up to the next apostrophe would blank
// and the genuine violation at the bottom would be hidden.
pub struct Holder<'a> {
    name: &'a str,
}

pub fn pick<'a, 'b: 'a>(x: &'a str, _y: &'b str) -> &'a str {
    x
}

// A real D1 hit after heavy lifetime use proves the lexer is still
// reading code here.
pub fn comparable(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }
