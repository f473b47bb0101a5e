//! Low-level output writer with token-boundary safety.

/// Indentation unit for pretty output.
const INDENT: &str = "    ";

/// Accumulates output text, inserting separating spaces where two adjacent
/// tokens would otherwise fuse into a different token (`a in b`, `x + +y`,
/// `a / /re/.source`).
#[derive(Debug)]
pub(crate) struct Writer {
    out: String,
    pub(crate) minify: bool,
    indent_level: usize,
    at_line_start: bool,
}

impl Writer {
    pub(crate) fn new(minify: bool) -> Self {
        Writer { out: String::new(), minify, indent_level: 0, at_line_start: true }
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }

    fn needs_space(last: char, next: char) -> bool {
        let ident_ish = |c: char| c.is_alphanumeric() || c == '_' || c == '$';
        (ident_ish(last) && ident_ish(next))
            // `static #x` — a `#` after an identifier is a private name
            // following a modifier keyword.
            || (ident_ish(last) && next == '#')
            || (last == '+' && next == '+')
            || (last == '-' && next == '-')
            || (last == '/' && next == '/')
            || (last == '/' && next == '*')
            || (last == '<' && next == '!')
    }

    /// Appends a token, inserting a space if the boundary is unsafe.
    pub(crate) fn token(&mut self, s: &str) {
        if s.is_empty() {
            return;
        }
        if self.at_line_start && !self.minify {
            for _ in 0..self.indent_level {
                self.out.push_str(INDENT);
            }
            self.at_line_start = false;
        }
        if let (Some(last), Some(next)) = (self.out.chars().last(), s.chars().next()) {
            if Self::needs_space(last, next) {
                self.out.push(' ');
            }
        }
        self.out.push_str(s);
    }

    /// Appends a space in pretty mode only.
    pub(crate) fn space(&mut self) {
        if !self.minify && !self.at_line_start {
            self.out.push(' ');
        }
    }

    /// Starts a new line in pretty mode (no-op when minifying).
    pub(crate) fn newline(&mut self) {
        if !self.minify {
            if !self.at_line_start {
                self.out.push('\n');
            }
            self.at_line_start = true;
        }
    }

    pub(crate) fn indent_inc(&mut self) {
        self.indent_level += 1;
    }

    pub(crate) fn indent_dec(&mut self) {
        self.indent_level = self.indent_level.saturating_sub(1);
    }

    /// Last character currently in the buffer.
    pub(crate) fn last_char(&self) -> Option<char> {
        self.out.chars().last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_space_between_identifier_tokens() {
        let mut w = Writer::new(true);
        w.token("var");
        w.token("x");
        assert_eq!(w.finish(), "var x");
    }

    #[test]
    fn no_space_between_punct_and_ident() {
        let mut w = Writer::new(true);
        w.token("(");
        w.token("x");
        w.token(")");
        assert_eq!(w.finish(), "(x)");
    }

    #[test]
    fn plus_plus_separated() {
        let mut w = Writer::new(true);
        w.token("a");
        w.token("+");
        w.token("+");
        w.token("b");
        assert_eq!(w.finish(), "a+ +b");
    }

    #[test]
    fn slash_slash_separated() {
        let mut w = Writer::new(true);
        w.token("a");
        w.token("/");
        w.token("/re/");
        assert_eq!(w.finish(), "a/ /re/");
    }

    #[test]
    fn pretty_mode_indents() {
        let mut w = Writer::new(false);
        w.token("{");
        w.newline();
        w.indent_inc();
        w.token("x");
        w.newline();
        w.indent_dec();
        w.token("}");
        assert_eq!(w.finish(), "{\n    x\n}");
    }
}
