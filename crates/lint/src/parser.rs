//! Recursive-descent parser from the lexer's token stream to the
//! [`crate::ast`] tree.
//!
//! Design rules, in order:
//!
//! 1. **Total.** Any token stream produces a [`SourceFile`]. A
//!    [`ParseError`] is emitted only for structural breakage — a stray
//!    closing delimiter at item level or an unclosed block — never for
//!    an unmodeled construct. Everything the grammar below does not
//!    model is consumed as one *balanced token tree* and becomes an
//!    `Opaque` node. This is what lets the self-parse test demand zero
//!    errors across `crates/` without the parser modeling all of Rust.
//! 2. **Exact where it matters.** Calls, method calls, `let` bindings,
//!    lock-guard scopes, closures, control flow, `match` arms (with
//!    guards), macro arguments, string literals, and index expressions
//!    are modeled with exact positions — they are what R10–R12 consume.
//! 3. **Single-character punctuation.** The lexer emits one token per
//!    punctuation character, so compound operators (`::`, `->`, `=>`,
//!    `..=`, `<<`) are recognized here by adjacency (same line,
//!    consecutive columns). `->` and `=>` are *never* treated as
//!    comparison operators, and angle-bracket skipping is
//!    arrow-aware.
//!
//! Known, deliberate approximations (all degrade to `Opaque` or to a
//! missed binding, never to a wrong span): struct/enum bodies are not
//! modeled; patterns are reduced to their bound names; qualified paths
//! (`<T as Trait>::f`) keep only the trailing segments.

use crate::ast::*;
use crate::lexer::{self, Token, TokenKind};

/// Parse `src` into a [`SourceFile`].
pub fn parse_source(src: &str) -> SourceFile {
    let tokens: Vec<Token> = lexer::lex(src).into_iter().filter(|t| t.is_code()).collect();
    parse_tokens(&tokens)
}

/// Parse an already-lexed, comment-free token stream.
pub fn parse_tokens(tokens: &[Token]) -> SourceFile {
    let mut p = Parser { toks: tokens, pos: 0, errors: Vec::new() };
    let items = p.parse_items(true);
    SourceFile { items, errors: p.errors }
}

const EXPR_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "break", "continue", "move", "true", "false",
    "let", "else", "in", "as", "where", "unsafe", "dyn", "ref", "mut", "pub", "fn", "impl",
    "struct", "enum", "trait", "mod", "use", "const", "static", "type",
];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    errors: Vec<ParseError>,
}

impl<'a> Parser<'a> {
    // ── token utilities ────────────────────────────────────────────

    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, ahead: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + ahead)
    }

    fn text(&self) -> &'a str {
        self.peek().map_or("", |t| t.text.as_str())
    }

    fn text_at(&self, ahead: usize) -> &'a str {
        self.peek_at(ahead).map_or("", |t| t.text.as_str())
    }

    fn at(&self, s: &str) -> bool {
        self.text() == s
    }

    fn at_ident(&self) -> bool {
        self.peek().is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn pos_of(&self, ahead: usize) -> (u32, u32) {
        self.peek_at(ahead).map_or((0, 0), |t| (t.line, t.col))
    }

    /// Whether the tokens at `pos + ahead` and `pos + ahead + 1` are
    /// physically adjacent (compound-operator glue).
    fn adjacent(&self, ahead: usize) -> bool {
        match (self.peek_at(ahead), self.peek_at(ahead + 1)) {
            (Some(a), Some(b)) => {
                a.line == b.line && b.col == a.col + a.text.chars().count() as u32
            }
            _ => false,
        }
    }

    /// Whether the next tokens spell the 2-character operator `ab`
    /// (adjacent).
    fn at2(&self, a: &str, b: &str) -> bool {
        self.at(a) && self.text_at(1) == b && self.adjacent(0)
    }

    /// `::` — adjacency not required (never ambiguous in real code).
    fn at_path_sep(&self) -> bool {
        self.at(":") && self.text_at(1) == ":"
    }

    fn eat2(&mut self, a: &str, b: &str) -> bool {
        if self.at2(a, b) {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    fn error(&mut self, line: u32, col: u32, message: impl Into<String>) {
        self.errors.push(ParseError { line, col, message: message.into() });
    }

    /// Consume one balanced token tree: a single token, or an opening
    /// delimiter through its matching close.
    fn skip_tree(&mut self) {
        let Some(t) = self.bump() else { return };
        let close = match t.text.as_str() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return,
        };
        let open = t.text.clone();
        let (line, col) = (t.line, t.col);
        let mut depth = 1u32;
        while depth > 0 {
            match self.bump() {
                Some(t) if t.text == open => depth += 1,
                Some(t) if t.text == close => depth -= 1,
                Some(_) => {}
                None => {
                    self.error(line, col, format!("unclosed `{open}`"));
                    return;
                }
            }
        }
    }

    /// Skip tokens until one of `stops` appears at delimiter depth 0.
    /// Balances `()`/`[]`/`{}` and (when `angles`) `<>`, with `->`
    /// arrow-awareness so `fn() -> T` cannot underflow the angle depth.
    /// The stop token is *not* consumed. Returns every identifier seen
    /// at depth 0 (type-head extraction feeds off this).
    fn skip_until(&mut self, stops: &[&str], angles: bool) -> Vec<String> {
        let mut idents = Vec::new();
        let mut paren = 0i32;
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            let s = t.text.as_str();
            if paren == 0 && angle == 0 && stops.contains(&s) {
                break;
            }
            // `->` / `=>`: consume as a unit so `>` cannot close an angle
            if (s == "-" || s == "=") && self.text_at(1) == ">" && self.adjacent(0) {
                self.pos += 2;
                continue;
            }
            match s {
                "(" | "[" | "{" => {
                    self.skip_tree();
                    continue;
                }
                ")" | "]" | "}" => {
                    if paren == 0 {
                        break; // stray closer: let the caller decide
                    }
                    paren -= 1;
                }
                "<" if angles => angle += 1,
                ">" if angles => angle = (angle - 1).max(0),
                _ => {
                    if t.kind == TokenKind::Ident && paren == 0 && angle == 0 {
                        idents.push(t.text.clone());
                    }
                }
            }
            self.pos += 1;
        }
        idents
    }

    /// Skip a balanced `<…>` group starting at `<` (generics,
    /// turbofish). Arrow-aware.
    fn skip_angles(&mut self) {
        let (line, col) = self.pos_of(0);
        if !self.eat("<") {
            return;
        }
        let mut depth = 1i32;
        while depth > 0 {
            match self.peek().map(|t| t.text.as_str()) {
                Some("-") | Some("=") if self.text_at(1) == ">" && self.adjacent(0) => {
                    self.pos += 2;
                }
                Some("<") => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(">") => {
                    depth -= 1;
                    self.pos += 1;
                }
                Some("(") | Some("[") | Some("{") => self.skip_tree(),
                Some(_) => self.pos += 1,
                None => {
                    self.error(line, col, "unclosed `<`");
                    return;
                }
            }
        }
    }

    // ── items ──────────────────────────────────────────────────────

    /// Parse items until EOF (`top == true`) or a closing `}`.
    fn parse_items(&mut self, top: bool) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None => {
                    if !top {
                        let (line, col) = self.toks.last().map_or((0, 0), |t| (t.line, t.col));
                        self.error(line, col, "unclosed item body");
                    }
                    break;
                }
                Some(t) if t.text == "}" => {
                    if top {
                        self.error(t.line, t.col, "stray `}` at item level");
                        self.pos += 1;
                        continue;
                    }
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    if let Some(item) = self.parse_item() {
                        items.push(item);
                    }
                }
            }
        }
        items
    }

    /// One item. Always makes progress; returns `None` only for
    /// attribute-only runs at EOF.
    fn parse_item(&mut self) -> Option<Item> {
        let cfg_test = self.parse_attrs();
        let (line, col) = self.pos_of(0);
        let vis_pub = self.parse_vis();
        // modifier keywords that may precede an item keyword
        loop {
            if ((self.at("unsafe") || self.at("async") || self.at("default"))
                && self.peek_at(1).is_some()
                && self.text_at(1) != "{")
                || (self.at("const") && (self.text_at(1) == "fn" || self.text_at(1) == "unsafe"))
            {
                self.pos += 1;
            } else if self.at("extern")
                && self.peek_at(1).is_some_and(|t| t.kind == TokenKind::Str)
                && self.text_at(2) == "fn"
            {
                self.pos += 2;
            } else {
                break;
            }
        }
        let item =
            |kind: ItemKind, name: String| Some(Item { kind, name, vis_pub, cfg_test, line, col });
        match self.text() {
            "use" => {
                self.pos += 1;
                self.skip_until(&[";"], false);
                self.eat(";");
                item(ItemKind::Use, String::new())
            }
            "mod" => {
                self.pos += 1;
                let name = self.ident_name();
                if self.eat(";") {
                    return item(ItemKind::Mod { items: Vec::new(), inline: false }, name);
                }
                if self.eat("{") {
                    let items = self.parse_items(false);
                    return item(ItemKind::Mod { items, inline: true }, name);
                }
                self.skip_tree();
                item(ItemKind::Opaque, name)
            }
            "fn" => {
                let (name, f) = self.parse_fn();
                item(ItemKind::Fn(Box::new(f)), name)
            }
            "const" | "static" => {
                let kind = if self.text() == "const" { ItemKind::Const } else { ItemKind::Static };
                self.pos += 1;
                self.eat("mut");
                let name = self.ident_name();
                self.skip_until(&[";"], false);
                self.eat(";");
                item(kind, name)
            }
            "struct" => {
                self.pos += 1;
                let name = self.ident_name();
                self.skip_until(&[";", "{", "("], true);
                if self.at("(") {
                    self.skip_tree(); // tuple struct fields
                    self.skip_until(&[";"], true); // possible where clause
                }
                if self.at("{") {
                    self.skip_tree();
                } else {
                    self.eat(";");
                }
                item(ItemKind::Struct, name)
            }
            "enum" | "union" => {
                self.pos += 1;
                let name = self.ident_name();
                self.skip_until(&["{"], true);
                self.skip_tree();
                item(ItemKind::Enum, name)
            }
            "trait" => {
                self.pos += 1;
                let name = self.ident_name();
                self.skip_until(&["{", ";"], true);
                if self.eat("{") {
                    let items = self.parse_items(false);
                    return item(ItemKind::Trait { items }, name);
                }
                self.eat(";");
                item(ItemKind::Trait { items: Vec::new() }, name)
            }
            "impl" => {
                self.pos += 1;
                if self.at("<") {
                    self.skip_angles();
                }
                let first = self.skip_until(&["for", "where", "{", ";"], true);
                let (self_ty, trait_head) = if self.eat("for") {
                    let second = self.skip_until(&["where", "{", ";"], true);
                    (type_head_of(&second), Some(type_head_of(&first)))
                } else {
                    (type_head_of(&first), None)
                };
                if self.at("where") {
                    self.skip_until(&["{", ";"], true);
                }
                if self.eat("{") {
                    let items = self.parse_items(false);
                    return item(ItemKind::Impl { trait_head, items }, self_ty);
                }
                self.eat(";");
                item(ItemKind::Impl { trait_head, items: Vec::new() }, self_ty)
            }
            "type" => {
                self.pos += 1;
                let name = self.ident_name();
                self.skip_until(&[";"], true);
                self.eat(";");
                item(ItemKind::TypeAlias, name)
            }
            "macro_rules" => {
                self.pos += 1; // macro_rules
                self.eat("!");
                let name = self.ident_name();
                self.skip_tree();
                item(ItemKind::MacroDef, name)
            }
            "extern" => {
                self.pos += 1;
                if self.at("crate") {
                    self.skip_until(&[";"], false);
                    self.eat(";");
                    return item(ItemKind::Extern, String::new());
                }
                if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                    self.pos += 1;
                }
                if self.at("{") {
                    self.skip_tree();
                } else {
                    self.skip_until(&[";"], false);
                    self.eat(";");
                }
                item(ItemKind::Extern, String::new())
            }
            "" => None,
            other => {
                // item-level macro invocation: `path::to::mac!(…);` —
                // consume it as one opaque item, not token-by-token
                if self.at_ident() {
                    let save = self.pos;
                    self.pos += 1;
                    while self.at_path_sep()
                        && self.peek_at(2).is_some_and(|t| t.kind == TokenKind::Ident)
                    {
                        self.pos += 3;
                    }
                    if self.at("!") && self.text_at(1) != "=" {
                        self.pos += 1;
                        self.skip_tree();
                        self.eat(";");
                        return item(ItemKind::Opaque, String::new());
                    }
                    self.pos = save;
                }
                // stray closers are structural errors; anything else is
                // one opaque balanced tree
                if matches!(other, ")" | "]") {
                    let (l, c) = self.pos_of(0);
                    self.error(l, c, format!("stray `{other}` at item level"));
                }
                self.skip_tree();
                item(ItemKind::Opaque, String::new())
            }
        }
    }

    /// Outer attributes (`#[…]`, `#![…]`); returns whether any is a
    /// `#[cfg(test)]`-style gate.
    fn parse_attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.at("#") {
            let start = self.pos;
            self.pos += 1;
            self.eat("!");
            if !self.at("[") {
                self.pos = start;
                break;
            }
            // scan the balanced body for cfg + test (not inside not(..))
            let body_start = self.pos;
            self.skip_tree();
            let body = &self.toks[body_start..self.pos];
            let has = |s: &str| body.iter().any(|t| t.text == s);
            if has("cfg") && has("test") && !has("not") {
                cfg_test = true;
            }
        }
        cfg_test
    }

    fn parse_vis(&mut self) -> bool {
        if self.at("pub") {
            self.pos += 1;
            if self.at("(") {
                self.skip_tree();
            }
            return true;
        }
        false
    }

    fn ident_name(&mut self) -> String {
        if self.at_ident() {
            return self.bump().map(|t| t.text.clone()).unwrap_or_default();
        }
        String::new()
    }

    /// `fn name(params) [-> T] [where …] { body }` — `fn` at cursor.
    fn parse_fn(&mut self) -> (String, FnItem) {
        self.eat("fn");
        let (name_line, name_col) = self.pos_of(0);
        let name = self.ident_name();
        if self.at("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        let mut has_self = false;
        if self.at("(") {
            let (pline, pcol) = self.pos_of(0);
            self.pos += 1;
            loop {
                while self.at("#") {
                    self.parse_attrs();
                }
                if self.eat(")") {
                    break;
                }
                if self.peek().is_none() {
                    self.error(pline, pcol, "unclosed parameter list");
                    break;
                }
                // `self` receivers: self | &self | &'a self | &mut self | mut self
                let save = self.pos;
                while self.at("&")
                    || self.at("mut")
                    || self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime)
                {
                    self.pos += 1;
                }
                if self.at("self") {
                    has_self = true;
                    self.pos += 1;
                    if self.eat(":") {
                        self.skip_until(&[",", ")"], true);
                    }
                    self.eat(",");
                    continue;
                }
                self.pos = save;
                // `name: Type` (possibly `mut name`); other patterns keep
                // the type but lose the name
                let mut pname = None;
                let save = self.pos;
                self.eat("mut");
                if self.at_ident() && self.text_at(1) == ":" && self.text_at(2) != ":" {
                    pname = Some(self.ident_name());
                    self.eat(":");
                } else {
                    self.pos = save;
                    self.skip_until(&[":", ",", ")"], false);
                    if !self.eat(":") {
                        // bodyless-signature type-only param
                        self.eat(",");
                        params.push(Param { name: None, ty: None });
                        continue;
                    }
                }
                let ty = self.parse_type(&[",", ")"]);
                params.push(Param { name: pname, ty: Some(ty) });
                self.eat(",");
            }
        }
        if self.eat2("-", ">") {
            self.skip_until(&["where", "{", ";", ","], true);
        }
        if self.at("where") {
            self.skip_until(&["{", ";"], true);
        }
        let body = if self.eat(";") {
            None
        } else if self.at("{") {
            Some(self.parse_block())
        } else {
            // malformed header: consume one tree to make progress
            self.skip_tree();
            None
        };
        (name, FnItem { params, body, has_self, name_line, name_col })
    }

    /// A type, consumed up to (not including) any of `stops` at depth 0.
    fn parse_type(&mut self, stops: &[&str]) -> TypeRef {
        let idents = self.skip_until(stops, true);
        TypeRef { head: type_head_of(&idents) }
    }

    // ── statements & blocks ────────────────────────────────────────

    /// `{ … }` with the cursor at `{`.
    fn parse_block(&mut self) -> Block {
        let (line, col) = self.pos_of(0);
        if !self.eat("{") {
            return Block { stmts: Vec::new(), line, col };
        }
        let mut stmts = Vec::new();
        loop {
            while self.at("#") {
                self.parse_attrs();
            }
            match self.peek() {
                None => {
                    self.error(line, col, "unclosed block");
                    break;
                }
                Some(t) if t.text == "}" => {
                    self.pos += 1;
                    break;
                }
                Some(t) if t.text == ";" => {
                    self.pos += 1;
                }
                Some(t) if t.text == "let" => {
                    let stmt_line = t.line;
                    stmts.push(Stmt::Let(self.parse_let(stmt_line)));
                }
                Some(t) if is_item_start(t, self.text_at(1)) => {
                    if let Some(item) = self.parse_item() {
                        stmts.push(Stmt::Item(item));
                    }
                }
                Some(t) if is_block_expr_start(t, self.text_at(1)) => {
                    // statement-position block-like expression: ends at
                    // its closing brace (Rust statement grammar), no
                    // postfix/binary continuation
                    let expr = self.parse_primary(false);
                    let semi = self.eat(";");
                    stmts.push(Stmt::Expr { expr, semi });
                }
                Some(_) => {
                    let expr = self.parse_expr(false);
                    let semi = self.eat(";");
                    stmts.push(Stmt::Expr { expr, semi });
                }
            }
        }
        Block { stmts, line, col }
    }

    /// `let pat[: ty] = init [else { … }];` — `let` at cursor.
    fn parse_let(&mut self, line: u32) -> LetStmt {
        self.eat("let");
        let pat = self.parse_pat(&[":", "=", ";"]);
        let ty = if self.eat(":") { Some(self.parse_type(&["=", ";"])) } else { None };
        let init = if self.at("=") && !self.at2("=", "=") {
            self.pos += 1;
            Some(self.parse_expr(false))
        } else {
            None
        };
        let els = if self.at("else") && self.text_at(1) == "{" {
            self.pos += 1;
            Some(self.parse_block())
        } else {
            None
        };
        self.eat(";");
        LetStmt { pat, ty, init, els, line }
    }

    /// A pattern, reduced to bound names, consumed up to any of `stops`
    /// at depth 0. A `"="` stop matches only plain `=` (never `==` or
    /// `=>`); a `"=>"` stop matches the arrow (match arms).
    fn parse_pat(&mut self, stops: &[&str]) -> Pat {
        let mut pat = Pat::default();
        let mut depth = 0i32;
        let mut plain = Vec::new(); // tokens seen, for `single` detection
        while let Some(t) = self.peek() {
            let s = t.text.as_str();
            if depth == 0 && s == "=" {
                let compound =
                    (self.text_at(1) == "=" || self.text_at(1) == ">") && self.adjacent(0);
                if compound && self.text_at(1) == ">" && stops.contains(&"=>") {
                    break; // match-arm arrow
                }
                if !compound && stops.contains(&"=") {
                    break; // let/if-let initializer
                }
                self.pos += if compound { 2 } else { 1 };
                plain.push("=");
                continue;
            }
            if depth == 0 && stops.contains(&s) {
                break;
            }
            match s {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            if t.kind == TokenKind::Ident && !EXPR_KEYWORDS.contains(&s) && s != "_" {
                // a binding unless it is a path segment (`A::B`), a
                // call-ish pattern head (`Some(` / `Point {`), a
                // struct-pattern field name (`x: sub`), or a capitalized
                // bare name — a unit variant or constant (`None`, `MAX`),
                // which Rust resolves as a path, never as a new binding
                let next = self.text_at(1);
                let next2 = self.text_at(2);
                let is_path_seg = next == ":" && next2 == ":";
                let is_ctor = next == "(" || next == "{" || next == "!";
                let is_field_name = next == ":" && next2 != ":";
                let is_const = s.starts_with(|c: char| c.is_ascii_uppercase());
                if !is_path_seg && !is_ctor && !is_field_name && !is_const {
                    pat.names.push(t.text.clone());
                }
            }
            plain.push(if t.kind == TokenKind::Ident { "i" } else { "p" });
            self.pos += 1;
        }
        // single plain binding: `[ref] [mut] name`
        if pat.names.len() == 1 && plain.iter().all(|&s| s == "i") {
            pat.single = Some(pat.names[0].clone());
        }
        pat
    }

    // ── expressions ────────────────────────────────────────────────

    fn parse_expr(&mut self, no_struct: bool) -> Expr {
        self.parse_assign(no_struct)
    }

    fn parse_assign(&mut self, no_struct: bool) -> Expr {
        let lhs = self.parse_range(no_struct);
        if self.at_assign_op() {
            let (line, col) = (lhs.line, lhs.col);
            self.eat_assign_op();
            let rhs = self.parse_assign(no_struct);
            return Expr {
                kind: ExprKind::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs) },
                line,
                col,
            };
        }
        lhs
    }

    /// `=`, `+=`, `-=`, … — but never `==` or `=>`.
    fn at_assign_op(&self) -> bool {
        if self.at("=") {
            return !((self.text_at(1) == "=" || self.text_at(1) == ">") && self.adjacent(0));
        }
        if matches!(self.text(), "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|")
            && self.text_at(1) == "="
            && self.adjacent(0)
            && !(self.text_at(2) == "=" && self.adjacent(1))
        {
            return true;
        }
        // `<<=` / `>>=`
        (self.at2("<", "<") || self.at2(">", ">")) && self.text_at(2) == "=" && self.adjacent(1)
    }

    fn eat_assign_op(&mut self) {
        if self.eat("=") {
            return;
        }
        if self.at2("<", "<") || self.at2(">", ">") {
            self.pos += 3;
            return;
        }
        self.pos += 2;
    }

    fn parse_range(&mut self, no_struct: bool) -> Expr {
        if self.at2(".", ".") {
            let (line, col) = self.pos_of(0);
            self.pos += 2;
            if self.text() == "=" {
                self.pos += 1;
            }
            let hi = if self.starts_expr() {
                Some(Box::new(self.parse_binary(0, no_struct)))
            } else {
                None
            };
            return Expr { kind: ExprKind::Range { lo: None, hi }, line, col };
        }
        let lo = self.parse_binary(0, no_struct);
        if self.at2(".", ".") {
            let (line, col) = (lo.line, lo.col);
            self.pos += 2;
            if self.text() == "=" {
                self.pos += 1;
            }
            let hi = if self.starts_expr() {
                Some(Box::new(self.parse_binary(0, no_struct)))
            } else {
                None
            };
            return Expr { kind: ExprKind::Range { lo: Some(Box::new(lo)), hi }, line, col };
        }
        lo
    }

    /// Whether the next token can begin an expression (range-bound
    /// lookahead).
    fn starts_expr(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match t.text.as_str() {
                ")" | "]" | "}" | "," | ";" | "{" => false,
                "=" => false,
                _ => !matches!(t.text.as_str(), ">" | "<" if false),
            },
        }
    }

    /// Binary operators by precedence-climbing. `min_prec` is the
    /// lowest precedence this level may consume.
    fn parse_binary(&mut self, min_prec: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_unary(no_struct);
        while let Some((prec, len)) = self.peek_binary_op() {
            if prec < min_prec {
                break;
            }
            self.pos += len;
            let rhs = self.parse_binary(prec + 1, no_struct);
            let (line, col) = (lhs.line, lhs.col);
            lhs = Expr {
                kind: ExprKind::Binary { lhs: Box::new(lhs), rhs: Box::new(rhs) },
                line,
                col,
            };
        }
        lhs
    }

    /// `(precedence, token_count)` of the binary operator at the
    /// cursor, if any. Excludes `->`, `=>`, assignment forms, and `..`.
    fn peek_binary_op(&self) -> Option<(u8, usize)> {
        if self.at_assign_op() {
            return None;
        }
        let t0 = self.text();
        let t1 = self.text_at(1);
        let adj = self.adjacent(0);
        match t0 {
            "|" if t1 == "|" && adj => Some((1, 2)),
            "&" if t1 == "&" && adj => Some((2, 2)),
            "=" if t1 == "=" && adj => Some((3, 2)),
            "!" if t1 == "=" && adj => Some((3, 2)),
            "<" if t1 == "=" && adj => Some((3, 2)),
            ">" if t1 == "=" && adj => Some((3, 2)),
            "<" if t1 == "<" && adj => Some((7, 2)),
            ">" if t1 == ">" && adj => Some((7, 2)),
            "<" | ">" => Some((3, 1)),
            "|" => Some((4, 1)),
            "^" => Some((5, 1)),
            "&" => Some((6, 1)),
            "+" | "-" => Some((8, 1)),
            "*" | "/" | "%" => Some((9, 1)),
            _ => None,
        }
    }

    fn parse_unary(&mut self, no_struct: bool) -> Expr {
        let (line, col) = self.pos_of(0);
        match self.text() {
            "-" | "!" | "*" => {
                self.pos += 1;
                let expr = self.parse_unary(no_struct);
                Expr { kind: ExprKind::Unary { expr: Box::new(expr) }, line, col }
            }
            "&" => {
                self.pos += 1;
                self.eat("mut");
                let expr = self.parse_unary(no_struct);
                Expr { kind: ExprKind::Ref { expr: Box::new(expr) }, line, col }
            }
            _ => self.parse_postfix(no_struct),
        }
    }

    fn parse_postfix(&mut self, no_struct: bool) -> Expr {
        let mut e = self.parse_primary(no_struct);
        loop {
            if self.at(".") && !self.at2(".", ".") {
                self.pos += 1;
                // tuple-field access: `.0`, and the lexer's `.0.1` fusion
                if self.peek().is_some_and(|t| t.kind == TokenKind::Num) {
                    let t = self.bump().expect("peeked number");
                    for part in t.text.split('.') {
                        let (line, col) = (e.line, e.col);
                        e = Expr {
                            kind: ExprKind::Field { recv: Box::new(e), name: part.to_string() },
                            line,
                            col,
                        };
                    }
                    continue;
                }
                let (name_line, name_col) = self.pos_of(0);
                let name = self.ident_name();
                if name.is_empty() {
                    continue; // malformed `.`; primary loop will progress
                }
                if self.at_path_sep() && self.text_at(2) == "<" {
                    self.pos += 2;
                    self.skip_angles(); // turbofish
                }
                if self.at("(") {
                    let args = self.parse_call_args();
                    let (line, col) = (e.line, e.col);
                    e = Expr {
                        kind: ExprKind::MethodCall {
                            recv: Box::new(e),
                            name,
                            args,
                            name_line,
                            name_col,
                        },
                        line,
                        col,
                    };
                } else {
                    let (line, col) = (e.line, e.col);
                    e = Expr { kind: ExprKind::Field { recv: Box::new(e), name }, line, col };
                }
                continue;
            }
            if self.at("(") {
                let args = self.parse_call_args();
                let (line, col) = (e.line, e.col);
                e = Expr { kind: ExprKind::Call { callee: Box::new(e), args }, line, col };
                continue;
            }
            if self.at("[") {
                let (bracket_line, bracket_col) = self.pos_of(0);
                self.pos += 1;
                let index = self.parse_expr(false);
                self.eat("]");
                let (line, col) = (e.line, e.col);
                e = Expr {
                    kind: ExprKind::Index {
                        recv: Box::new(e),
                        index: Box::new(index),
                        bracket_line,
                        bracket_col,
                    },
                    line,
                    col,
                };
                continue;
            }
            if self.at("?") {
                self.pos += 1;
                let (line, col) = (e.line, e.col);
                e = Expr { kind: ExprKind::Try { expr: Box::new(e) }, line, col };
                continue;
            }
            if self.at("as") {
                self.pos += 1;
                self.parse_cast_type();
                let (line, col) = (e.line, e.col);
                e = Expr { kind: ExprKind::Cast { expr: Box::new(e) }, line, col };
                continue;
            }
            break;
        }
        e
    }

    /// The narrow type grammar allowed after `as`: `&`/`*` prefixes and
    /// a path with optional generics.
    fn parse_cast_type(&mut self) {
        while self.at("&") || self.at("*") || self.at("mut") || self.at("const") {
            self.pos += 1;
        }
        while self.at_ident() {
            self.pos += 1;
            if self.at("<") {
                self.skip_angles();
            }
            if self.at_path_sep() {
                self.pos += 2;
            } else {
                break;
            }
        }
        if self.at("(") {
            self.skip_tree(); // fn-pointer / tuple cast targets
        }
    }

    fn parse_call_args(&mut self) -> Vec<Expr> {
        let (line, col) = self.pos_of(0);
        self.eat("(");
        let mut args = Vec::new();
        loop {
            if self.eat(")") {
                break;
            }
            if self.peek().is_none() {
                self.error(line, col, "unclosed call arguments");
                break;
            }
            args.push(self.parse_expr(false));
            if !self.eat(",") && !self.at(")") {
                // stuck inside malformed args: consume one tree
                self.skip_tree();
            }
        }
        args
    }

    fn parse_primary(&mut self, no_struct: bool) -> Expr {
        while self.at("#") {
            self.parse_attrs(); // expression attributes
        }
        let Some(t) = self.peek() else {
            return Expr { kind: ExprKind::Opaque, line: 0, col: 0 };
        };
        let (line, col) = (t.line, t.col);
        let mk = |kind: ExprKind| Expr { kind, line, col };
        match t.kind {
            TokenKind::Num | TokenKind::Char => {
                self.pos += 1;
                return mk(ExprKind::Lit);
            }
            TokenKind::Str => {
                let text = t.text.clone();
                self.pos += 1;
                return mk(ExprKind::StrLit(str_content(&text)));
            }
            TokenKind::Lifetime => {
                // loop label: `'a: loop { … }` / `break 'a value`
                self.pos += 1;
                self.eat(":");
                return self.parse_primary(no_struct);
            }
            _ => {}
        }
        match self.text() {
            "if" => self.parse_if(),
            "match" => self.parse_match(),
            "while" => {
                self.pos += 1;
                let pat = if self.eat("let") {
                    let p = self.parse_pat(&["="]);
                    self.eat("=");
                    Some(p)
                } else {
                    None
                };
                let cond = self.parse_expr(true);
                let body = self.parse_block();
                mk(ExprKind::While { pat, cond: Box::new(cond), body })
            }
            "for" => {
                self.pos += 1;
                let pat = self.parse_pat(&["in"]);
                self.eat("in");
                let iter = self.parse_expr(true);
                let body = self.parse_block();
                mk(ExprKind::For { pat, iter: Box::new(iter), body })
            }
            "loop" => {
                self.pos += 1;
                mk(ExprKind::Loop { body: self.parse_block() })
            }
            "unsafe" if self.text_at(1) == "{" => {
                self.pos += 1;
                mk(ExprKind::Block(self.parse_block()))
            }
            "return" => {
                self.pos += 1;
                let value = if self.starts_expr() {
                    Some(Box::new(self.parse_expr(no_struct)))
                } else {
                    None
                };
                mk(ExprKind::Return(value))
            }
            "break" => {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.pos += 1;
                }
                let value = if self.starts_expr() {
                    Some(Box::new(self.parse_expr(no_struct)))
                } else {
                    None
                };
                mk(ExprKind::Break(value))
            }
            "continue" => {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.pos += 1;
                }
                mk(ExprKind::Continue)
            }
            "move" => {
                self.pos += 1;
                self.parse_closure(line, col)
            }
            "|" => self.parse_closure(line, col),
            "(" => {
                self.pos += 1;
                let mut elems = Vec::new();
                let mut trailing_comma = false;
                loop {
                    if self.eat(")") {
                        break;
                    }
                    if self.peek().is_none() {
                        self.error(line, col, "unclosed `(`");
                        break;
                    }
                    elems.push(self.parse_expr(false));
                    trailing_comma = self.eat(",");
                    if !trailing_comma && !self.at(")") {
                        self.skip_tree();
                    }
                }
                if elems.len() == 1 && !trailing_comma {
                    elems.pop().expect("one parenthesized element")
                } else {
                    mk(ExprKind::Tuple(elems))
                }
            }
            "[" => {
                self.pos += 1;
                let mut elems = Vec::new();
                loop {
                    if self.eat("]") {
                        break;
                    }
                    if self.peek().is_none() {
                        self.error(line, col, "unclosed `[`");
                        break;
                    }
                    elems.push(self.parse_expr(false));
                    if self.eat(";") {
                        // `[value; len]`
                        elems.push(self.parse_expr(false));
                        self.eat("]");
                        break;
                    }
                    if !self.eat(",") && !self.at("]") {
                        self.skip_tree();
                    }
                }
                mk(ExprKind::Array(elems))
            }
            "{" => mk(ExprKind::Block(self.parse_block())),
            "<" => {
                // qualified path `<T as Trait>::assoc(…)`: keep the tail
                self.skip_angles();
                if self.at_path_sep() {
                    self.pos += 2;
                    return self.parse_path_expr(line, col, no_struct);
                }
                mk(ExprKind::Opaque)
            }
            _ if self.at_ident() => {
                if self.at("true") || self.at("false") {
                    self.pos += 1;
                    return mk(ExprKind::Lit);
                }
                self.parse_path_expr(line, col, no_struct)
            }
            _ => {
                self.skip_tree();
                mk(ExprKind::Opaque)
            }
        }
    }

    fn parse_closure(&mut self, line: u32, col: u32) -> Expr {
        let mut params = Vec::new();
        if self.at2("|", "|") {
            self.pos += 2;
        } else if self.eat("|") {
            loop {
                if self.eat("|") {
                    break;
                }
                if self.peek().is_none() {
                    self.error(line, col, "unclosed closure parameters");
                    break;
                }
                self.eat("mut");
                self.eat("&");
                if self.at_ident() && self.text() != "_" {
                    params.push(self.ident_name());
                } else {
                    self.skip_tree();
                }
                if self.eat(":") {
                    self.skip_until(&[",", "|"], true);
                }
                self.eat(",");
            }
        }
        if self.eat2("-", ">") {
            self.skip_until(&["{"], true);
        }
        let body = self.parse_expr(false);
        Expr { kind: ExprKind::Closure { params, body: Box::new(body) }, line, col }
    }

    fn parse_if(&mut self) -> Expr {
        let (line, col) = self.pos_of(0);
        self.eat("if");
        let pat = if self.eat("let") {
            let p = self.parse_pat(&["="]);
            self.eat("=");
            Some(p)
        } else {
            None
        };
        let cond = self.parse_expr(true);
        let then = self.parse_block();
        let els = if self.eat("else") {
            if self.at("if") {
                Some(Box::new(self.parse_if()))
            } else {
                let b = self.parse_block();
                Some(Box::new(Expr { kind: ExprKind::Block(b), line, col }))
            }
        } else {
            None
        };
        Expr { kind: ExprKind::If { pat, cond: Box::new(cond), then, els }, line, col }
    }

    fn parse_match(&mut self) -> Expr {
        let (line, col) = self.pos_of(0);
        self.eat("match");
        let scrutinee = self.parse_expr(true);
        let mut arms = Vec::new();
        if self.eat("{") {
            loop {
                while self.at("#") {
                    self.parse_attrs();
                }
                if self.eat("}") {
                    break;
                }
                if self.peek().is_none() {
                    self.error(line, col, "unclosed match body");
                    break;
                }
                let pat = self.parse_pat(&["=>", "if"]);
                let guard = if self.eat("if") {
                    let g = self.parse_expr(false);
                    // the guard ends at `=>`; parse_pat's stop covers it
                    Some(g)
                } else {
                    None
                };
                if !self.eat2("=", ">") {
                    // malformed arm: consume one tree and resync
                    self.skip_tree();
                    continue;
                }
                let body = self.parse_expr(false);
                self.eat(",");
                arms.push(Arm { pat, guard, body });
            }
        }
        Expr { kind: ExprKind::Match { scrutinee: Box::new(scrutinee), arms }, line, col }
    }

    /// Path expression and its immediate continuations: macro call,
    /// function call path, struct literal, or a bare path.
    fn parse_path_expr(&mut self, line: u32, col: u32, no_struct: bool) -> Expr {
        let mut segs = vec![self.ident_name()];
        loop {
            if self.at_path_sep() {
                if self.text_at(2) == "<" {
                    self.pos += 2;
                    self.skip_angles(); // turbofish — not a segment
                    continue;
                }
                if self.peek_at(2).is_some_and(|t| t.kind == TokenKind::Ident) {
                    self.pos += 2;
                    segs.push(self.ident_name());
                    continue;
                }
            }
            break;
        }
        let mk = |kind: ExprKind| Expr { kind, line, col };
        if self.at("!") && self.text_at(1) != "=" {
            self.pos += 1;
            let args = self.parse_macro_args();
            return mk(ExprKind::MacroCall { path: segs, args });
        }
        if self.at("{") && !no_struct && self.looks_like_struct_lit() {
            return self.parse_struct_lit(segs, line, col);
        }
        mk(ExprKind::Path(segs))
    }

    /// After a path at `{`: decide struct literal vs. block that merely
    /// follows (the `if path {` case is already excluded by
    /// `no_struct`).
    fn looks_like_struct_lit(&self) -> bool {
        // `{ ident: …`, `{ ident , `, `{ ident }`, `{ .. base }`, `{ }`
        let t1 = self.text_at(1);
        let t2 = self.text_at(2);
        if t1 == "}" {
            return true;
        }
        if t1 == "." && t2 == "." {
            return true;
        }
        self.peek_at(1).is_some_and(|t| t.kind == TokenKind::Ident)
            && (t2 == ":" || t2 == "," || t2 == "}")
            && self.text_at(3) != ":"
    }

    fn parse_struct_lit(&mut self, path: Vec<String>, line: u32, col: u32) -> Expr {
        self.eat("{");
        let mut fields = Vec::new();
        loop {
            while self.at("#") {
                self.parse_attrs();
            }
            if self.eat("}") {
                break;
            }
            if self.peek().is_none() {
                self.error(line, col, "unclosed struct literal");
                break;
            }
            if self.at2(".", ".") {
                self.pos += 2;
                fields.push(self.parse_expr(false)); // `..base`
                self.eat(",");
                continue;
            }
            let (fline, fcol) = self.pos_of(0);
            let name = self.ident_name();
            if name.is_empty() {
                self.skip_tree();
                continue;
            }
            if self.eat(":") {
                fields.push(self.parse_expr(false));
            } else {
                // field shorthand: `name` is also the value expression
                fields.push(Expr { kind: ExprKind::Path(vec![name]), line: fline, col: fcol });
            }
            self.eat(",");
        }
        Expr { kind: ExprKind::StructLit { path, fields }, line, col }
    }

    /// Macro arguments: the balanced delimiter body, split on top-level
    /// commas, each chunk parsed as an expression when possible.
    fn parse_macro_args(&mut self) -> Vec<Expr> {
        let close = match self.text() {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return Vec::new(),
        };
        let open = self.text().to_string();
        let (line, col) = self.pos_of(0);
        self.pos += 1;
        let body_start = self.pos;
        let mut depth = 1u32;
        while depth > 0 {
            match self.peek().map(|t| t.text.as_str()) {
                Some(s) if s == open => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(s) if s == close => {
                    depth -= 1;
                    self.pos += 1;
                }
                Some("(") | Some("[") | Some("{") => self.skip_tree(),
                Some(_) => self.pos += 1,
                None => {
                    self.error(line, col, format!("unclosed macro `{open}`"));
                    break;
                }
            }
        }
        let body_end = self.pos.saturating_sub(1).max(body_start);
        let body = &self.toks[body_start..body_end];
        // split on depth-0 commas and parse each chunk independently
        let mut args = Vec::new();
        let mut chunk_start = 0usize;
        let mut d = 0i32;
        for (i, t) in body.iter().enumerate().chain(std::iter::once((body.len(), &SENTINEL))) {
            let s = if i == body.len() { "," } else { t.text.as_str() };
            match s {
                "(" | "[" | "{" => d += 1,
                ")" | "]" | "}" => d -= 1,
                "," if d == 0 => {
                    let chunk = &body[chunk_start..i.min(body.len())];
                    if !chunk.is_empty() {
                        let mut sub = Parser { toks: chunk, pos: 0, errors: Vec::new() };
                        let expr = sub.parse_expr(false);
                        // accept only chunks that parse completely (a
                        // `matches!` pattern arm, say, does not)
                        if sub.pos == chunk.len() && sub.errors.is_empty() {
                            args.push(expr);
                        }
                    }
                    chunk_start = i + 1;
                }
                _ => {}
            }
        }
        args
    }
}

static SENTINEL: Token = Token { kind: TokenKind::Punct, text: String::new(), line: 0, col: 0 };

/// Whether a statement-position token starts an *item*.
fn is_item_start(t: &Token, next: &str) -> bool {
    if t.kind != TokenKind::Ident {
        return false;
    }
    match t.text.as_str() {
        "fn" | "struct" | "enum" | "union" | "trait" | "mod" | "use" | "impl" | "static"
        | "type" | "macro_rules" => true,
        "const" => next == "fn" || next != "{", // `const NAME`/`const fn` vs `const {}` blocks
        "unsafe" => next == "fn" || next == "impl" || next == "trait",
        "pub" => true,
        _ => false,
    }
}

/// Whether a statement-position token begins a block-like expression
/// that terminates at its closing brace (no binary/postfix
/// continuation), matching Rust's statement grammar.
fn is_block_expr_start(t: &Token, next: &str) -> bool {
    if t.kind == TokenKind::Lifetime {
        return true; // labeled loop
    }
    if t.kind != TokenKind::Ident {
        return t.text == "{";
    }
    match t.text.as_str() {
        "if" | "match" | "while" | "for" | "loop" => true,
        "unsafe" => next == "{",
        _ => false,
    }
}

/// Head identifier of a type, from its depth-0 identifier run:
/// the last path segment before generics, skipping `mut`, `dyn`,
/// `impl`, and reference noise (already excluded — these come from
/// [`Parser::skip_until`], which only reports identifiers).
fn type_head_of(idents: &[String]) -> String {
    idents
        .iter()
        .rfind(|s| !matches!(s.as_str(), "mut" | "dyn" | "impl" | "const"))
        .cloned()
        .unwrap_or_default()
}

/// The content of a string-literal token (quotes, raw markers, and
/// prefixes stripped; escapes left as written — consumers only measure
/// or compare).
fn str_content(text: &str) -> String {
    let Some(start) = text.find('"') else { return String::new() };
    let end = text.rfind('"').unwrap_or(text.len());
    if end > start + 1 {
        text[start + 1..end].to_string()
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_head_skips_qualifiers() {
        let idents = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(type_head_of(&idents(&["std", "collections", "HashMap"])), "HashMap");
        assert_eq!(type_head_of(&idents(&["dyn", "Fn"])), "Fn");
        assert_eq!(type_head_of(&idents(&[])), "");
    }

    #[test]
    fn str_content_strips_delimiters() {
        assert_eq!(str_content("\"abc\""), "abc");
        assert_eq!(str_content("r#\"raw body\"#"), "raw body");
        assert_eq!(str_content("\"\""), "");
    }
}
