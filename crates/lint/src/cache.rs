//! Incremental lint cache.
//!
//! Per-file analysis (token findings, pragmas, test ranges, parse
//! errors, function summaries) is pure in the file's content, so it is
//! cached under an FNV-64 content hash. On a warm run only changed
//! files are re-lexed/re-parsed; the workspace fixpoints (R10–R12)
//! always re-run, but they consume [`FnSummary`](crate::callgraph::FnSummary)
//! records only — no source access — so an unchanged workspace does
//! zero per-file re-analysis.
//!
//! The on-disk format is a line-oriented text file (the linter is
//! dependency-free, so no serde): one `F` header per file followed by
//! typed record lines. Strings are percent-escaped so every field is
//! whitespace-free. The format is versioned and **fail-closed**: any
//! unrecognized or malformed line discards the whole cache — a cold
//! run is always correct, a corrupt cache never is.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::ast::ParseError;
use crate::callgraph::{
    CallSite, FileFacts, FnSummary, HeldCall, LockAcq, LockEdge, PanicSite, Reason, SinkSite,
    TaintSet,
};
use crate::pragma::Pragma;
use crate::rules::{Finding, Severity, TokenAnalysis, RULES};

/// Bumped whenever the analyzer's output for unchanged source changes
/// (v2: capitalized bare pattern names are paths, not bindings), so a
/// cache written by an older analyzer is discarded, not trusted.
const VERSION: &str = "dta-lint-cache v2";

/// FNV-1a 64-bit content hash.
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything the workspace pass needs from one file, cacheable by
/// content hash.
#[derive(Debug, Clone)]
pub struct FileRecord {
    pub hash: u64,
    pub analysis: TokenAnalysis,
    pub parse_errors: Vec<ParseError>,
    pub facts: FileFacts,
}

/// The cache: relative path → record.
#[derive(Debug, Default)]
pub struct Cache {
    pub entries: BTreeMap<String, FileRecord>,
}

impl Cache {
    /// Load from `path`; any read or parse failure yields an empty
    /// cache (cold run).
    pub fn load(path: &Path) -> Cache {
        fs::read_to_string(path).ok().and_then(|s| parse_cache(&s)).unwrap_or_default()
    }

    /// The cached record for `rel`, valid only if the content hash
    /// still matches.
    pub fn lookup(&self, rel: &str, hash: u64) -> Option<&FileRecord> {
        self.entries.get(rel).filter(|r| r.hash == hash)
    }

    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(path, self.serialize())
    }

    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(VERSION);
        out.push('\n');
        for (rel, r) in &self.entries {
            out.push_str(&format!("F {} {:016x}\n", esc(rel), r.hash));
            for f in &r.analysis.findings {
                out.push_str(&format!(
                    "d {} {} {} {} {}\n",
                    f.rule,
                    f.severity.as_str(),
                    f.line,
                    f.col,
                    esc(&f.message)
                ));
            }
            for p in &r.analysis.pragmas {
                out.push_str(&format!(
                    "p {} {} {} {} {} {} {}\n",
                    p.line,
                    p.col,
                    p.covers.0,
                    p.covers.1,
                    esc(&p.rules.join(",")),
                    esc(&p.justification),
                    opt(p.error.as_deref())
                ));
            }
            for &(a, b) in &r.analysis.test_ranges {
                out.push_str(&format!("t {a} {b}\n"));
            }
            for e in &r.parse_errors {
                out.push_str(&format!("e {} {} {}\n", e.line, e.col, esc(&e.message)));
            }
            for &line in &r.facts.used_pragma_lines {
                out.push_str(&format!("u {line}\n"));
            }
            for f in &r.facts.fns {
                out.push_str(&format!(
                    "s {} {} {} {} {} {} {} {} {}\n",
                    esc(&f.crate_name),
                    esc(&f.modules.join(",")),
                    opt(f.impl_type.as_deref()),
                    esc(&f.name),
                    f.is_method as u8,
                    f.vis_pub as u8,
                    f.params,
                    f.name_line,
                    f.name_col
                ));
                for c in &f.calls {
                    out.push_str(&format!(
                        "c {} {} {} {} {} {} {}\n",
                        esc(&c.name),
                        opt(c.qualifier.as_deref()),
                        c.is_method as u8,
                        c.line,
                        c.col,
                        c.absorbed as u8,
                        enc_args(&c.args)
                    ));
                }
                for p in &f.panics {
                    out.push_str(&format!("k {} {} {}\n", esc(&p.kind), p.line, p.col));
                }
                for a in &f.acquires {
                    out.push_str(&format!("a {} {} {}\n", esc(&a.id), a.line, a.col));
                }
                for e in &f.lock_edges {
                    out.push_str(&format!(
                        "l {} {} {} {}\n",
                        esc(&e.held),
                        esc(&e.acquired),
                        e.line,
                        e.col
                    ));
                }
                for h in &f.held_calls {
                    out.push_str(&format!("h {} {}\n", esc(&h.held), h.call));
                }
                for s in &f.sinks {
                    out.push_str(&format!(
                        "z {} {} {} {}\n",
                        esc(&s.callee),
                        s.line,
                        s.col,
                        enc_set(&s.reasons)
                    ));
                }
                out.push_str(&format!("r {}\n", enc_set(&f.ret)));
            }
        }
        out
    }
}

// ── escaping ───────────────────────────────────────────────────────

/// Percent-escape everything outside `[A-Za-z0-9_./]`. The escaped
/// alphabet excludes whitespace, `-` (the None marker), `~` (the
/// empty-string marker), and the `, ; !` separators used by taint
/// encoding, so fields split cleanly.
fn esc(s: &str) -> String {
    if s.is_empty() {
        return "~".into();
    }
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'/' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    if s == "~" {
        return Some(String::new());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

fn opt(s: Option<&str>) -> String {
    match s {
        None => "-".into(),
        Some(s) => esc(s),
    }
}

fn unopt(s: &str) -> Option<Option<String>> {
    if s == "-" {
        Some(None)
    } else {
        unesc(s).map(Some)
    }
}

// ── taint encoding ─────────────────────────────────────────────────

fn enc_reason(r: &Reason) -> String {
    match r {
        Reason::Source { kind, line, col } => format!("S!{}!{line}!{col}", esc(kind)),
        Reason::Param(k) => format!("P!{k}"),
        Reason::Call(j) => format!("C!{j}"),
    }
}

fn dec_reason(s: &str) -> Option<Reason> {
    let parts: Vec<&str> = s.split('!').collect();
    match parts.as_slice() {
        ["S", kind, line, col] => Some(Reason::Source {
            kind: unesc(kind)?,
            line: line.parse().ok()?,
            col: col.parse().ok()?,
        }),
        ["P", k] => Some(Reason::Param(k.parse().ok()?)),
        ["C", j] => Some(Reason::Call(j.parse().ok()?)),
        _ => None,
    }
}

fn enc_set(set: &TaintSet) -> String {
    if set.is_empty() {
        return "~".into();
    }
    set.iter().map(enc_reason).collect::<Vec<_>>().join(",")
}

fn dec_set(s: &str) -> Option<TaintSet> {
    if s == "~" {
        return Some(TaintSet::new());
    }
    s.split(',').map(dec_reason).collect()
}

fn enc_args(args: &[TaintSet]) -> String {
    if args.is_empty() {
        return "-".into();
    }
    args.iter().map(enc_set).collect::<Vec<_>>().join(";")
}

fn dec_args(s: &str) -> Option<Vec<TaintSet>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(';').map(dec_set).collect()
}

// ── parsing ────────────────────────────────────────────────────────

fn dec_severity(s: &str) -> Option<Severity> {
    match s {
        "error" => Some(Severity::Error),
        "warning" => Some(Severity::Warning),
        _ => None,
    }
}

/// Map a parsed rule id back to its registered `&'static str`.
fn static_rule(id: &str) -> Option<&'static str> {
    RULES.iter().find(|r| r.id == id).map(|r| r.id)
}

fn parse_cache(text: &str) -> Option<Cache> {
    let mut lines = text.lines();
    if lines.next()? != VERSION {
        return None;
    }
    let mut entries = BTreeMap::new();
    let mut cur: Option<(String, FileRecord)> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (tag, rest) = line.split_at(line.find(' ')?);
        let rest = &rest[1..];
        let fields: Vec<&str> = rest.split(' ').collect();
        match tag {
            "F" => {
                if let Some((rel, rec)) = cur.take() {
                    entries.insert(rel, rec);
                }
                let [rel, hash] = fields.as_slice() else { return None };
                cur = Some((
                    unesc(rel)?,
                    FileRecord {
                        hash: u64::from_str_radix(hash, 16).ok()?,
                        analysis: TokenAnalysis::default(),
                        parse_errors: Vec::new(),
                        facts: FileFacts::default(),
                    },
                ));
            }
            "d" => {
                let (rel, rec) = cur.as_mut()?;
                let [rule, sev, line, col, msg] = fields.as_slice() else { return None };
                rec.analysis.findings.push(Finding {
                    rule: static_rule(rule)?,
                    severity: dec_severity(sev)?,
                    path: rel.clone(),
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                    message: unesc(msg)?,
                });
            }
            "p" => {
                let (_, rec) = cur.as_mut()?;
                let [line, col, c0, c1, rules, just, err] = fields.as_slice() else {
                    return None;
                };
                rec.analysis.pragmas.push(Pragma {
                    rules: {
                        let joined = unesc(rules)?;
                        if joined.is_empty() {
                            Vec::new()
                        } else {
                            joined.split(',').map(String::from).collect()
                        }
                    },
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                    covers: (c0.parse().ok()?, c1.parse().ok()?),
                    justification: unesc(just)?,
                    error: unopt(err)?,
                });
            }
            "t" => {
                let (_, rec) = cur.as_mut()?;
                let [a, b] = fields.as_slice() else { return None };
                rec.analysis.test_ranges.push((a.parse().ok()?, b.parse().ok()?));
            }
            "e" => {
                let (_, rec) = cur.as_mut()?;
                let [line, col, msg] = fields.as_slice() else { return None };
                rec.parse_errors.push(ParseError {
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                    message: unesc(msg)?,
                });
            }
            "u" => {
                let (_, rec) = cur.as_mut()?;
                let [line] = fields.as_slice() else { return None };
                rec.facts.used_pragma_lines.insert(line.parse().ok()?);
            }
            "s" => {
                let (rel, rec) = cur.as_mut()?;
                let [cr, mods, impl_ty, name, m, vp, params, nl, nc] = fields.as_slice() else {
                    return None;
                };
                rec.facts.fns.push(FnSummary {
                    file: rel.clone(),
                    crate_name: unesc(cr)?,
                    modules: {
                        let joined = unesc(mods)?;
                        if joined.is_empty() {
                            Vec::new()
                        } else {
                            joined.split(',').map(String::from).collect()
                        }
                    },
                    impl_type: unopt(impl_ty)?,
                    name: unesc(name)?,
                    is_method: *m == "1",
                    vis_pub: *vp == "1",
                    params: params.parse().ok()?,
                    name_line: nl.parse().ok()?,
                    name_col: nc.parse().ok()?,
                    calls: Vec::new(),
                    panics: Vec::new(),
                    acquires: Vec::new(),
                    lock_edges: Vec::new(),
                    held_calls: Vec::new(),
                    sinks: Vec::new(),
                    ret: TaintSet::new(),
                });
            }
            "c" => {
                let f = cur.as_mut().and_then(|(_, r)| r.facts.fns.last_mut())?;
                let [name, qual, m, line, col, abs, args] = fields.as_slice() else {
                    return None;
                };
                f.calls.push(CallSite {
                    name: unesc(name)?,
                    qualifier: unopt(qual)?,
                    is_method: *m == "1",
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                    absorbed: *abs == "1",
                    args: dec_args(args)?,
                });
            }
            "k" => {
                let f = cur.as_mut().and_then(|(_, r)| r.facts.fns.last_mut())?;
                let [kind, line, col] = fields.as_slice() else { return None };
                f.panics.push(PanicSite {
                    kind: unesc(kind)?,
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                });
            }
            "a" => {
                let f = cur.as_mut().and_then(|(_, r)| r.facts.fns.last_mut())?;
                let [id, line, col] = fields.as_slice() else { return None };
                f.acquires.push(LockAcq {
                    id: unesc(id)?,
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                });
            }
            "l" => {
                let f = cur.as_mut().and_then(|(_, r)| r.facts.fns.last_mut())?;
                let [held, acq, line, col] = fields.as_slice() else { return None };
                f.lock_edges.push(LockEdge {
                    held: unesc(held)?,
                    acquired: unesc(acq)?,
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                });
            }
            "h" => {
                let f = cur.as_mut().and_then(|(_, r)| r.facts.fns.last_mut())?;
                let [held, call] = fields.as_slice() else { return None };
                f.held_calls.push(HeldCall { held: unesc(held)?, call: call.parse().ok()? });
            }
            "z" => {
                let f = cur.as_mut().and_then(|(_, r)| r.facts.fns.last_mut())?;
                let [callee, line, col, reasons] = fields.as_slice() else { return None };
                f.sinks.push(SinkSite {
                    callee: unesc(callee)?,
                    line: line.parse().ok()?,
                    col: col.parse().ok()?,
                    reasons: dec_set(reasons)?,
                });
            }
            "r" => {
                let f = cur.as_mut().and_then(|(_, r)| r.facts.fns.last_mut())?;
                let [set] = fields.as_slice() else { return None };
                f.ret = dec_set(set)?;
            }
            _ => return None,
        }
    }
    if let Some((rel, rec)) = cur.take() {
        entries.insert(rel, rec);
    }
    Some(Cache { entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "has space", "a,b;c!d", "100%~-", "päth/ü.rs"] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
    }

    #[test]
    fn reason_round_trips() {
        let reasons = [
            Reason::Source { kind: "wall clock".into(), line: 3, col: 9 },
            Reason::Param(2),
            Reason::Call(7),
        ];
        for r in &reasons {
            assert_eq!(dec_reason(&enc_reason(r)).as_ref(), Some(r));
        }
    }

    #[test]
    fn corrupt_cache_loads_empty() {
        assert!(parse_cache("not a cache\n").is_none());
        assert!(parse_cache(&format!("{VERSION}\nX junk\n")).is_none());
        assert!(parse_cache("dta-lint-cache v1\n").is_none());
    }
}
