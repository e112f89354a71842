//! Rule family 2: the wire-protocol registry.
//!
//! Cross-parses `messages/src/sysmsg.rs` (the `SysMsg` enum) and
//! `neutrino-net/src/framing.rs` (the `TAG_*` constants plus the
//! `encode_sysmsg` / `decode_sysmsg` match arms) and verifies the
//! variant ⇄ tag mapping is **total** (every variant encoded and decoded),
//! **injective** (no tag reuse), **gap-free** (tag values are a contiguous
//! `1..=N`), and **consistent** (encoder and decoder agree per variant).
//! This is the check that would have rejected a half-added "tag 17"
//! (`ResyncBehind`, PR 4) at CI time.

use crate::findings::Finding;
use crate::lexer::{lex, TokKind, Token};

/// All findings use this rule id (allowlistable as one family).
const RULE: &str = "wire-contract";

/// Run the wire-contract checks.
///
/// `sysmsg_path`/`framing_path` are labels for findings; the `*_src`
/// arguments are the file contents.
pub fn check(
    sysmsg_path: &str,
    sysmsg_src: &str,
    framing_path: &str,
    framing_src: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sys = lex(sysmsg_src);
    let fra = lex(framing_src);

    let variants = enum_variants(&sys.tokens, "SysMsg");
    if variants.is_empty() {
        findings.push(Finding {
            file: sysmsg_path.into(),
            line: 1,
            rule: RULE.into(),
            message: "could not find `enum SysMsg` — wire contract unverifiable".into(),
        });
        return findings;
    }

    let tags = tag_consts(&fra.tokens);
    if tags.is_empty() {
        findings.push(Finding {
            file: framing_path.into(),
            line: 1,
            rule: RULE.into(),
            message: "no `TAG_*` constants found — wire contract unverifiable".into(),
        });
        return findings;
    }

    let encode = encode_arms(&fra.tokens);
    let decode = decode_arms(&fra.tokens);

    let mut push = |file: &str, line: u32, message: String| {
        findings.push(Finding { file: file.into(), line, rule: RULE.into(), message });
    };

    // Tag registry itself: injective values, gap-free 1..=N.
    let mut by_value: Vec<(u64, &str)> = tags.iter().map(|t| (t.value, t.name.as_str())).collect();
    by_value.sort_unstable();
    for w in by_value.windows(2) {
        if w[0].0 == w[1].0 {
            push(
                framing_path,
                tags.iter().find(|t| t.name == w[1].1).map_or(1, |t| t.line),
                format!("tag value {} assigned to both {} and {}", w[0].0, w[0].1, w[1].1),
            );
        }
    }
    for (idx, (v, name)) in by_value.iter().enumerate() {
        let expect = idx as u64 + 1;
        if *v != expect && by_value.iter().all(|(x, _)| *x != expect) {
            push(
                framing_path,
                tags.iter().find(|t| t.name == *name).map_or(1, |t| t.line),
                format!("tag values have a gap: expected {expect}, found {v} ({name}); keep tags contiguous 1..=N"),
            );
            break;
        }
    }

    // Totality: every variant appears in both encoder and decoder.
    for v in &variants {
        if !encode.iter().any(|(var, _, _)| var == &v.name) {
            push(
                framing_path,
                v.line,
                format!("SysMsg::{} has no arm in encode_sysmsg (variant declared at {sysmsg_path}:{})", v.name, v.line),
            );
        }
        if !decode.iter().any(|(_, var, _)| var == &v.name) {
            push(
                framing_path,
                v.line,
                format!("SysMsg::{} has no arm in decode_sysmsg (variant declared at {sysmsg_path}:{})", v.name, v.line),
            );
        }
    }

    // Encoder: injective (no two variants share a tag, no variant twice),
    // and every arm must actually emit a tag.
    for (i, (var, tag, line)) in encode.iter().enumerate() {
        match tag {
            None => push(framing_path, *line, format!("encode arm for SysMsg::{var} never writes a TAG_* byte")),
            Some(t) => {
                for (var2, tag2, _) in encode.iter().skip(i + 1) {
                    if tag2.as_deref() == Some(t) && var2 != var {
                        push(framing_path, *line, format!("encoder maps both SysMsg::{var} and SysMsg::{var2} to {t}"));
                    }
                }
                if !tags.iter().any(|c| &c.name == t) {
                    push(framing_path, *line, format!("encode arm for SysMsg::{var} uses undeclared tag {t}"));
                }
            }
        }
        for (var2, _, _) in encode.iter().skip(i + 1) {
            if var2 == var {
                push(framing_path, *line, format!("duplicate encode arm for SysMsg::{var}"));
            }
        }
    }

    // Decoder: injective over tags and consistent with the encoder.
    for (i, (tag, var, line)) in decode.iter().enumerate() {
        for (tag2, var2, line2) in decode.iter().skip(i + 1) {
            if tag2 == tag {
                push(framing_path, *line2, format!("duplicate decode arm for {tag} (first at line {line}; second yields SysMsg::{var2})"));
            }
        }
        if let Some((_, enc_tag, _)) = encode.iter().find(|(v, _, _)| v == var) {
            if enc_tag.as_deref() != Some(tag.as_str()) {
                push(
                    framing_path,
                    *line,
                    format!(
                        "decoder maps {tag} to SysMsg::{var} but the encoder writes {} for that variant",
                        enc_tag.as_deref().unwrap_or("<none>")
                    ),
                );
            }
        }
    }

    // Every declared tag must be exercised by both sides.
    for t in &tags {
        if !encode.iter().any(|(_, tag, _)| tag.as_deref() == Some(t.name.as_str())) {
            push(framing_path, t.line, format!("{} is declared but never written by encode_sysmsg", t.name));
        }
        if !decode.iter().any(|(tag, _, _)| tag == &t.name) {
            push(framing_path, t.line, format!("{} is declared but never matched by decode_sysmsg", t.name));
        }
    }

    findings
}

/// A parsed enum variant.
pub(crate) struct Variant {
    pub(crate) name: String,
    pub(crate) line: u32,
}

/// A parsed `const TAG_X: u8 = N;`.
struct TagConst {
    name: String,
    value: u64,
    line: u32,
}

/// Extract the variant names of `enum <name> { ... }`.
pub(crate) fn enum_variants(tokens: &[Token], name: &str) -> Vec<Variant> {
    let mut out = Vec::new();
    let Some(start) = tokens.windows(2).position(|w| w[0].text == "enum" && w[1].text == name)
    else {
        return out;
    };
    // Find the opening brace of the enum body.
    let mut i = start + 2;
    while i < tokens.len() && tokens[i].text != "{" {
        i += 1;
    }
    let mut depth = 0usize;
    let mut expecting_variant = true;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" | "(" | "[" => {
                depth += 1;
                // Depth 2+ is a variant's payload; names only live at depth 1.
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expecting_variant = true,
            "#" if depth == 1 => {
                // Skip a variant attribute `#[...]`.
                if i + 1 < tokens.len() && tokens[i + 1].text == "[" {
                    let mut d = 0usize;
                    i += 1;
                    while i < tokens.len() {
                        match tokens[i].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            _ => {
                if depth == 1 && expecting_variant && tokens[i].kind == TokKind::Ident {
                    out.push(Variant { name: tokens[i].text.clone(), line: tokens[i].line });
                    expecting_variant = false;
                }
            }
        }
        i += 1;
    }
    out
}

/// Extract all `const TAG_*: u8 = <int>;` declarations.
fn tag_consts(tokens: &[Token]) -> Vec<TagConst> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].text != "const" {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else { continue };
        if !name_tok.text.starts_with("TAG_") {
            continue;
        }
        // const TAG_X : u8 = N ;
        let mut j = i + 2;
        let mut value = None;
        while j < tokens.len() && tokens[j].text != ";" {
            if tokens[j].kind == TokKind::Lit {
                if let Ok(v) = tokens[j].text.replace('_', "").parse::<u64>() {
                    value = Some(v);
                }
            }
            j += 1;
        }
        if let Some(v) = value {
            out.push(TagConst { name: name_tok.text.clone(), value: v, line: name_tok.line });
        }
    }
    out
}

/// Locate a `fn <name>` and return its brace-matched body token range.
pub(crate) fn fn_body(tokens: &[Token], name: &str) -> Option<(usize, usize)> {
    let start = tokens.windows(2).position(|w| w[0].text == "fn" && w[1].text == name)?;
    let mut i = start + 2;
    while i < tokens.len() && tokens[i].text != "{" {
        i += 1;
    }
    let open = i;
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse `encode_sysmsg` arms: (variant, tag written, arm line).
/// Each `SysMsg::V` pattern is paired with the first `push(TAG_X)` (or
/// `put_u8(TAG_X)`) that follows it before the next `SysMsg::` pattern.
fn encode_arms(tokens: &[Token]) -> Vec<(String, Option<String>, u32)> {
    let Some((open, close)) = fn_body(tokens, "encode_sysmsg") else {
        return Vec::new();
    };
    let body = &tokens[open..close];
    let mut arms: Vec<(String, Option<String>, u32)> = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if body[i].text == "SysMsg"
            && i + 2 < body.len()
            && body[i + 1].text == "::"
            && body[i + 2].kind == TokKind::Ident
        {
            arms.push((body[i + 2].text.clone(), None, body[i].line));
            i += 3;
            continue;
        }
        if (body[i].text == "push" || body[i].text == "put_u8")
            && i + 2 < body.len()
            && body[i + 1].text == "("
            && body[i + 2].text.starts_with("TAG_")
        {
            if let Some(last) = arms.last_mut() {
                if last.1.is_none() {
                    last.1 = Some(body[i + 2].text.clone());
                }
            }
            i += 3;
            continue;
        }
        i += 1;
    }
    arms
}

/// Parse `decode_sysmsg` arms: (tag, variant constructed, arm line).
/// Each `TAG_X =>` marker is paired with the first `SysMsg::V` that follows
/// it before the next `TAG_Y =>` marker.
fn decode_arms(tokens: &[Token]) -> Vec<(String, String, u32)> {
    let Some((open, close)) = fn_body(tokens, "decode_sysmsg") else {
        return Vec::new();
    };
    let body = &tokens[open..close];
    // Markers: indices of `TAG_X =>`.
    let mut markers: Vec<(usize, String, u32)> = Vec::new();
    for i in 0..body.len().saturating_sub(1) {
        if body[i].text.starts_with("TAG_") && body[i + 1].text == "=" {
            // `=>` lexes as `=` `>` in this lexer.
            if i + 2 < body.len() && body[i + 2].text == ">" {
                markers.push((i, body[i].text.clone(), body[i].line));
            }
        }
    }
    let mut out = Vec::new();
    for (k, (start, tag, line)) in markers.iter().enumerate() {
        let end = markers.get(k + 1).map_or(body.len(), |m| m.0);
        let mut var = None;
        let seg = &body[*start..end];
        for i in 0..seg.len() {
            if seg[i].text == "SysMsg"
                && i + 2 < seg.len()
                && seg[i + 1].text == "::"
                && seg[i + 2].kind == TokKind::Ident
            {
                var = Some(seg[i + 2].text.clone());
                break;
            }
        }
        if let Some(v) = var {
            out.push((tag.clone(), v, *line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_SYSMSG: &str = "pub enum SysMsg { A(u8), B { x: u64 }, C }";
    const GOOD_FRAMING: &str = r#"
const TAG_A: u8 = 1;
const TAG_B: u8 = 2;
const TAG_C: u8 = 3;
pub fn encode_sysmsg(m: &SysMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    match m {
        SysMsg::A(v) => { buf.push(TAG_A); buf.push(*v); }
        SysMsg::B { x } => { buf.push(TAG_B); buf.extend_from_slice(&x.to_be_bytes()); }
        SysMsg::C => { buf.push(TAG_C); }
    }
    buf
}
pub fn decode_sysmsg(frame: &[u8]) -> SysMsg {
    match frame[0] {
        TAG_A => SysMsg::A(frame[1]),
        TAG_B => { let x = 0; SysMsg::B { x } }
        TAG_C => SysMsg::C,
        other => panic!(),
    }
}
"#;

    #[test]
    fn clean_contract_passes() {
        let f = check("s.rs", GOOD_SYSMSG, "f.rs", GOOD_FRAMING);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_decode_arm_fails() {
        let broken = GOOD_FRAMING.replace("        TAG_C => SysMsg::C,\n", "");
        let f = check("s.rs", GOOD_SYSMSG, "f.rs", &broken);
        assert!(f.iter().any(|x| x.message.contains("no arm in decode_sysmsg")), "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("never matched by decode_sysmsg")), "{f:?}");
    }

    #[test]
    fn tag_gap_fails() {
        let gapped = GOOD_FRAMING.replace("const TAG_C: u8 = 3;", "const TAG_C: u8 = 5;");
        let f = check("s.rs", GOOD_SYSMSG, "f.rs", &gapped);
        assert!(f.iter().any(|x| x.message.contains("gap")), "{f:?}");
    }

    #[test]
    fn tag_reuse_fails() {
        let dup = GOOD_FRAMING.replace("const TAG_C: u8 = 3;", "const TAG_C: u8 = 2;");
        let f = check("s.rs", GOOD_SYSMSG, "f.rs", &dup);
        assert!(f.iter().any(|x| x.message.contains("assigned to both")), "{f:?}");
    }

    #[test]
    fn encoder_decoder_disagreement_fails() {
        let swapped = GOOD_FRAMING
            .replace("TAG_A => SysMsg::A(frame[1]),", "TAG_A => SysMsg::C,")
            .replace("TAG_C => SysMsg::C,", "TAG_C => SysMsg::A(frame[1]),");
        let f = check("s.rs", GOOD_SYSMSG, "f.rs", &swapped);
        assert!(f.iter().any(|x| x.message.contains("but the encoder writes")), "{f:?}");
    }
}
