//! Parsing the textual IR back into a [`Module`].
//!
//! The grammar is exactly what the `Display` implementations emit (one
//! construct per line), so `parse_module(&module.to_string())` round-trips
//! losslessly — the property test in the workspace's `tests/` asserts it.
//! Useful for golden-test fixtures and for inspecting/editing small modules
//! by hand.

use crate::func::{Block, FnAttrs};
use crate::ids::{BlockId, FuncId, SiteId};
use crate::inst::{Cond, Inst, OpKind, Terminator};
use crate::{FunctionBuilder, Module};
use std::fmt;

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses the output of `Module`'s `Display` implementation.
///
/// # Errors
/// Returns a [`ParseError`] naming the offending line for any construct the
/// printer would not have produced. The parsed module is *not* verified;
/// run [`Module::verify`] on the result if the text came from an untrusted
/// hand.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new("parsed");
    let mut max_site: Option<u64> = None;
    let mut lines = text.lines().enumerate().peekable();

    while let Some((n, raw)) = lines.next() {
        let line = raw.trim_end();
        let lineno = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("; module ") {
            module = Module::new(rest.trim().to_string());
            continue;
        }
        if line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("fn ") {
            let func = parse_function(rest, lineno, &mut lines, &mut max_site)?;
            module.add_function(func);
            continue;
        }
        return Err(err(lineno, format!("unexpected top-level line: {line:?}")));
    }

    if let Some(max) = max_site {
        // Keep fresh_site collision-free after parsing.
        module.reserve_sites(max + 1);
    }
    Ok(module)
}

type Lines<'a> = std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>;

fn parse_function(
    header_rest: &str,
    header_line: usize,
    lines: &mut Lines<'_>,
    max_site: &mut Option<u64>,
) -> Result<crate::Function, ParseError> {
    // header_rest: `name(args) frame=N [attrs] {  ; @fK`
    let head = header_rest.split("{").next().unwrap_or("").trim();
    let open = head;
    let paren = open
        .find('(')
        .ok_or_else(|| err(header_line, "missing '(' in function header"))?;
    let name = &open[..paren];
    let close = open
        .find(')')
        .ok_or_else(|| err(header_line, "missing ')' in function header"))?;
    let args: u8 = open[paren + 1..close]
        .parse()
        .map_err(|_| err(header_line, "bad argument count"))?;
    let mut frame: u32 = 64;
    let mut attrs = FnAttrs::default();
    for token in open[close + 1..].split_whitespace() {
        if let Some(v) = token.strip_prefix("frame=") {
            frame = v.parse().map_err(|_| err(header_line, "bad frame size"))?;
        } else if let Some(list) = token.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
            for a in list.split(',') {
                match a {
                    "noinline" => attrs.noinline = true,
                    "optnone" => attrs.optnone = true,
                    "inline_asm" => attrs.inline_asm = true,
                    "boot_only" => attrs.boot_only = true,
                    other => return Err(err(header_line, format!("unknown attribute {other:?}"))),
                }
            }
        } else {
            return Err(err(
                header_line,
                format!("unexpected header token {token:?}"),
            ));
        }
    }

    // Body: blocks of instructions; terminator closes a block.
    let mut blocks: Vec<Block> = Vec::new();
    let mut insts: Vec<Inst> = Vec::new();
    let mut in_block = false;
    loop {
        let Some((n, raw)) = lines.next() else {
            return Err(err(header_line, "unterminated function (missing '}')"));
        };
        let lineno = n + 1;
        let line = raw.trim_end();
        if line == "}" {
            if in_block || !insts.is_empty() {
                return Err(err(lineno, "block not terminated before '}'"));
            }
            break;
        }
        if let Some(label) = line.strip_suffix(':') {
            let expect = format!("bb{}", blocks.len());
            if label != expect {
                return Err(err(lineno, format!("expected label {expect}, got {label}")));
            }
            in_block = true;
            continue;
        }
        let body = line.trim_start();
        if !in_block {
            return Err(err(lineno, "instruction outside a block"));
        }
        if let Some(term) = parse_terminator(body, lineno)? {
            blocks.push(Block::new(std::mem::take(&mut insts), term));
            in_block = false;
        } else {
            insts.push(parse_inst(body, lineno, max_site)?);
        }
    }

    // Reassemble through the builder.
    let mut b = FunctionBuilder::new(name, args);
    b.attrs(attrs);
    b.frame_bytes(frame);
    // Pre-create the remaining blocks so forward references resolve.
    for _ in 1..blocks.len().max(1) {
        b.new_block();
    }
    for (i, block) in blocks.iter().enumerate() {
        if i > 0 {
            b.switch_to(BlockId::from_raw(i as u32));
        }
        for inst in &block.insts {
            b.inst(inst.clone());
        }
        match &block.term {
            Terminator::Jump { target } => b.jump(*target),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => b.branch(*cond, *then_bb, *else_bb),
            Terminator::Switch {
                weights,
                cases,
                default_weight,
                default,
                via_table,
            } => b.switch(
                weights.clone(),
                cases.clone(),
                *default_weight,
                *default,
                *via_table,
            ),
            Terminator::Return => b.ret(),
        }
    }
    if blocks.is_empty() {
        return Err(err(header_line, "function has no blocks"));
    }
    Ok(b.build())
}

fn parse_site(tok: &str, lineno: usize, max_site: &mut Option<u64>) -> Result<SiteId, ParseError> {
    let raw = tok
        .strip_prefix("!site")
        .ok_or_else(|| err(lineno, format!("expected !siteN, got {tok:?}")))?
        .parse::<u64>()
        .map_err(|_| err(lineno, "bad site id"))?;
    *max_site = Some(max_site.map_or(raw, |m: u64| m.max(raw)));
    Ok(SiteId::from_raw(raw))
}

fn parse_func_ref(tok: &str, lineno: usize) -> Result<FuncId, ParseError> {
    tok.strip_prefix("@f")
        .and_then(|s| s.parse::<u32>().ok())
        .map(FuncId::from_raw)
        .ok_or_else(|| err(lineno, format!("expected @fN, got {tok:?}")))
}

fn parse_block_ref(tok: &str, lineno: usize) -> Result<BlockId, ParseError> {
    tok.strip_prefix("bb")
        .and_then(|s| s.parse::<u32>().ok())
        .map(BlockId::from_raw)
        .ok_or_else(|| err(lineno, format!("expected bbN, got {tok:?}")))
}

fn parse_inst(body: &str, lineno: usize, max_site: &mut Option<u64>) -> Result<Inst, ParseError> {
    let op = match body {
        "alu" => Some(OpKind::Alu),
        "mov" => Some(OpKind::Mov),
        "cmp" => Some(OpKind::Cmp),
        "load" => Some(OpKind::Load),
        "store" => Some(OpKind::Store),
        "fence" => Some(OpKind::Fence),
        _ => None,
    };
    if let Some(k) = op {
        return Ok(Inst::Op(k));
    }
    if let Some(rest) = body.strip_prefix("resolve ") {
        return Ok(Inst::ResolveTarget {
            site: parse_site(rest.trim(), lineno, max_site)?,
        });
    }
    if let Some(rest) = body.strip_prefix("call ") {
        // `TARGET(args) !siteN [asm]?`
        let mut parts = rest.split_whitespace();
        let target_args = parts
            .next()
            .ok_or_else(|| err(lineno, "call missing target"))?;
        let site_tok = parts
            .next()
            .ok_or_else(|| err(lineno, "call missing site"))?;
        let asm = matches!(parts.next(), Some("[asm]"));
        let paren = target_args
            .find('(')
            .ok_or_else(|| err(lineno, "call missing '('"))?;
        let close = target_args
            .find(')')
            .ok_or_else(|| err(lineno, "call missing ')'"))?;
        let target = &target_args[..paren];
        let args: u8 = target_args[paren + 1..close]
            .parse()
            .map_err(|_| err(lineno, "bad call arg count"))?;
        let site = parse_site(site_tok, lineno, max_site)?;
        return Ok(match target {
            "*ptr" => Inst::CallIndirect {
                site,
                args,
                resolved: false,
                asm,
            },
            "*resolved" => Inst::CallIndirect {
                site,
                args,
                resolved: true,
                asm,
            },
            f => Inst::Call {
                site,
                callee: parse_func_ref(f, lineno)?,
                args,
            },
        });
    }
    Err(err(lineno, format!("unknown instruction {body:?}")))
}

/// Returns `Ok(Some(term))` when `body` is a terminator, `Ok(None)` when it
/// must be an ordinary instruction.
fn parse_terminator(body: &str, lineno: usize) -> Result<Option<Terminator>, ParseError> {
    if body == "ret" {
        return Ok(Some(Terminator::Return));
    }
    if let Some(rest) = body.strip_prefix("jmp ") {
        return Ok(Some(Terminator::Jump {
            target: parse_block_ref(rest.trim(), lineno)?,
        }));
    }
    if let Some(rest) = body.strip_prefix("br ") {
        // `COND ? bbA : bbB`
        let (cond_s, arms) = rest
            .split_once(" ? ")
            .ok_or_else(|| err(lineno, "br missing '?'"))?;
        let (then_s, else_s) = arms
            .split_once(" : ")
            .ok_or_else(|| err(lineno, "br missing ':'"))?;
        let cond = if let Some(p) = cond_s.strip_prefix("p=") {
            let p = p
                .strip_suffix('‰')
                .ok_or_else(|| err(lineno, "probability missing per-mille sign"))?;
            Cond::Random {
                ptaken_milli: p.parse().map_err(|_| err(lineno, "bad probability"))?,
            }
        } else if let Some((site_s, target_s)) = cond_s.split_once("==") {
            let mut unused = None;
            Cond::TargetIs {
                site: parse_site(site_s, lineno, &mut unused)?,
                target: parse_func_ref(target_s, lineno)?,
            }
        } else {
            return Err(err(lineno, format!("unknown condition {cond_s:?}")));
        };
        return Ok(Some(Terminator::Branch {
            cond,
            then_bb: parse_block_ref(then_s.trim(), lineno)?,
            else_bb: parse_block_ref(else_s.trim(), lineno)?,
        }));
    }
    if let Some(rest) = body.strip_prefix("switch[") {
        let (how, rest) = rest
            .split_once("] ")
            .ok_or_else(|| err(lineno, "switch missing ']'"))?;
        let via_table = match how {
            "table" => true,
            "chain" => false,
            other => return Err(err(lineno, format!("unknown switch kind {other:?}"))),
        };
        let (cases_s, default_s) = rest
            .split_once(" default ")
            .ok_or_else(|| err(lineno, "switch missing default"))?;
        let mut cases = Vec::new();
        let mut weights = Vec::new();
        for part in cases_s.split(", ").filter(|p| !p.is_empty()) {
            let (b, w) = part
                .split_once(':')
                .ok_or_else(|| err(lineno, "switch case missing weight"))?;
            cases.push(parse_block_ref(b, lineno)?);
            weights.push(w.parse().map_err(|_| err(lineno, "bad case weight"))?);
        }
        let (db, dw) = default_s
            .split_once(':')
            .ok_or_else(|| err(lineno, "switch default missing weight"))?;
        return Ok(Some(Terminator::Switch {
            weights,
            cases,
            default_weight: dw.parse().map_err(|_| err(lineno, "bad default weight"))?,
            default: parse_block_ref(db, lineno)?,
            via_table,
        }));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FunctionBuilder, OpKind};

    fn sample_module() -> Module {
        let mut m = Module::new("demo");
        let mut b = FunctionBuilder::new("leaf", 1);
        b.frame_bytes(96);
        b.attrs(FnAttrs {
            noinline: true,
            ..FnAttrs::default()
        });
        b.ops(OpKind::Alu, 2);
        b.ret();
        let leaf = m.add_function(b.build());

        let s1 = m.fresh_site();
        let s2 = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        let c0 = b.new_block();
        let c1 = b.new_block();
        let merge = b.new_block();
        b.op(OpKind::Cmp);
        b.call(s1, leaf, 1);
        b.resolve_target(s2);
        b.branch(
            Cond::TargetIs {
                site: s2,
                target: leaf,
            },
            c0,
            c1,
        );
        b.switch_to(c0);
        b.op(OpKind::Load);
        b.jump(merge);
        b.switch_to(c1);
        b.inst(Inst::CallIndirect {
            site: s2,
            args: 1,
            resolved: true,
            asm: false,
        });
        b.switch(vec![2, 3], vec![c0, merge], 1, merge, true);
        b.switch_to(merge);
        b.ret();
        m.add_function(b.build());
        m
    }

    #[test]
    fn roundtrip_is_lossless() {
        let m = sample_module();
        let text = m.to_string();
        let parsed = parse_module(&text).expect("parses");
        assert_eq!(parsed.name(), m.name());
        assert_eq!(parsed.len(), m.len());
        for (a, b) in m.functions().iter().zip(parsed.functions()) {
            assert_eq!(a, b, "function {} must round-trip", a.name());
        }
        // And the re-print matches the original text exactly.
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn fresh_sites_after_parse_do_not_collide() {
        let m = sample_module();
        let mut parsed = parse_module(&m.to_string()).unwrap();
        let new_site = parsed.fresh_site();
        assert!(new_site.raw() >= 2, "sites 0 and 1 are taken: {new_site}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "; module x\nfn f(0) frame=64 {  ; @f0\nbb0:\n  frobnicate\n  ret\n}";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn unterminated_function_is_rejected() {
        let bad = "fn f(0) frame=64 {  ; @f0\nbb0:\n  ret\n";
        assert!(parse_module(bad).is_err());
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let bad = "fn f(0) frame=64 [sparkly] {  ; @f0\nbb0:\n  ret\n}";
        let e = parse_module(bad).unwrap_err();
        assert!(e.message.contains("sparkly"));
    }

    #[test]
    fn asm_marker_roundtrips() {
        let mut m = Module::new("m");
        let s = m.fresh_site();
        let mut b = FunctionBuilder::new("pv", 1);
        b.call_indirect_asm(s, 1);
        b.ret();
        m.add_function(b.build());
        let parsed = parse_module(&m.to_string()).unwrap();
        let f = parsed.function(FuncId::from_raw(0));
        assert!(matches!(
            f.block_insts(crate::BlockId::ENTRY)[0],
            Inst::CallIndirect { asm: true, .. }
        ));
    }
}
