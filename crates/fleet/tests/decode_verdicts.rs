//! Pinned decode verdicts of the serve and fleet wire under seeded
//! mutations.
//!
//! The inputs are the golden lines of both protocols (the same literals
//! as each crate's `every_variant_encodes_to_its_golden_bytes`) and two
//! frozen seed-1 frames: the analysis of `bin_077`, the static binary
//! nearest the corpus median, in a `result` frame, and its policy bundle
//! in a `policy` reply (`golden/*_seed1_median_static.json`; timings
//! zeroed, peak RSS absent). Each input is mutated by class:
//!
//! * `truncate` — cut at every byte offset;
//! * `tag_last` — the `type` entry moved to the end of its object, alone
//!   and, for the short golden lines, combined with `truncate` and `swap`;
//! * `duplicate` — each entry of each object repeated with another value,
//!   just before or just after itself (seeded);
//! * `remove` — each entry of each object left out;
//! * `unknown` — each object given an unknown entry of nested junk at a
//!   seeded position;
//! * `swap` — each value replaced by a value of every other JSON type;
//! * `int_range` — each integer replaced by each bound of the integer
//!   types and the integer one past it.
//!
//! A verdict is `ok` with the SHA-256 of the re-encoded bytes of what
//! decoded, or `err` with the exact error message. Each line of `golden/decode_verdicts.txt`
//! is `input class cases=N ok=K digest`, the digest being the SHA-256 of
//! that class's verdicts in order. The computed lines are also written to
//! `$CARGO_TARGET_TMPDIR/decode_verdicts.actual`, and every verdict, one
//! per line with its input, class and case number, to
//! `$CARGO_TARGET_TMPDIR/decode_verdicts.cases`, so a moved digest can be
//! traced to the cases behind it.

use bside_dist::cache::sha256_hex;
use bside_fleet::protocol::{FromAgent, ToAgent};
use bside_serve::protocol::{Reply, Request};
use serde::Value;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/decode_verdicts.txt");
const ANALYSIS_SEED1: &str = include_str!("golden/analysis_seed1_median_static.json");
const BUNDLE_SEED1: &str = include_str!("golden/bundle_seed1_median_static.json");

/// Analyzer options in their exact wire form.
const OPTIONS: &str = concat!(
    r#"{"cfg":{"indirect":"ActiveAddressTaken"},"limits":{"max_backward_nodes":4096,"#,
    r#""max_forward_paths":4096,"max_path_blocks":512,"max_total_blocks":200000,"#,
    r#""undirected":false},"detect_wrappers":true,"conservative_fallback":true,"#,
    r#""parallelism":1}"#
);

/// A small analysis in its exact wire form: one site, one wrapper.
const ANALYSIS: &str = concat!(
    r#"{"syscalls":[0,1],"sites":[{"site":4096,"function":"main","syscalls":[0,1],"#,
    r#""outcome":"ViaWrapper"}],"wrappers":[{"entry":8192,"name":"sc","sites":[8200],"#,
    r#""param":{"StackSlot":8}}],"precise":true,"stats":{"timings":{"#,
    r#""cfg_recovery":{"secs":0,"nanos":1},"wrapper_identification":{"secs":0,"nanos":2},"#,
    r#""syscall_identification":{"secs":0,"nanos":3},"total":{"secs":1,"nanos":4}},"#,
    r#""cfg":{"blocks":5,"instructions":6,"ataken_iterations":7,"addresses_taken":8},"#,
    r#""sites":1,"blocks_explored":9,"peak_rss_bytes":null}}"#
);

/// A minimal policy bundle in its exact wire form.
const BUNDLE: &str = concat!(
    r#"{"binary":"demo","policy":{"binary":"demo","allowed":[0,1]},"#,
    r#""phases":{"binary":"demo","phases":[[0,1]],"transitions":[[]],"initial":0},"#,
    r#""bpf":{"insns":[{"code":6,"jt":0,"jf":0,"k":2147418112}]}}"#
);

const TRACE: &str = r#""trace_run":21,"trace_unit":9,"trace_span":33"#;

const SPANS: &str = concat!(
    r#""spans":[{"name":"analyze","id":21,"parent":13,"run_id":11,"unit_id":7,"#,
    r#""start_us":100,"dur_us":50,"tid":1}]"#
);

/// Which frame type a line decodes as.
#[derive(Clone, Copy)]
enum Frame {
    Request,
    Reply,
    ToAgent,
    FromAgent,
}

impl Frame {
    fn verdict(self, text: &str) -> String {
        fn decode<T>(text: &str) -> String
        where
            T: serde::Serialize + for<'de> serde::Deserialize<'de>,
        {
            match serde_json::from_str::<T>(text) {
                Ok(v) => {
                    let bytes = serde_json::to_string(&v).expect("re-encodes");
                    format!("ok {}", sha256_hex(&[bytes.as_bytes()]))
                }
                Err(e) => format!("err {e}"),
            }
        }
        match self {
            Frame::Request => decode::<Request>(text),
            Frame::Reply => decode::<Reply>(text),
            Frame::ToAgent => decode::<ToAgent>(text),
            Frame::FromAgent => decode::<FromAgent>(text),
        }
    }
}

/// Every input line: its name, its frame type and its text.
fn inputs() -> Vec<(String, Frame, String)> {
    let requests = [
        r#"{"type":"policy","path":"/c/a.elf"}"#,
        r#"{"type":"policy_by_key","key":"ab"}"#,
        r#"{"type":"invalidate","key":"ab"}"#,
        r#"{"type":"watch","generation":7}"#,
        r#"{"type":"watch","generation":7,"key":"ab"}"#,
        r#"{"type":"stats"}"#,
        r#"{"type":"metrics"}"#,
        r#"{"type":"ping"}"#,
        r#"{"type":"shutdown"}"#,
    ];
    let replies = [
        r#"{"type":"hello","version":5,"generation":12}"#.to_string(),
        format!(
            r#"{{"type":"policy","key":"ab","source":"Coalesced","generation":3,"bundle":{BUNDLE}}}"#
        ),
        r#"{"type":"invalidated","key":"ab","removed":true,"generation":4}"#.to_string(),
        r#"{"type":"generation","generation":5}"#.to_string(),
        concat!(
            r#"{"type":"stats","stats":{"connections":1,"requests":2,"store_hits":3,"#,
            r#""analyses":4,"coalesced":5,"invalidations":6,"bytes_read":7,"errors":8,"#,
            r#""panics":9,"store_entries":10,"generation":11,"degraded":12,"#,
            r#""breaker_state":1}}"#
        )
        .to_string(),
        r#"{"type":"metrics","text":"up 1\n"}"#.to_string(),
        r#"{"type":"pong"}"#.to_string(),
        r#"{"type":"shutting_down"}"#.to_string(),
        r#"{"type":"error","message":"no such key"}"#.to_string(),
        r#"{"type":"hello","version":1}"#.to_string(),
    ];
    let down = [
        r#"{"type":"challenge","nonce":"9f2c"}"#.to_string(),
        r#"{"type":"welcome","version":2,"heartbeat_interval_ms":250,"sealed":true}"#.to_string(),
        r#"{"type":"reject","message":"bad"}"#.to_string(),
        format!(
            r#"{{"type":"unit","id":9,"name":"grep_9","path":"/c/9.elf","want":"Bundle","elf":"f0VMRg==","options":{OPTIONS}}}"#
        ),
        format!(
            r#"{{"type":"unit","id":9,"name":"grep_9","path":"/c/9.elf","want":"Bundle","elf":"f0VMRg==","options":{OPTIONS},{TRACE}}}"#
        ),
        r#"{"type":"shutdown"}"#.to_string(),
        r#"{"type":"sealed","seq":3,"mac":"5bdc","body":"{\"type\":\"shutdown\"}"}"#.to_string(),
        r#"{"type":"welcome","version":2,"heartbeat_interval_ms":250}"#.to_string(),
    ];
    let up = [
        r#"{"type":"hello","version":2,"slots":4,"cache_format":2}"#.to_string(),
        r#"{"type":"hello","version":2,"slots":4,"cache_format":2,"auth":"b034"}"#.to_string(),
        r#"{"type":"heartbeat"}"#.to_string(),
        format!(r#"{{"type":"result","id":7,"analysis":{ANALYSIS}}}"#),
        format!(r#"{{"type":"result","id":7,"analysis":{ANALYSIS},{TRACE},{SPANS}}}"#),
        format!(r#"{{"type":"bundle","id":8,"bundle":{BUNDLE},{TRACE}}}"#),
        format!(r#"{{"type":"error","id":9,"message":"boom",{SPANS}}}"#),
        r#"{"type":"sealed","seq":4,"mac":"5bdc","body":"{\"type\":\"heartbeat\"}"}"#.to_string(),
    ];
    let mut out = Vec::new();
    let mut add = |prefix: &str, frame: Frame, lines: Vec<String>| {
        for (i, text) in lines.into_iter().enumerate() {
            out.push((format!("{prefix}{i}"), frame, text));
        }
    };
    add(
        "request",
        Frame::Request,
        requests.map(String::from).to_vec(),
    );
    add("reply", Frame::Reply, replies.to_vec());
    add("down", Frame::ToAgent, down.to_vec());
    add("up", Frame::FromAgent, up.to_vec());
    let analysis = ANALYSIS_SEED1.trim();
    let bundle = BUNDLE_SEED1.trim();
    out.push((
        "seed1_result".to_string(),
        Frame::FromAgent,
        format!(r#"{{"type":"result","id":7,"analysis":{analysis},{TRACE}}}"#),
    ));
    out.push((
        "seed1_reply".to_string(),
        Frame::Reply,
        format!(
            r#"{{"type":"policy","key":"ab","source":"Store","generation":3,"bundle":{bundle}}}"#
        ),
    ));
    out
}

/// splitmix64: the mutations' seeded choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Stands in for a raw JSON literal in a tree until it is rendered.
const HOLE: &str = "\u{1}hole\u{1}";

/// Renders `root` with the value at the placeholder replaced by `raw`.
fn render(root: &Value, raw: &str) -> String {
    let text = serde_json::to_string(root).expect("renders");
    text.replacen("\"\\u0001hole\\u0001\"", raw, 1)
}

/// One value of each JSON type (integers three ways), as literals.
const KINDS: [&str; 8] = ["null", "true", "7", "-7", "2.5", "\"x\"", "[]", "{}"];

fn kind_of(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::UInt(_) => 2,
        Value::Int(_) => 3,
        Value::Float(_) => 4,
        Value::Str(_) => 5,
        Value::Seq(_) => 6,
        Value::Object(_) => 7,
    }
}

/// The bounds of every integer type on the wire, and one past each.
const INT_BOUNDS: [&str; 14] = [
    "255",
    "256",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "-2147483649",
    "-9223372036854775808",
    "-9223372036854775809",
];

/// The path (child indices) of every value in `v`, parents first.
fn paths(v: &Value, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(prefix.clone());
    let children: Vec<&Value> = match v {
        Value::Seq(items) => items.iter().collect(),
        Value::Object(entries) => entries.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        prefix.push(i);
        paths(child, prefix, out);
        prefix.pop();
    }
}

fn at<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |v, &i| match v {
        Value::Seq(items) => &mut items[i],
        Value::Object(entries) => &mut entries[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// Nested junk for an unknown field: arrays and objects of every scalar,
/// escapes included, `depth` levels deep.
fn junk(rng: &mut Rng, depth: usize) -> String {
    let scalars = [
        "null",
        "false",
        "-0",
        "1e3",
        "\"q\\\"\\u00e9\"",
        "18446744073709551615",
    ];
    if depth == 0 {
        return scalars[rng.below(scalars.len())].to_string();
    }
    let n = 1 + rng.below(3);
    let items: Vec<String> = (0..n).map(|_| junk(rng, depth - 1)).collect();
    if rng.below(2) == 0 {
        format!("[{}]", items.join(","))
    } else {
        let entries: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, item)| format!("\"j{i}\":{item}"))
            .collect();
        format!("{{{}}}", entries.join(","))
    }
}

/// The tree with its top-level `type` entry moved last, if it has one.
fn tag_last(root: &Value) -> Option<Value> {
    let Value::Object(entries) = root else {
        return None;
    };
    let pos = entries.iter().position(|(k, _)| k == "type")?;
    let mut entries = entries.clone();
    let tag = entries.remove(pos);
    entries.push(tag);
    Some(Value::Object(entries))
}

fn truncations(text: &str) -> Vec<String> {
    (0..text.len())
        .filter(|&k| text.is_char_boundary(k))
        .map(|k| text[..k].to_string())
        .collect()
}

fn swaps(root: &Value) -> Vec<String> {
    let mut all = Vec::new();
    paths(root, &mut Vec::new(), &mut all);
    let mut out = Vec::new();
    for path in &all {
        let mut tree = root.clone();
        let slot = at(&mut tree, path);
        let own = kind_of(slot);
        *slot = Value::Str(HOLE.to_string());
        for (k, raw) in KINDS.iter().enumerate() {
            if k != own {
                out.push(render(&tree, raw));
            }
        }
    }
    out
}

/// Every mutation class of one input, in a fixed order.
fn mutations(name: &str, text: &str) -> Vec<(&'static str, Vec<String>)> {
    let root: Value = serde_json::from_str(text).expect("inputs are valid JSON");
    let seed = name.bytes().fold(0x5eed_u64, |h, b| {
        h.wrapping_mul(0x0100_0000_01b3) ^ u64::from(b)
    });
    let mut rng = Rng(seed);
    let mut all = Vec::new();
    paths(&root, &mut Vec::new(), &mut all);
    let objects: Vec<&Vec<usize>> = all
        .iter()
        .filter(|p| matches!(at(&mut root.clone(), p), Value::Object(_)))
        .collect();
    let entries_of = |tree: &mut Value, path: &[usize]| -> Vec<(String, Value)> {
        match at(tree, path) {
            Value::Object(entries) => std::mem::take(entries),
            _ => unreachable!("an object path"),
        }
    };

    let mut classes = vec![("truncate", truncations(text))];

    let mut moved = Vec::new();
    if let Some(last) = tag_last(&root) {
        let last_text = serde_json::to_string(&last).expect("renders");
        moved.push(last_text.clone());
        if text.len() < 600 {
            moved.extend(truncations(&last_text));
            moved.extend(swaps(&last));
        }
    }
    classes.push(("tag_last", moved));

    let mut duplicate = Vec::new();
    let mut remove = Vec::new();
    let mut unknown = Vec::new();
    for path in &objects {
        let mut scratch = root.clone();
        let entries = entries_of(&mut scratch, path);
        for i in 0..entries.len() {
            let mut tree = root.clone();
            let mut copy = entries.clone();
            let (key, value) = copy[i].clone();
            let other = (kind_of(&value) + 1 + rng.below(KINDS.len() - 1)) % KINDS.len();
            let at_index = if rng.below(2) == 0 { i } else { i + 1 };
            copy.insert(at_index, (key, Value::Str(HOLE.to_string())));
            *at(&mut tree, path) = Value::Object(copy);
            duplicate.push(render(&tree, KINDS[other]));

            let mut tree = root.clone();
            let mut copy = entries.clone();
            copy.remove(i);
            *at(&mut tree, path) = Value::Object(copy);
            remove.push(serde_json::to_string(&tree).expect("renders"));
        }
        let mut tree = root.clone();
        let mut copy = entries.clone();
        let pos = rng.below(copy.len() + 1);
        copy.insert(
            pos,
            ("zz_unknown".to_string(), Value::Str(HOLE.to_string())),
        );
        *at(&mut tree, path) = Value::Object(copy);
        let depth = 1 + rng.below(4);
        unknown.push(render(&tree, &junk(&mut rng, depth)));
    }
    classes.push(("duplicate", duplicate));
    classes.push(("remove", remove));
    classes.push(("unknown", unknown));
    classes.push(("swap", swaps(&root)));

    let mut int_range = Vec::new();
    for path in &all {
        let mut tree = root.clone();
        let slot = at(&mut tree, path);
        if !matches!(slot, Value::UInt(_) | Value::Int(_)) {
            continue;
        }
        *slot = Value::Str(HOLE.to_string());
        for raw in INT_BOUNDS {
            int_range.push(render(&tree, raw));
        }
    }
    classes.push(("int_range", int_range));
    classes
}

#[test]
fn decode_verdicts_under_seeded_mutations_match_their_pins() {
    let mut lines = String::new();
    let mut actual = String::new();
    for (name, frame, text) in inputs() {
        for (class, cases) in mutations(&name, &text) {
            let mut verdicts = String::new();
            let mut ok = 0;
            for (i, case) in cases.iter().enumerate() {
                let verdict = frame.verdict(case);
                ok += usize::from(verdict.starts_with("ok "));
                writeln!(verdicts, "{verdict}").unwrap();
                writeln!(actual, "{name} {class} #{i} {verdict}").unwrap();
            }
            let digest = sha256_hex(&[verdicts.as_bytes()]);
            writeln!(
                lines,
                "{name} {class} cases={} ok={ok} {digest}",
                cases.len()
            )
            .unwrap();
        }
    }
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dump = tmp.join("decode_verdicts.cases");
    std::fs::write(&dump, &actual).expect("writes the verdict dump");
    std::fs::write(tmp.join("decode_verdicts.actual"), &lines).expect("writes the lines");
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = lines.lines().collect();
    assert_eq!(got.len(), expected.len(), "the input or class list changed");
    let moved: Vec<String> = got
        .iter()
        .zip(&expected)
        .filter(|(g, e)| g != e)
        .map(|(g, e)| format!("  pinned   {e}\n  computed {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} decode verdict classes moved (every verdict is in {}):\n{}",
        moved.len(),
        dump.display(),
        moved.join("\n")
    );
}
