//! The design rules as one table: each row is a rule a design or performance
//! change made, why it holds, and the text that would break it. The scanner
//! is std only and matches literal alternatives (no regex crate is vendored).
//! It never reads this file, whose own rows would match themselves.

use std::fs;
use std::ops::Range;
use std::path::Path;

use Check::*;
use Scope::*;

/// Where in a file a clause looks.
#[derive(Clone, Copy)]
enum Scope {
    /// The whole file.
    File,
    /// The file up to the line holding its first `#[cfg(test)]`.
    Above,
    /// The item whose first line holds this text (`fn deliver(`, `struct
    /// MeshConfig {`), above the tests, through the first `}` at its indent.
    Body(&'static str),
}

/// What a clause asks of the files under its paths; `|` separates alternatives.
enum Check {
    /// No alternative appears followed by `n` characters of `class`.
    Forbid(&'static str, usize, fn(&char) -> bool),
    /// Each word (as `grep -w` bounds it) is named in exactly these space-separated files.
    OnlyIn(&'static str, &'static str),
    /// Nothing exists at the paths.
    Absent,
}

const fn forbid(alternatives: &'static str) -> Check {
    Forbid(alternatives, 0, |_| true)
}

/// `(rule, why, clauses)`. A clause is `(paths, scope, check)`: paths are
/// space-separated, relative to the repository root and cover what is under
/// them; a `*` matches inside one component, and a leading `!` leaves a path
/// out.
type Rule = (&'static str, &'static str, &'static [(&'static str, Scope, Check)]);

const RULES: [Rule; 13] = [
    (
        "The packet path does not hash",
        "Agents and routes are found by index and a callback acts through its context \
         (DESIGN.md §2 \"The round trip takes no detour\"): a hash map or an action buffer on \
         that path is a decision, not an accident.",
        &[
            (
                "crates/netsim/src/sim.rs crates/netsim/src/routing.rs crates/netsim/src/agent.rs",
                Above,
                forbid("HashMap"),
            ),
            ("crates/netsim/src", File, forbid("AgentAction")),
        ],
    ),
    (
        "Deliveries carry their agent",
        "A packet names the agent it is for when it is sent (DESIGN.md §2 \"Deliveries carry \
         their agent\"): `deliver` hands it over without searching the node's flow table, and \
         the injection instant whose eight bytes the agent took, written on every send and read \
         by nothing, stays gone.",
        &[
            ("crates/netsim/src/sim.rs", Body("fn deliver("), forbid("binary_search")),
            ("crates tests examples", File, forbid("injected_at")),
        ],
    ),
    (
        "One go-back-N window under the duplicate-ACK senders",
        "Reno, TD-FR and CUBIC run on `transport::dupack::Window` (DESIGN.md §2 \"Three recovery \
         engines\"); a comparator that wants go-back-N calls the engine and does not paste it.",
        &[
            (
                "crates/*/src",
                File,
                OnlyIn(
                    "fr_allowed_from|highest_sent|limited_transmit_credit",
                    "crates/transport/src/dupack.rs",
                ),
            ),
            (
                "crates/baselines/src/reno.rs crates/baselines/src/tdfr.rs crates/cc/src/cubic.rs",
                Above,
                forbid("HashSet"),
            ),
        ],
    ),
    (
        "One harness",
        "Every scenario kind lowers to a `cell::Scenario` and runs through `cell::run` \
         (DESIGN.md §5a): a module that attaches flows itself is a second harness, and the two \
         that went stay gone.",
        &[
            (
                "crates/experiments/src",
                File,
                OnlyIn(
                    "attach_flow",
                    "crates/experiments/src/cell.rs crates/experiments/src/runner.rs \
                     crates/experiments/src/validation.rs",
                ),
            ),
            (
                "crates tests examples",
                File,
                forbid(
                    "run_fairness|run_scale|FairnessResult|ScaleResult|fairness_result|\
                     scale_result",
                ),
            ),
        ],
    ),
    (
        "One measuring stick",
        "Speed is measured by `benchmark/` and gated by `benchmark compare`, nowhere else: the \
         sweep-timing commands, their trajectory file and its three flags stay gone.",
        &[
            (
                "crates examples tests src README.md DESIGN.md .claude",
                File,
                forbid("BENCH_sweep|bench_sweep|bench-sweep|bench-check|threshold-pct|min-entries"),
            ),
            ("BENCH_sweep.json results/bench_sweep.json", File, Absent),
        ],
    ),
    (
        "One parameter table",
        "Impairment stages and admin windows are rows of `sweep::spec::TABLE` (DESIGN.md §7): the \
         hunt encodes, checks and searches them by walking rows, so it names no variant outside \
         its tests.",
        &[(
            "crates/experiments/src/hunt.rs",
            Above,
            Forbid("ImpairmentSpec::|AdminWindowSpec::", 1, char::is_ascii_uppercase),
        )],
    ),
    (
        "One golden table",
        "Outcome digests are rows of tests/golden/pins.rs and `repro` determinism checks rows of \
         crates/experiments/tests/determinism/table.rs (DESIGN.md §5c), whose `output` is how \
         every test drives `repro`; a test file that pins its own digest or drives `repro` its \
         own way starts a second table.",
        &[
            (
                "tests crates/*/tests !tests/golden/pins.rs",
                File,
                Forbid("0x", 16, |c| c.is_ascii_digit() || ('a'..='f').contains(c)),
            ),
            (
                "crates/*/tests !crates/experiments/tests/determinism/table.rs",
                File,
                forbid("CARGO_BIN_EXE_repro"),
            ),
        ],
    ),
    (
        "One thread-local",
        "A run's health is the value its simulator returns (DESIGN.md §6a \"Run health is a \
         return value\"): the profiler registry is the one per-thread state under crates/, and \
         the accumulator a simulator's `Drop` used to feed stays gone.",
        &[
            ("crates !crates/obs", File, forbid("thread_local!")),
            ("crates tests examples", File, forbid("session::|telemetry::session")),
        ],
    ),
    (
        "Every gate is a test",
        "CI runs cargo and nothing else: a check written into the workflow runs in CI and not \
         under `cargo test`, a second mechanism beside these rows and the profile gate table.",
        &[(".github/workflows/ci.yml", File, forbid("python3|grep|cmp |diff "))],
    ),
    (
        "Every knob has two callers",
        "A config field stays only while two production callers set it to different values, \
         `benchmark/` reads it, or a pinned reference test needs its second value (DESIGN.md §2 \
         \"Every knob has two callers\"). These 45 fields of the sender, receiver, flow, search \
         and topology configs each had one value in use; each is a named `const` beside the \
         code that reads it (a flow's receiver runs the default config), and a branch only \
         another value reached is gone with it.",
        &[
            (
                "crates/core/src/config.rs",
                File,
                forbid("pub newton_iterations:|pub initial_mxrtt:|pub backoff_floor:|pub max_backoff:"),
            ),
            (
                "crates/baselines/src crates/cc/src",
                File,
                forbid(
                    "pub dupthresh:|pub limited_transmit:|pub initial_ssthresh:|pub rto:|\
                     pub default_wait:|pub freeze_interval:|pub instant_recovery:|\
                     pub rollback_window:|pub c:|pub beta:|pub fast_convergence:|\
                     pub initial_cwnd:|pub bw_window_rounds:|pub min_rtt_window:|\
                     pub probe_rtt_duration:",
                ),
            ),
            (
                "crates/transport/src/receiver.rs crates/transport/src/host.rs crates/adversary/src",
                File,
                forbid("pub max_sack_blocks:|pub mss:|pub trace_cwnd:|pub batch:|pub patience:"),
            ),
            ("crates/transport/src/host.rs", Body("struct FlowOptions {"), forbid("pub receiver:")),
            (
                "crates/experiments/src/topologies.rs",
                File,
                forbid(
                    "pub access_mbps:|pub access_delay_ms:|pub cs1_mbps:|pub cs2_mbps:|\
                     pub cs3_mbps:|pub delay_ms:|pub link_mbps:",
                ),
            ),
            (
                "crates/experiments/src/topologies.rs",
                Body("struct ParkingLotConfig {"),
                forbid("pub queue_packets:"),
            ),
            (
                "crates/experiments/src/topologies.rs",
                Body("struct MeshConfig {"),
                forbid("pub queue_packets:"),
            ),
        ],
    ),
    (
        "A sender is read where it lives",
        "A sender's counters are its own `stats()` and an agent's its own fields, reached by \
         downcasting through `Any` (DESIGN.md §2 \"TCP senders are pure state machines\"): the \
         snapshot every sender copied itself into, and the upcast every agent wrote out, stay \
         gone. `impl dyn Agent` in agent.rs holds the one `as_any`.",
        &[
            (
                "crates tests examples",
                File,
                forbid("CommonStats|SenderTelemetry|common_stats|fn as_any_mut"),
            ),
            ("crates tests examples", File, OnlyIn("fn as_any(", "crates/netsim/src/agent.rs")),
        ],
    ),
    (
        "The transport glue keeps each fact once",
        "One ACK struct goes from the receiver over the wire to `on_ack`, and a segment's \
         `tx_count` is the sender's own retransmission bit (DESIGN.md §2 \"TCP senders are pure \
         state machines\"): no copy of the ACK, no per-flow count of transmissions beside that \
         bit, and no field nothing reads. A link's impairment stages live in its pipeline only.",
        &[
            (
                "crates tests examples",
                File,
                forbid("AckDescriptor|AckHeader|TxCounts|acks_received"),
            ),
            ("crates tests examples", File, OnlyIn("pub struct AckEvent", "crates/netsim/src/packet.rs")),
            ("crates/netsim/src/packet.rs", File, forbid("pub is_retransmit")),
            (
                "crates/netsim/src/link.rs",
                File,
                forbid("fn with_impairments|pub impair: Vec|random_losses"),
            ),
        ],
    ),
    (
        "One reference for TCP-PR",
        "`TcpPrSender` is held to Table 1 transcribed in tests/table1_model.rs (DESIGN.md §2a): \
         the Newton step count is no parameter, and no counter or accessor that nothing reads \
         comes back.",
        &[
            ("crates/core/src", File, forbid("newton_iterations|acked_segments|fn expired(")),
        ],
    ),
];

#[test]
fn every_design_rule_holds() {
    let mut files = Vec::new();
    walk(Path::new(env!("CARGO_MANIFEST_DIR")), "", &mut files);
    files.retain(|(path, _)| path != "tests/structure.rs");
    files.sort();
    let mut broken = Vec::new();
    for (rule, why, clauses) in RULES {
        for (paths, scope, check) in clauses {
            let problems = check_clause(&files, paths, *scope, check);
            broken.extend(problems.into_iter().map(|p| format!("{rule}: {p}\n  why: {why}")));
        }
    }
    assert!(broken.is_empty(), "{} design rule violation(s):\n{}", broken.len(), broken.join("\n"));
}

/// Every way the files under `paths` break `check`.
fn check_clause(all: &[(String, String)], paths: &str, scope: Scope, check: &Check) -> Vec<String> {
    let (out, kept): (Vec<&str>, Vec<&str>) = paths.split(' ').partition(|p| p.starts_with('!'));
    let files = all.iter().filter(|(file, _)| {
        kept.iter().any(|p| covers(p, file)) && !out.iter().any(|p| covers(&p[1..], file))
    });
    let (Forbid(alternatives, ..) | OnlyIn(alternatives, _)) = check else {
        return files.map(|(file, _)| format!("{file} exists")).collect();
    };
    let missing = kept.iter().filter(|p| !all.iter().any(|(file, _)| covers(p, file)));
    let mut problems: Vec<String> = missing.map(|p| format!("nothing at {p}")).collect();
    let mut named = Vec::new();
    for (file, text) in files {
        let Some(range) = scoped(text, scope) else {
            problems.push(format!("{file}: the item is not above its tests"));
            continue;
        };
        let part = &text[range.clone()];
        let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        for needle in alternatives.split('|') {
            for (at, _) in part.match_indices(needle) {
                let (before, after) = (&part[..at], &part[at + needle.len()..]);
                match check {
                    Forbid(_, n, class) => {
                        let tail: String = after.chars().take(*n).filter(class).collect();
                        if tail.chars().count() == *n {
                            let line = 1 + text[..range.start + at].matches('\n').count();
                            problems.push(format!("{file}:{line} holds {needle}{tail}"));
                        }
                    }
                    _ if before.ends_with(is_word) || after.starts_with(is_word) => {}
                    _ => named.push((needle, file.as_str())),
                }
            }
        }
    }
    if let OnlyIn(words, allowed) = check {
        for word in words.split('|') {
            let mut files: Vec<&str> =
                named.iter().filter(|(w, _)| *w == word).map(|n| n.1).collect();
            files.dedup();
            if files != allowed.split(' ').collect::<Vec<_>>() {
                problems.push(format!("{word} is named in {files:?}, not exactly in {allowed}"));
            }
        }
    }
    problems
}

/// Every file under `dir` but build output and history, with its text.
fn walk(root: &Path, dir: &str, files: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(root.join(dir)).expect("a directory") {
        let name = entry.expect("dir entry").file_name().to_string_lossy().into_owned();
        let path = if dir.is_empty() { name.clone() } else { format!("{dir}/{name}") };
        match fs::read(root.join(&path)) {
            Ok(bytes) => files.push((path, String::from_utf8_lossy(&bytes).into_owned())),
            Err(_) if name == "target" || name == ".git" => {}
            Err(_) => walk(root, &path, files),
        }
    }
}

/// Whether `file` is at or under `pattern`, where a `*` matches any run of
/// characters inside one path component.
fn covers(pattern: &str, file: &str) -> bool {
    let names: Vec<&str> = file.split('/').collect();
    let parts: Vec<&str> = pattern.split('/').collect();
    parts.len() <= names.len()
        && parts.iter().zip(&names).all(|(part, name)| match part.split_once('*') {
            None => part == name,
            Some((head, tail)) => name.strip_prefix(head).is_some_and(|rest| rest.ends_with(tail)),
        })
}

/// The byte range of `text` a scope looks at, or `None` for a missing `fn`.
fn scoped(text: &str, scope: Scope) -> Option<Range<usize>> {
    let line_start = |at: usize| text[..at].rfind('\n').map_or(0, |nl| nl + 1);
    let above = text.find("#[cfg(test)]").map_or(text.len(), line_start);
    let head = match scope {
        File => return Some(0..text.len()),
        Above => return Some(0..above),
        Body(head) => head,
    };
    let start = line_start(text[..above].find(head)?);
    let indent = text[start..].len() - text[start..].trim_start().len();
    let close = format!("{}}}", &text[start..start + indent]);
    let mut end = start;
    for line in text[start..above].split_inclusive('\n') {
        end += line.len();
        if line.trim_end() == close {
            break;
        }
    }
    Some(start..end)
}
