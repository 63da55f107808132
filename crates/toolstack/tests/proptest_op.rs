//! Property tests of the `chaos` op language's parser and its name
//! tables: every op the serialiser can produce parses back to itself,
//! and random or mutated lines (truncated, bad escapes, unknown sites
//! and images, numbers out of range) are errors, never panics. Driven
//! by a seeded `SimRng` (offline build: no proptest).

use guests::GuestImage;
use simcore::{FaultSite, SimRng};
use toolstack::op::{Host, Op, ParseError};
use toolstack::{ToolstackMode, MAX_VCPUS};
use xenstore::XsPath;

fn pick<'a, T>(rng: &mut SimRng, items: &'a [T]) -> &'a T {
    &items[rng.index(items.len())]
}

fn random_str(rng: &mut SimRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = min + rng.index(max - min + 1);
    (0..len).map(|_| *pick(rng, alphabet) as char).collect()
}

/// Guest names: any non-empty run of printable non-space ASCII.
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.=#\\\"/";
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_@:.";

fn images() -> Vec<String> {
    let apps = tinyx::PackageDb::standard().app_names();
    GuestImage::NAMES
        .iter()
        .map(|n| n.to_string())
        .chain(apps.iter().map(|app| format!("tinyx-{app}")))
        .collect()
}

fn random_path(rng: &mut SimRng) -> XsPath {
    let depth = 1 + rng.index(4);
    let path: String = (0..depth)
        .map(|_| format!("/{}", random_str(rng, PATH_CHARS, 1, 8)))
        .collect();
    XsPath::parse(&path).expect("valid components")
}

fn random_op(rng: &mut SimRng, images: &[String]) -> Op {
    let name = random_str(rng, NAME_CHARS, 1, 12);
    let host = *pick(rng, &[Host::Primary, Host::Peer]);
    match rng.index(11) {
        0 => Op::Create {
            name,
            image: pick(rng, images).clone(),
            mem: rng
                .chance(0.5)
                .then(|| 1 + (rng.next_u64() >> rng.index(64))),
            vcpus: rng
                .chance(0.5)
                .then(|| 1 + rng.index(MAX_VCPUS as usize) as u32),
        },
        1 => Op::Destroy(name),
        2 => Op::Save(name),
        3 => Op::Restore(name),
        4 => Op::Migrate(name),
        5 => Op::Prewarm(pick(rng, images).clone()),
        6 => Op::Fault(
            host,
            rng.chance(0.7)
                .then(|| (*pick(rng, &FaultSite::ALL), rng.next_u64())),
        ),
        7 => Op::ForkProbe(name),
        8 => {
            let value = (0..rng.index(8)).map(|_| rng.index(256) as u8).collect();
            Op::XsWrite(random_path(rng), value)
        }
        9 => Op::XsRm(random_path(rng)),
        _ => Op::XsTxn(random_path(rng), rng.chance(0.5)),
    }
}

#[test]
fn every_op_round_trips() {
    let mut rng = SimRng::new(0x0b01);
    let images = images();
    for case in 0..4096 {
        let op = random_op(&mut rng, &images);
        let line = op.to_string();
        assert_eq!(line.parse::<Op>(), Ok(op), "case {case}: `{line}`");
    }
}

/// Known-bad lines, each an error of the expected kind.
#[test]
fn malformed_lines_are_errors() {
    let huge = "99999999999999999999999";
    let unknown = |what, word: &str| ParseError::Unknown(what, word.into());
    let bad = |what, word: &str| ParseError::Bad(what, word.into());
    for (line, want) in [
        ("", ParseError::Usage("<command> [args...]")),
        ("frobnicate x", unknown("command", "frobnicate")),
        ("create a tinyx-emacs", unknown("image", "tinyx-emacs")),
        ("prewarm windows", unknown("image", "windows")),
        ("fault bogus-site 1", unknown("fault site", "bogus-site")),
        (&format!("fault xs-crash {huge}"), bad("number", huge)),
        (&format!("create a daytime mem={huge}"), bad("number", huge)),
        ("create a daytime mem=0", bad("number", "0")),
        ("create a daytime vcpus=0", bad("number", "0")),
        ("create a daytime vcpus=129", bad("number", "129")),
        ("xs-write /p \\x", bad("store value", "\\x")),
        ("xs-write /p \\xZZ", bad("store value", "\\xZZ")),
        ("xs-write /p \\q", bad("store value", "\\q")),
        ("xs-write /p a\"b", bad("store value", "a\"b")),
        ("xs-write /p/ v", bad("store path", "/p/")),
        ("xs-rm p", bad("store path", "p")),
    ] {
        assert_eq!(line.parse::<Op>(), Err(want), "`{line}`");
    }
    for line in [
        "create",
        "create a",
        "create a daytime mem=1 mem=2",
        "create a daytime cpus=2",
        "destroy",
        "destroy a b",
        "fault",
        "fault peer",
        "fault xs-crash",
        "fault peer xs-crash 1 2",
        "xs-write /p",
        "xs-txn /p maybe",
    ] {
        assert!(
            matches!(line.parse::<Op>(), Err(ParseError::Usage(_))),
            "`{line}`"
        );
    }
}

/// Random lines, and valid lines mutated (truncated at any character,
/// a character inserted or replaced, a word swapped for an unknown
/// image, site or huge number), never panic.
#[test]
fn parser_never_panics() {
    let mut rng = SimRng::new(0x0b02);
    let images = images();
    let alphabet: Vec<char> = (0x20u8..0x7f)
        .map(|b| b as char)
        .chain(['é', '→', '\u{1F600}', '\t', '\\'])
        .collect();
    let words = [
        "tinyx-emacs",
        "xs-crash",
        "peer",
        "none",
        "\\x",
        "\\xg0",
        "\"\"",
        "18446744073709551616",
        "mem=",
        "vcpus=-1",
    ];
    for _ in 0..4096 {
        let line: String = (0..rng.index(60))
            .map(|_| *pick(&mut rng, &alphabet))
            .collect();
        let _ = line.parse::<Op>();

        let mut chars: Vec<char> = random_op(&mut rng, &images).to_string().chars().collect();
        match rng.index(3) {
            0 => chars.truncate(rng.index(chars.len() + 1)),
            1 => chars.insert(rng.index(chars.len() + 1), *pick(&mut rng, &alphabet)),
            _ => {
                let at = rng.index(chars.len());
                chars[at] = *pick(&mut rng, &alphabet);
            }
        }
        let _ = chars.iter().collect::<String>().parse::<Op>();

        let line = random_op(&mut rng, &images).to_string();
        let mut parts: Vec<&str> = line.split(' ').collect();
        let at = rng.index(parts.len());
        parts[at] = *pick(&mut rng, &words);
        let _ = parts.join(" ").parse::<Op>();
    }
}

/// The name tables: every name reads back as its value, and random
/// names (including near misses) are `None`/`Err`, never a panic.
#[test]
fn name_tables_round_trip_and_reject() {
    for site in FaultSite::ALL {
        assert_eq!(FaultSite::from_name(site.name()), Some(site));
    }
    for mode in ToolstackMode::ALL {
        assert_eq!(mode.name().parse(), Ok(mode));
    }
    let images = images();
    for image in &images {
        assert!(GuestImage::by_name(image).is_some(), "{image}");
    }
    let mut rng = SimRng::new(0x0b03);
    let alphabet = b"abcdefghijklmnopqrstuvwxyz-0123456789";
    let near = [
        "tinyx-",
        "tinyx-emacs",
        "tinyx-nginx ",
        "xs_crash",
        "XL",
        "chaos-xs-",
        "-",
    ];
    for case in 0..4096 {
        let s = if case < near.len() {
            near[case].to_string()
        } else {
            random_str(&mut rng, alphabet, 0, 16)
        };
        let image = GuestImage::by_name(&s);
        assert!(image.is_none() || images.contains(&s), "{s}");
        let site = FaultSite::from_name(&s);
        assert!(site.is_none_or(|site| site.name() == s), "{s}");
        let mode = s.parse::<ToolstackMode>();
        assert!(mode.is_err() || mode.is_ok_and(|m| m.name() == s), "{s}");
    }
}
