//! Property tests: the xl config parser round-trips every config the
//! serialiser can produce and never panics on arbitrary input, and a
//! config that parses creates a guest or fails cleanly under every
//! toolstack. Driven by a seeded `SimRng` (offline build: no proptest).

use guests::GuestImage;
use simcore::{Machine, MachinePreset, SimRng};
use toolstack::{ControlPlane, ToolstackMode, VmConfig, MAX_VCPUS};

fn pick(rng: &mut SimRng, alphabet: &[u8]) -> char {
    alphabet[rng.index(alphabet.len())] as char
}

fn random_str(rng: &mut SimRng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = min + rng.index(max - min + 1);
    (0..len).map(|_| pick(rng, alphabet)).collect()
}

const NAME_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
const PATH_CHARS: &[u8] =
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/._-";
const VIF_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=.:/";
const DISK_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=.:/,";

fn random_config(rng: &mut SimRng) -> VmConfig {
    VmConfig {
        name: random_str(rng, NAME_CHARS, 1, 24),
        kernel: random_str(rng, PATH_CHARS, 1, 40),
        memory_mib: 1 + rng.index(65535) as u64,
        vcpus: 1 + rng.index(7) as u32,
        vifs: (0..rng.index(3))
            .map(|_| random_str(rng, VIF_CHARS, 1, 30))
            .collect(),
        disks: (0..rng.index(3))
            .map(|_| random_str(rng, DISK_CHARS, 1, 30))
            .collect(),
    }
}

#[test]
fn round_trip() {
    let mut rng = SimRng::new(0xCF61);
    for _case in 0..256 {
        let cfg = random_config(&mut rng);
        let text = cfg.to_text();
        let parsed = VmConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
    }
}

#[test]
fn parser_never_panics() {
    let mut rng = SimRng::new(0xCF62);
    // Printable ASCII plus some multi-byte chars to stress slicing.
    let alphabet: Vec<char> = (0x20u8..0x7f)
        .map(|b| b as char)
        .chain(['é', '→', '\u{1F600}', 'ä', '\t'])
        .collect();
    for _case in 0..256 {
        let len = rng.index(400);
        let text: String = (0..len)
            .map(|_| alphabet[rng.index(alphabet.len())])
            .collect();
        let _ = VmConfig::parse(&text);
    }
}

#[test]
fn parser_never_panics_liney() {
    let mut rng = SimRng::new(0xCF63);
    const KEY_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const VAL_CHARS: &[u8] = b"\"[]abcdefghijklmnopqrstuvwxyz0123456789 ,";
    for _case in 0..256 {
        let lines: Vec<String> = (0..rng.index(10))
            .map(|_| {
                let key = random_str(&mut rng, KEY_CHARS, 0, 8);
                let eq = if rng.chance(0.5) { " = " } else { "=" };
                let val = random_str(&mut rng, VAL_CHARS, 0, 20);
                if rng.chance(0.2) {
                    key
                } else {
                    format!("{key}{eq}{val}")
                }
            })
            .collect();
        let _ = VmConfig::parse(&lines.join("\n"));
    }
}

/// Config text to create: `memory` and `vcpus` swept over edge values
/// (zero, one, `MAX_VCPUS` and past it, 2^44 MiB = 2^64 bytes and past
/// it, the type maxima) plus seeded draws of every magnitude. Each
/// config that parses is created and booted on a fresh host under all
/// five toolstacks: none may panic, any request larger than the host
/// must fail, and every created domain has the config's vCPU count.
#[test]
fn config_text_creates_or_fails_cleanly() {
    const EDGES: [u64; 8] = [
        0,
        1,
        128,
        129,
        1 << 44,
        (1 << 44) + 1,
        u64::MAX,
        u32::MAX as u64,
    ];
    const MODES: [ToolstackMode; 5] = [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosXsSplit,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ];
    let mut rng = SimRng::new(0xCF64);
    let mut values: Vec<(u64, u64)> =
        EDGES.iter().flat_map(|&m| EDGES.iter().map(move |&v| (m, v))).collect();
    for _ in 0..24 {
        let mut draw = || rng.next_u64() >> rng.index(64);
        values.push((draw(), draw()));
    }
    let machine = Machine::preset(MachinePreset::XeonE5_1630V3);
    let image = GuestImage::unikernel_daytime();
    let mut created = 0;
    for (memory, vcpus) in values {
        let text = format!(
            "name = \"sweep\"\nkernel = \"/images/daytime.bin\"\nmemory = {memory}\nvcpus = {vcpus}\n"
        );
        let Ok(cfg) = VmConfig::parse(&text) else {
            assert!(memory == 0 || vcpus == 0 || vcpus > u64::from(MAX_VCPUS), "{text}");
            continue;
        };
        let larger_than_host = cfg
            .memory_mib
            .checked_mul(1 << 20)
            .is_none_or(|bytes| bytes > machine.mem_bytes);
        let mut img = image.clone();
        img.mem_mib = cfg.memory_mib;
        img.vcpus = cfg.vcpus;
        for mode in MODES {
            let mut cp = ControlPlane::new(machine.clone(), 1, mode, 7);
            cp.prewarm(&image);
            let res = cp.create_and_boot(&cfg.name, &img);
            if larger_than_host {
                assert!(res.is_err(), "{mode:?} created a {} MiB guest", cfg.memory_mib);
                assert_eq!(cp.running_count(), 0, "{mode:?}");
            } else if let Ok((dom, _, _)) = res {
                let vcpus = cp.hv.domain(dom).expect("created domain exists").vcpu_cores.len();
                assert_eq!(vcpus, cfg.vcpus as usize, "{mode:?}: {text}");
                created += 1;
            }
        }
    }
    assert!(created > 0, "the sweep must create some guests");
}
