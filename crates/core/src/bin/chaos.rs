//! The `chaos` command: an interactive (or scripted) front-end over a
//! simulated LightVM host.
//!
//! ```text
//! chaos [--mode lightvm|chaos-noxs|chaos-xs|chaos-xs-split|xl]
//!       [--machine xeon4|amd64c|xeon14] [--dom0-cores N] [--seed N]
//!       [script...]
//! ```
//!
//! With script files, commands are read from them; otherwise from stdin.
//! A script line that is not a command stops the run with exit status 2,
//! naming the file and line; an op that fails only prints why.

use std::io::{BufRead, Write};

use lightvm::cli::{parse_machine, Cli, CmdOutcome};
use simcore::MachinePreset;
use toolstack::ToolstackMode;

fn main() {
    let mut mode = ToolstackMode::LightVm;
    let mut machine = MachinePreset::XeonE5_1630V3;
    let mut dom0_cores = 1usize;
    let mut seed = 42u64;
    let mut scripts = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                let v = args.next().unwrap_or_default();
                mode = v.parse::<ToolstackMode>().unwrap_or_else(|_| die(&format!("bad --mode {v}")));
            }
            "--machine" => {
                let v = args.next().unwrap_or_default();
                machine = parse_machine(&v).unwrap_or_else(|| die(&format!("bad --machine {v}")));
            }
            "--dom0-cores" => {
                let v = args.next().unwrap_or_default();
                dom0_cores = v.parse().unwrap_or_else(|_| die(&format!("bad --dom0-cores {v}")));
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = v.parse().unwrap_or_else(|_| die(&format!("bad --seed {v}")));
            }
            "--help" | "-h" => {
                println!("usage: chaos [--mode M] [--machine M] [--dom0-cores N] [--seed N] [script...]");
                return;
            }
            other => scripts.push(other.to_string()),
        }
    }

    let mut cli = Cli::new(machine, dom0_cores, mode, seed);
    if scripts.is_empty() {
        println!("chaos: {} on {machine:?} (type `help`)", mode.label());
        let stdin = std::io::stdin();
        loop {
            print!("chaos> ");
            std::io::stdout().flush().ok();
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let mut out = String::new();
            let outcome = cli.exec(&line, &mut out);
            print!("{out}");
            if outcome == CmdOutcome::Quit {
                break;
            }
        }
    } else {
        for path in scripts {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            for (i, line) in text.lines().enumerate() {
                let mut out = String::new();
                match cli.exec(line, &mut out) {
                    CmdOutcome::Continue => print!("{out}"),
                    CmdOutcome::Quit => return,
                    CmdOutcome::Invalid => die(&format!("{path}:{}: {}", i + 1, out.trim_end())),
                }
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    std::process::exit(2);
}
