//! `ldl1` — interactive REPL and batch runner for LDL1 programs.
//!
//! ```console
//! $ ldl1 family.ldl            # load a program, answer its ?- queries, REPL
//! $ ldl1                       # empty REPL
//! ldl1> parent(abe, bob).
//! ldl1> anc(X, Y) <- parent(X, Y).
//! ldl1> anc(X, Y) <- parent(X, Z), anc(Z, Y).
//! ldl1> ?- anc(abe, Y).
//! Y = bob
//! ldl1> :magic anc(abe, Y).    # answer through the §6 magic-set pipeline
//! ldl1> :help
//! ```
//!
//! Inside a file, `?- q(…).` lines are answered as they are reached.

use std::io::{BufRead, Write};
use std::time::Duration;

use ldl1::stratify::LayerSchedule;
use ldl1::{Budget, CancelToken, Stratification, System};

const HELP: &str = "\
Input is LDL1/LDL1.5 source: facts, rules, and ?- queries.
Commands:
  :help               this message
  :load FILE          load a program file (rules, facts, ?- queries)
  :program            show the compiled program (core LDL1 heads)
  :strata             show the layering of the current program, each layer's
                      rules in the order they run
  :facts PRED         list the model's facts for one predicate
  :retract FACT.      remove a stored fact (the model is maintained
                      differentially — delete-rederive / replay)
  :update OLD. => NEW.  replace a stored fact in one transaction
  :plan [PRED]        show the join plans (step order, indexes, existential
                      tails); nothing is evaluated
  :plan QUERY.        show which arm a query takes: magic sets (no model yet,
                      an argument bound; nothing is evaluated), or how it
                      reads the model (index probe or scan)
  :magic QUERY.       answer a query via the magic-set pipeline, whatever
                      is cached
  :stats              work counters of the last evaluation (full,
                      incremental, or a bound query's magic sets)
  :limits [...]       show or set resource limits:
                      :limits fuel N | timeout DUR | facts N | off
                      (DUR like 500ms or 2s; programs with infinite models
                      abort cleanly instead of hanging; Ctrl-C interrupts a
                      running evaluation)
  :save FILE          write the model (all facts) as loadable fact syntax
  :checkpoint         (with --data-dir) snapshot the database and restart
                      the write-ahead log; prints the snapshot path + size
  :quit               exit";

/// Parse a duration: `200ms`, `2s`, `1.5s`, or a bare number of milliseconds.
fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    if let Some(ms) = s.strip_suffix("ms") {
        return ms.trim().parse::<u64>().ok().map(Duration::from_millis);
    }
    if let Some(secs) = s.strip_suffix('s') {
        let v: f64 = secs.trim().parse().ok()?;
        if !(v >= 0.0 && v.is_finite()) {
            return None;
        }
        return Some(Duration::from_secs_f64(v));
    }
    s.parse::<u64>().ok().map(Duration::from_millis)
}

/// Describe the configured limits, `:limits`-style.
fn show_limits(sys: &System) {
    let b = sys.budget();
    let fuel = b.fuel.map_or("off".into(), |n| n.to_string());
    let timeout = b
        .deadline
        .map_or("off".into(), |d| format!("{}ms", d.as_millis()));
    let facts = b.max_facts.map_or("off".into(), |n| n.to_string());
    println!("limits: fuel {fuel}, timeout {timeout}, facts {facts}");
}

/// Route `SIGINT` to the process-global cancel token: a running evaluation
/// aborts at its next round boundary instead of the process dying. The
/// handler is async-signal-safe — cancelling the global token is a single
/// atomic store into a const-initialized static.
#[cfg(unix)]
fn install_sigint() {
    extern "C" fn on_sigint(_sig: i32) {
        CancelToken::global().cancel();
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint() {}

/// Open a durable system on `dir`, reporting what recovery did. A corrupt
/// directory is a clean diagnostic and exit code 1 — never a panic.
fn open_data_dir(dir: &str) -> System {
    match System::open(dir) {
        Ok(sys) => {
            if let Some(info) = sys.recovery_info() {
                if let Some(seq) = info.snapshot_seq {
                    eprintln!("{dir}: loaded snapshot at batch {seq}");
                }
                if info.replayed > 0 || info.snapshot_seq.is_some() {
                    eprintln!(
                        "{dir}: replayed {} batch(es), now at batch {}",
                        info.replayed, info.last_seq
                    );
                }
                if let Some(t) = &info.truncation {
                    eprintln!("{dir}: warning: {t}");
                }
                eprintln!("{dir}: {}", info.times);
            }
            sys
        }
        Err(e) => {
            // `Error::Corrupt` lands here with file offset + detail.
            eprintln!("error: {dir}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--data-dir` decides how the system is *constructed*, so resolve it
    // before the positional left-to-right pass loads any file — and reject
    // an unknown option here too, before anything is opened or loaded.
    let mut data_dir: Option<String> = None;
    let mut pre = args.iter();
    while let Some(a) = pre.next() {
        match a.as_str() {
            "--data-dir" => match pre.next() {
                Some(d) => data_dir = Some(d.clone()),
                None => {
                    eprintln!("error: --data-dir requires a directory");
                    std::process::exit(1);
                }
            },
            // The operand is validated by the pass below.
            "--timeout" | "--fuel" | "--max-facts" => {
                let _ = pre.next();
            }
            "--batch" | "-b" | "--stats" | "--explain" | "--help" | "-h" => {}
            opt if opt.starts_with('-') => {
                eprintln!("error: unknown option '{opt}' (see --help)");
                std::process::exit(2);
            }
            _file => {}
        }
    }
    let mut sys = match &data_dir {
        Some(dir) => open_data_dir(dir),
        None => System::new(),
    };
    // Evaluations run under the global cancel token so Ctrl-C interrupts
    // them; flags below layer resource limits on top.
    CancelToken::global().reset();
    sys.set_budget(Budget::unlimited().with_cancel(CancelToken::global()));
    install_sigint();
    let mut batch = false;
    let mut queried = false;
    let mut show_stats = false;
    let mut show_plans = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--batch" | "-b" => batch = true,
            "--stats" => show_stats = true,
            "--explain" => show_plans = true,
            "--help" | "-h" => {
                println!(
                    "usage: ldl1 [--batch] [--stats] [--explain] \
                     [--timeout DUR] [--fuel N] [--max-facts N] \
                     [--data-dir DIR] [FILE...]\n\n{HELP}"
                );
                return;
            }
            "--data-dir" => {
                // Consumed by the pre-scan; skip the directory operand here.
                let _ = iter.next();
            }
            "--timeout" => {
                let dur = iter.next().and_then(|v| parse_duration(v));
                match dur {
                    Some(d) => {
                        let mut b = sys.budget().clone();
                        b.deadline = Some(d);
                        sys.set_budget(b);
                    }
                    None => {
                        eprintln!("error: --timeout requires a duration (e.g. 200ms, 2s)");
                        std::process::exit(1);
                    }
                }
            }
            "--fuel" => {
                let fuel = iter.next().and_then(|v| v.parse::<u64>().ok());
                match fuel {
                    Some(n) => {
                        let mut b = sys.budget().clone();
                        b.fuel = Some(n);
                        sys.set_budget(b);
                    }
                    None => {
                        eprintln!("error: --fuel requires a number (derivation attempts)");
                        std::process::exit(1);
                    }
                }
            }
            "--max-facts" => {
                let facts = iter.next().and_then(|v| v.parse::<u64>().ok());
                match facts {
                    Some(n) => {
                        let mut b = sys.budget().clone();
                        b.max_facts = Some(n);
                        sys.set_budget(b);
                    }
                    None => {
                        eprintln!("error: --max-facts requires a number");
                        std::process::exit(1);
                    }
                }
            }
            file => match load_file(&mut sys, file) {
                Ok(queries) => queried |= queries > 0,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            },
        }
    }
    if show_plans {
        print!("{}", sys.explain(None));
    }
    if show_stats {
        // The counters of the last operation, like `:stats`: the files'
        // last query — a bound one on the magic arm counts its cone — or,
        // when no file asked one, the model, built for them.
        if !queried {
            if let Err(e) = sys.model() {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("{}", sys.last_stats());
    }
    if batch {
        return;
    }

    let stdin = std::io::stdin();
    let interactive = is_tty();
    if interactive {
        println!("ldl1 — sets and negation in a logic database language (PODS 1987)");
        println!("type :help for commands, :quit to exit");
    }
    let mut pending = String::new();
    loop {
        if interactive {
            if pending.is_empty() {
                print!("ldl1> ");
            } else {
                print!("  ... ");
            }
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if pending.is_empty() && trimmed.starts_with(':') {
            // A Ctrl-C that tripped the token during (or between) earlier
            // statements must not abort this one: re-arm before evaluating.
            sys.interrupt_handle().reset();
            if !command(&mut sys, trimmed) {
                break;
            }
            continue;
        }
        pending.push_str(&line);
        // Statements end with '.'; keep accumulating until one does.
        if !trimmed.ends_with('.') {
            continue;
        }
        let stmt = std::mem::take(&mut pending);
        sys.interrupt_handle().reset();
        if let Err(e) = statement(&mut sys, &stmt) {
            eprintln!("error: {e}");
        }
    }
}

fn is_tty() -> bool {
    // No external crates: rely on the TERM heuristic plus stdin not being
    // redirected is unknowable portably — prompt unless piped input is
    // likely (TERM unset).
    std::env::var_os("TERM").is_some()
}

/// Handle one `:command`. Returns false to exit.
fn command(sys: &mut System, cmd: &str) -> bool {
    let (name, rest) = match cmd.split_once(char::is_whitespace) {
        Some((n, r)) => (n, r.trim()),
        None => (cmd, ""),
    };
    match name {
        ":quit" | ":q" | ":exit" => return false,
        ":help" | ":h" => println!("{HELP}"),
        ":load" => {
            if let Err(e) = load_file(sys, rest) {
                eprintln!("error: {e}");
            }
        }
        ":program" => print!("{}", sys.program()),
        ":strata" => match Stratification::canonical(sys.program()) {
            Ok(s) => {
                for (l, layer) in s.schedule.iter().enumerate() {
                    println!("layer {l}: {}", run_order(layer));
                }
            }
            Err(e) => eprintln!("error: {e}"),
        },
        ":facts" => match sys.facts(rest) {
            Ok(facts) => {
                for f in facts {
                    println!("{f}");
                }
            }
            Err(e) => eprintln!("error: {e}"),
        },
        // An argument with a `(` is a query atom, not a predicate name.
        ":plan" if rest.contains('(') => match sys.explain_query(rest) {
            Ok(line) => println!("{line}"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":plan" => print!("{}", sys.explain(Some(rest).filter(|r| !r.is_empty()))),
        ":save" => {
            let result = sys
                .model()
                .map(|m| m.dump())
                .map_err(|e| e.to_string())
                .and_then(|text| std::fs::write(rest, text).map_err(|e| e.to_string()));
            match result {
                Ok(()) => println!("saved model to {rest}"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        ":retract" => match sys.retract(rest) {
            Ok(()) => {}
            Err(e) => eprintln!("error: {e}"),
        },
        ":update" => {
            // `:update old(…). => new(…).`
            match rest.split_once("=>") {
                Some((old, new)) => match sys.update(old.trim(), new.trim()) {
                    Ok(()) => {}
                    Err(e) => eprintln!("error: {e}"),
                },
                None => eprintln!("error: usage: :update OLD. => NEW."),
            }
        }
        ":magic" => match sys.query_magic(rest) {
            Ok(answers) => print_answers(&answers),
            Err(e) => eprintln!("error: {e}"),
        },
        ":checkpoint" => match sys.checkpoint() {
            Ok(ck) => println!(
                "checkpoint: {} ({} bytes, batch {})",
                ck.path.display(),
                ck.bytes,
                ck.seq
            ),
            Err(e) => eprintln!("error: {e}"),
        },
        ":stats" => println!("{}", sys.last_stats()),
        ":limits" => {
            if rest.is_empty() {
                show_limits(sys);
            } else if rest == "off" {
                let cancel = sys.interrupt_handle();
                sys.set_budget(Budget::unlimited().with_cancel(cancel));
                show_limits(sys);
            } else {
                match rest.split_once(char::is_whitespace) {
                    Some(("fuel", v)) if v.trim().parse::<u64>().is_ok() => {
                        let mut b = sys.budget().clone();
                        b.fuel = Some(v.trim().parse().unwrap());
                        sys.set_budget(b);
                        show_limits(sys);
                    }
                    Some(("timeout", v)) if parse_duration(v).is_some() => {
                        let mut b = sys.budget().clone();
                        b.deadline = parse_duration(v);
                        sys.set_budget(b);
                        show_limits(sys);
                    }
                    Some(("facts", v)) if v.trim().parse::<u64>().is_ok() => {
                        let mut b = sys.budget().clone();
                        b.max_facts = Some(v.trim().parse().unwrap());
                        sys.set_budget(b);
                        show_limits(sys);
                    }
                    _ => eprintln!("error: usage: :limits [fuel N | timeout DUR | facts N | off]"),
                }
            }
        }
        other => eprintln!("unknown command {other}; try :help"),
    }
    true
}

/// One layer as the engine runs it: `{part} (grouping) → {tc} (recursive) →
/// {result}` — its grouping heads in one round, then each component's
/// heads to their fixpoint, dependency-first.
fn run_order(layer: &LayerSchedule) -> String {
    fn heads(preds: impl Iterator<Item = ldl1::Symbol>) -> String {
        let mut names: Vec<String> = preds.map(|p| p.to_string()).collect();
        names.sort();
        names.dedup();
        format!("{{{}}}", names.join(", "))
    }
    let mut steps = Vec::new();
    if !layer.grouping.rules.is_empty() {
        let preds = layer.grouping.preds.iter().copied();
        steps.push(format!("{} (grouping)", heads(preds)));
    }
    for c in &layer.components {
        let mark = if c.recursive { " (recursive)" } else { "" };
        steps.push(format!("{}{mark}", heads(c.preds.iter().copied())));
    }
    if steps.is_empty() {
        "(no rules)".into()
    } else {
        steps.join(" → ")
    }
}

/// Handle one source statement: a query or program text.
fn statement(sys: &mut System, stmt: &str) -> Result<(), ldl1::Error> {
    if stmt.trim_start().starts_with("?-") {
        let answers = sys.query(stmt.trim())?;
        print_answers(&answers);
        Ok(())
    } else {
        sys.load(stmt)
    }
}

fn print_answers(answers: &[ldl1::QueryAnswer]) {
    if answers.is_empty() {
        println!("no");
        return;
    }
    for a in answers {
        println!("{a}"); // Prolog-style `X = 1, Y = f(2)`, or `yes`
    }
}

/// Load a program file, answering its `?-` queries as they are reached.
/// Returns how many it answered.
fn load_file(sys: &mut System, path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Split into statements on '.' boundaries is fragile ('.' inside
    // strings); instead: split out ?- query lines, load the rest wholesale.
    let (mut program, mut queries) = (String::new(), 0);
    for line in text.lines() {
        if line.trim_start().starts_with("?-") {
            // Flush what we have so the query sees it.
            if !program.trim().is_empty() {
                sys.load(&program).map_err(|e| e.to_string())?;
                program.clear();
            }
            let answers = sys.query(line.trim()).map_err(|e| e.to_string())?;
            queries += 1;
            println!("{}", line.trim());
            print_answers(&answers);
        } else {
            program.push_str(line);
            program.push('\n');
        }
    }
    if !program.trim().is_empty() {
        sys.load(&program).map_err(|e| e.to_string())?;
    }
    Ok(queries)
}
