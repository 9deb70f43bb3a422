//! Integration tests driving the `ptsched` binary: malformed or
//! out-of-range arguments must exit with status 2 and a usage pointer
//! (never a panic), and `ptsched serve` must answer line-delimited JSON
//! requests on stdin.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_ptsched");

fn run(args: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("run ptsched binary")
}

#[test]
fn bad_arguments_exit_2_with_a_message_not_a_panic() {
    // Every entry used to reach an assert inside the scheduling pipeline
    // (with_cores, with_fixed_groups, empty step graphs) or already exited
    // 2 via the parser; all must now take the usage path.
    let cases: &[&[&str]] = &[
        &["--cores", "7"],            // not a whole number of nodes
        &["--cores", "0"],            // zero cores
        &["--cores", "1000000"],      // more cores than the machine has
        &["--cores", "abc"],          // malformed number
        &["--groups", "0"],           // zero groups
        &["--steps", "0"],            // empty step graph
        &["--steps"],                 // missing value
        &["--workload", "nope"],      // unknown workload
        &["--platform", "nope"],      // unknown platform
        &["--mapping", "nope"],       // unknown mapping
        &["--bogus-flag"],            // unknown option
        &["serve", "--workers", "0"], // serve: zero workers
    ];
    for args in cases {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "ptsched {args:?} should exit 2, got {:?}\nstderr: {stderr}",
            out.status
        );
        assert!(
            stderr.contains("ptsched:") && stderr.contains("--help"),
            "ptsched {args:?} should print a usage pointer, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "ptsched {args:?} panicked: {stderr}"
        );
    }
}

#[test]
fn help_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
    let out = run(&["serve", "--help"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn serve_answers_json_lines_on_stdin() {
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ptsched serve");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    let stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));

    let requests = [
        r#"{"workload":"epol","cores":16,"steps":1}"#,
        r#"{"workload":"epol","cores":16,"steps":1}"#,
        r#"{"workload":"epol","cores":7,"steps":1}"#,
        r#"{"cmd":"stats"}"#,
    ];
    for r in requests {
        writeln!(stdin, "{r}").expect("write request");
    }
    drop(stdin); // EOF ends the serve loop

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("response line")).collect();
    assert_eq!(
        lines.len(),
        requests.len(),
        "one response per request: {lines:?}"
    );

    // First request computes, second hits the cache with the same result.
    assert!(lines[0].contains(r#""ok":true"#) && lines[0].contains(r#""cache":"miss""#));
    assert!(lines[1].contains(r#""ok":true"#) && lines[1].contains(r#""cache":"hit""#));
    let field = |line: &str, key: &str| -> String {
        let start = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        line[start..]
            .chars()
            .take_while(|c| !",}".contains(*c))
            .collect()
    };
    assert_eq!(
        field(&lines[0], r#""makespan_ms_per_step":"#),
        field(&lines[1], r#""makespan_ms_per_step":"#),
        "cache hit must return the identical makespan"
    );

    // Invalid request fails the line, not the process.
    assert!(lines[2].contains(r#""ok":false"#) && lines[2].contains("whole number"));
    // Stats reflect the hit and the two answered schedule requests.
    assert!(lines[3].contains(r#""hits":1"#) && lines[3].contains(r#""misses":1"#));

    let status = child.wait().expect("serve exits");
    assert!(
        status.success(),
        "serve should exit 0 on EOF, got {status:?}"
    );
}

#[test]
fn serve_answers_deeply_nested_json_with_an_error() {
    // 50 000 `[` used to overflow the parser's stack and abort the process
    // (exit 134); now the line gets an error reply and the next request is
    // served as usual.
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ptsched serve");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    let stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));
    writeln!(stdin, "{}", "[".repeat(50_000)).expect("write request");
    writeln!(stdin, r#"{{"workload":"epol","cores":16,"steps":1}}"#).expect("write request");
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("response line")).collect();
    assert_eq!(lines.len(), 2, "one response per request: {lines:?}");
    assert!(
        lines[0].contains(r#""ok":false"#) && lines[0].contains("nesting"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""ok":true"#), "{}", lines[1]);
    let status = child.wait().expect("serve exits");
    assert!(
        status.success(),
        "serve should exit 0 on EOF, got {status:?}"
    );
}

#[test]
fn serve_submit_and_tenant_run_a_job_stream() {
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ptsched serve");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    let stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));

    let requests = [
        r#"{"cmd":"tenant","cores":16}"#, // nothing submitted yet
        r#"{"cmd":"submit","workload":"epol","steps":1,"arrival":0.0,"min_width":2}"#,
        r#"{"cmd":"submit","workload":"bt-mz","steps":1,"arrival":0.002,"min_width":4}"#,
        r#"{"cmd":"submit","workload":"irk","steps":1,"arrival":0.004,"min_width":2}"#,
        r#"{"cmd":"submit","workload":"nope"}"#, // invalid job rejected
        r#"{"cmd":"tenant","platform":"chic","cores":16,"policy":"fcfs","drain":false}"#,
        r#"{"cmd":"tenant","platform":"chic","cores":16,"policy":"malleable"}"#,
        r#"{"cmd":"tenant","platform":"chic","cores":16}"#, // drained above
        r#"{"workload":"epol","platform":"chic","cores":16,"steps":1}"#,
    ];
    for r in requests {
        writeln!(stdin, "{r}").expect("write request");
    }
    drop(stdin);

    let lines: Vec<String> = stdout.lines().map(|l| l.expect("response line")).collect();
    assert_eq!(lines.len(), requests.len(), "one response per request");
    assert!(lines[0].contains(r#""ok":false"#) && lines[0].contains("no jobs submitted"));
    for (i, queued) in [(1usize, 1usize), (2, 2), (3, 3)] {
        assert!(
            lines[i].contains(&format!(r#""queued":{queued}"#)),
            "submit #{i}: {}",
            lines[i]
        );
    }
    assert!(lines[4].contains(r#""ok":false"#) && lines[4].contains("unknown workload"));
    assert!(
        lines[5].contains(r#""policy":"fcfs-exclusive""#)
            && lines[5].contains(r#""jobs":3"#)
            && lines[5].contains(r#""resizes":0"#),
        "fcfs scenario: {}",
        lines[5]
    );
    assert!(
        lines[6].contains(r#""policy":"malleable""#) && lines[6].contains(r#""per_job""#),
        "malleable scenario: {}",
        lines[6]
    );
    // The stream was kept by drain:false and consumed by the drain run.
    assert!(lines[7].contains("no jobs submitted"), "{}", lines[7]);
    // The scenarios probed EPOL at all 16 cores through the server's own
    // service, so the plain request for it is already cached.
    assert!(
        lines[8].contains(r#""ok":true"#) && lines[8].contains(r#""cache":"hit""#),
        "tenant probes share the schedule cache: {}",
        lines[8]
    );

    let status = child.wait().expect("serve exits");
    assert!(status.success());
}

#[test]
fn one_shot_run_still_works() {
    let out = run(&["--workload", "epol", "--cores", "16", "--steps", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("simulated time per step by mapping"));
}
