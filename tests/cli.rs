//! Integration tests driving the `ptsched` binary: malformed or
//! out-of-range arguments must exit with status 2 and a usage pointer
//! (never a panic), and `ptsched serve` must answer line-delimited JSON
//! requests on stdin and over TCP.

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
        &["--cores", "7"],                  // not a whole number of nodes
        &["--cores", "0"],                  // zero cores
        &["--cores", "1000000"],            // more cores than the machine has
        &["--cores", "abc"],                // malformed number
        &["--groups", "0"],                 // zero groups
        &["--steps", "0"],                  // empty step graph
        &["--steps", "100000000"],          // more steps than a request may unroll
        &["--steps"],                       // missing value
        &["--workload", "nope"],            // unknown workload
        &["--platform", "nope"],            // unknown platform
        &["--mapping", "nope"],             // unknown mapping
        &["--bogus-flag"],                  // unknown option
        &["serve", "--workers", "0"],       // serve: zero workers
        &["serve", "--sweep-workers", "2"], // serve: an option that is gone
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

/// The response lines of a one-slot `ptsched serve` fed `requests` on
/// stdin; the service must exit 0 at EOF.
fn serve(requests: &[&str]) -> Vec<String> {
    let requests: Vec<&[u8]> = requests.iter().map(|r| r.as_bytes()).collect();
    serve_bytes(&requests)
}

/// [`serve`] for request lines that need not be UTF-8.
fn serve_bytes(requests: &[&[u8]]) -> Vec<String> {
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ptsched serve");
    let mut stdin = child.stdin.take().expect("stdin pipe");
    let stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));
    for r in requests {
        stdin.write_all(r).expect("write request");
        stdin.write_all(b"\n").expect("write newline");
    }
    drop(stdin);
    let lines = stdout.lines().map(|l| l.expect("response line")).collect();
    let status = child.wait().expect("serve exits");
    assert!(
        status.success(),
        "serve should exit 0 on EOF, got {status:?}"
    );
    lines
}

#[test]
fn serve_answers_deeply_nested_json_with_an_error() {
    // 50 000 `[` used to overflow the parser's stack and abort the process
    // (exit 134); now the line gets an error reply and the next request is
    // served as usual.
    let lines = serve(&[
        &"[".repeat(50_000),
        r#"{"workload":"epol","cores":16,"steps":1}"#,
    ]);
    assert_eq!(lines.len(), 2, "one response per request: {lines:?}");
    assert!(
        lines[0].contains(r#""ok":false"#) && lines[0].contains("nesting"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""ok":true"#), "{}", lines[1]);
}

/// Lines a client may send that are no request, each with words its
/// error reply must contain: bytes that are not UTF-8 (they used to end
/// the session at once), and a line longer than the server reads (it used
/// to be buffered whole).
fn hostile_lines() -> [(&'static str, Vec<u8>); 2] {
    let long = format!(r#"{{"workload":"epol","pad":"{}"}}"#, "x".repeat(100_000));
    [
        ("not UTF-8", b"\xff\xfe{\"workload\":\"epol\"}".to_vec()),
        ("longer than", long.into_bytes()),
    ]
}

#[test]
fn serve_answers_hostile_lines_on_stdin_with_an_error() {
    let request = r#"{"workload":"epol","cores":16,"steps":1}"#;
    let fresh = serve(&[request]);
    assert!(fresh[0].contains(r#""ok":true"#), "{}", fresh[0]);
    for (what, bad) in hostile_lines() {
        let lines = serve_bytes(&[&bad, request.as_bytes()]);
        assert_eq!(lines.len(), 2, "{what}: one response per line: {lines:?}");
        assert!(
            lines[0].contains(r#""ok":false"#) && lines[0].contains(what),
            "{}",
            lines[0]
        );
        assert_eq!(
            lines[1], fresh[0],
            "after `{what}`: the next request's reply"
        );
    }
}

/// A child process stopped when the test ends, pass or fail.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `ptsched serve` on a free local port through `command`, a shell
/// line that runs `"$0" serve ...`, and return it with its address.
fn listening_server(command: &str) -> (KillOnDrop, String) {
    let mut server = KillOnDrop(
        Command::new("sh")
            .args(["-c", command, BIN])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn `{command}`: {e}")),
    );
    let mut banner = String::new();
    BufReader::new(server.0.stdout.take().expect("stdout pipe"))
        .read_line(&mut banner)
        .expect("read listening line");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (server, addr)
}

#[test]
fn serve_answers_hostile_lines_over_tcp_with_an_error() {
    // One request per hostile line: the server's cache outlives a
    // connection, and each request must be the first of its kind there as
    // on a fresh server.
    let requests = [
        r#"{"workload":"epol","cores":16,"steps":1}"#,
        r#"{"workload":"irk","cores":16,"steps":1}"#,
    ];
    let (_server, addr) = listening_server(r#"exec "$0" serve --workers 1 --listen 127.0.0.1:0"#);
    for ((what, bad), request) in hostile_lines().into_iter().zip(requests) {
        let fresh = serve(&[request]);
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.write_all(&bad).expect("write bad line");
        stream.write_all(b"\n").expect("write newline");
        writeln!(stream, "{request}").expect("write request");
        let mut reader = BufReader::new(stream);
        let mut lines = [String::new(), String::new()];
        for line in &mut lines {
            reader.read_line(line).expect("response line");
        }
        assert!(
            lines[0].contains(r#""ok":false"#) && lines[0].contains(what),
            "{}",
            lines[0]
        );
        assert_eq!(
            lines[1].trim_end(),
            fresh[0],
            "after `{what}`: the next request's reply"
        );
    }
}

/// User plus system CPU time of process `pid` so far, in clock ticks.
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc/<pid>/stat");
    // Fields 14 and 15 (utime, stime), counted after the parenthesised
    // command name, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// Send one request on a fresh connection to `addr` and check its reply.
#[cfg(target_os = "linux")]
fn assert_a_fresh_connection_is_served(addr: &str) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect after the idle ones");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("set a read timeout");
    writeln!(stream, r#"{{"workload":"epol","cores":16,"steps":1}}"#).expect("write request");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("a reply on a fresh connection");
    assert!(reply.contains(r#""ok":true"#), "{reply}");
}

#[cfg(target_os = "linux")]
#[test]
fn serve_out_of_file_descriptors_waits_instead_of_spinning() {
    // Past the descriptor limit, accept fails at once for as long as the
    // connections stay open; the accept loop used to retry at once and
    // burn a whole core (2.0 s of CPU in 2 s).
    let (server, addr) =
        listening_server(r#"ulimit -n 24; exec "$0" serve --listen 127.0.0.1:0 --workers 1"#);
    let idle: Vec<_> = (0..20)
        .map(|_| std::net::TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let pid = server.0.id();
    let ticks = cpu_ticks(pid);
    std::thread::sleep(std::time::Duration::from_secs(1));
    let hz = Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok()?.trim().parse::<f64>().ok())
        .unwrap_or(100.0);
    let cpu_s = (cpu_ticks(pid) - ticks) as f64 / hz;
    assert!(
        cpu_s < 0.2,
        "the server used {cpu_s} s of CPU in 1 s with 20 idle connections"
    );
    drop(idle);
    assert_a_fresh_connection_is_served(&addr);
}

#[cfg(target_os = "linux")]
#[test]
fn serve_out_of_file_descriptors_keeps_every_accepted_connection() {
    // With 23 descriptors the server can accept most of the 20 connections
    // but not also clone each for its writer; it used to close a connection
    // whose clone failed without a reply (11 of these 20 read EOF).
    let (_server, addr) =
        listening_server(r#"ulimit -n 23; exec "$0" serve --listen 127.0.0.1:0 --workers 1"#);
    let idle: Vec<_> = (0..20)
        .map(|_| std::net::TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(std::time::Duration::from_secs(1));
    let closed = idle
        .iter()
        .filter(|&stream| {
            stream.set_nonblocking(true).expect("set non-blocking");
            match std::io::Read::read(&mut { stream }, &mut [0u8; 1]) {
                Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
                Ok(_) => true,
            }
        })
        .count();
    assert_eq!(closed, 0, "idle connections the server closed within 1 s");
    drop(idle);
    assert_a_fresh_connection_is_served(&addr);
}

#[test]
fn serve_refuses_too_many_steps_and_serves_the_next_request() {
    // 100 000 000 steps used to hold the worker without a reply; the
    // request is now refused before any graph is built.
    let lines = serve(&[
        r#"{"workload":"bt-mz","cores":16,"steps":100000000}"#,
        r#"{"workload":"epol","cores":16,"steps":1}"#,
    ]);
    assert_eq!(lines.len(), 2, "one response per request: {lines:?}");
    assert!(
        lines[0].contains(r#""ok":false"#) && lines[0].contains("steps"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""ok":true"#), "{}", lines[1]);
}

#[test]
fn serve_refuses_submits_past_the_queue_cap_and_a_tenant_run_frees_room() {
    // The submit queue used to grow by one job per line without a limit,
    // and a later tenant run scheduled every one of them.
    let submit = r#"{"cmd":"submit","workload":"epol","steps":1}"#;
    let mut requests = vec![submit; 100];
    requests.extend([
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"tenant","cores":16}"#,
        submit,
    ]);
    let lines = serve(&requests);
    assert_eq!(lines.len(), requests.len(), "one response per request");
    let cap = lines
        .iter()
        .take_while(|l| l.contains(r#""ok":true"#))
        .count();
    assert!((1..100).contains(&cap), "queue cap {cap}: {}", lines[0]);
    for (i, line) in lines[..cap].iter().enumerate() {
        assert!(line.contains(&format!(r#""queued":{}"#, i + 1)), "{line}");
    }
    for line in &lines[cap..100] {
        assert!(
            line.contains(r#""ok":false"#) && line.contains("queue is full"),
            "{line}"
        );
    }
    // The request after the refused submits is answered.
    assert!(
        lines[100].contains(r#""ok":true"#) && lines[100].contains(r#""stats""#),
        "{}",
        lines[100]
    );
    // A draining tenant run schedules the full queue and empties it.
    assert!(
        lines[101].contains(&format!(r#""jobs":{cap}"#)),
        "{}",
        lines[101]
    );
    assert!(lines[102].contains(r#""queued":1"#), "{}", lines[102]);
}

#[test]
fn serve_refuses_submits_past_the_step_cap_and_a_tenant_run_frees_room() {
    // 64 jobs of 1 000 steps fit the job cap, and a tenant run over them
    // held its connection for minutes; the queued steps are capped too.
    let big = r#"{"cmd":"submit","workload":"epol","steps":1000}"#;
    let mut requests = vec![big; 5];
    requests.extend([r#"{"cmd":"stats"}"#, r#"{"cmd":"tenant","cores":16}"#, big]);
    let lines = serve(&requests);
    assert_eq!(lines.len(), requests.len(), "one response per request");
    let admitted = lines
        .iter()
        .take_while(|l| l.contains(r#""ok":true"#))
        .count();
    assert!((1..5).contains(&admitted), "{admitted} jobs: {lines:?}");
    for line in &lines[admitted..5] {
        assert!(
            line.contains(r#""ok":false"#)
                && line.contains("queue is full")
                && line.contains("steps"),
            "{line}"
        );
    }
    // The request after the refused submits is answered.
    assert!(
        lines[5].contains(r#""ok":true"#) && lines[5].contains(r#""stats""#),
        "{}",
        lines[5]
    );
    // A draining tenant run schedules the queued jobs and frees their steps.
    assert!(
        lines[6].contains(&format!(r#""jobs":{admitted}"#)),
        "{}",
        lines[6]
    );
    assert!(lines[7].contains(r#""queued":1"#), "{}", lines[7]);
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

#[test]
fn one_shot_report_prints_each_mappings_simulated_time() {
    use parallel_tasks::core::MappingStrategy;
    use parallel_tasks::cost::CostModel;
    use parallel_tasks::machine::platforms;
    use parallel_tasks::serve::{plan, ScheduleRequest};
    use parallel_tasks::sim::Simulator;
    use std::sync::Arc;

    // The selected mapping's line shows the plan's own simulation, and
    // every other line a simulation of the same schedule under that
    // mapping.
    let steps = 2;
    let bruss = parallel_tasks::ode::Bruss2d::new(250);
    let cases = [
        (
            "epol",
            parallel_tasks::ode::Epol::new(8).step_graph(&bruss, steps),
            "chic",
            platforms::chic().with_cores(16),
            ("scattered", MappingStrategy::Scattered),
        ),
        (
            "bt-mz",
            parallel_tasks::nas::bt_mz(parallel_tasks::nas::Class::B).step_graph(steps),
            "juropa",
            platforms::juropa().with_cores(256),
            ("mixed2", MappingStrategy::Mixed(2)),
        ),
    ];
    for (workload, graph, platform, machine, (flag, selected)) in cases {
        let cores = machine.total_cores();
        let out = run(&[
            "--workload",
            workload,
            "--platform",
            platform,
            "--cores",
            &cores.to_string(),
            "--mapping",
            flag,
            "--steps",
            &steps.to_string(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let printed: Vec<&str> = stdout
            .lines()
            .skip_while(|l| *l != "simulated time per step by mapping:")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();

        let request = ScheduleRequest::new(Arc::new(graph), Arc::new(machine), selected);
        let planned = plan(&request, None);
        let model = CostModel::new(&request.machine);
        let expected: Vec<String> = MappingStrategy::all_for(&request.machine)
            .into_iter()
            .map(|s| {
                let (makespan, marker) = if s == selected {
                    (planned.report.makespan, " <-- selected")
                } else {
                    let mapping = s.mapping(&request.machine, cores);
                    let report = Simulator::new(&model).simulate_layered(
                        &request.graph,
                        &planned.schedule,
                        &mapping,
                    );
                    (report.makespan, "")
                };
                format!(
                    "  {:<12} {:>10.3} ms{}",
                    s.name(),
                    makespan / steps as f64 * 1e3,
                    marker
                )
            })
            .collect();
        assert_eq!(printed, expected, "{workload} under {flag}");
    }
}

#[test]
fn one_shot_reports_het_aware_scheduling_only_for_several_speed_classes() {
    // Re-clocking all 32 nodes leaves one speed class, which the layer
    // scheduler schedules homogeneously; the report used to say "on".
    for (slow, expect) in [
        ("32", "het-aware scheduling off, classes [2.0]"),
        ("8", "het-aware scheduling on, classes [2.0, 1.0]"),
    ] {
        let out = run(&[
            "--workload",
            "bt-mz",
            "--platform",
            "juropa",
            "--cores",
            "256",
            "--slow-nodes",
            slow,
            "--slow-factor",
            "2",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(expect), "--slow-nodes {slow}: {stdout}");
    }
}

#[test]
fn one_shot_gantt_with_a_task_at_the_makespan_exits_0() {
    // A task of 50 PABM steps starts so close to the makespan that its
    // bar's first column rounded past the chart: the renderer panicked
    // with "min > max. min = 65, max = 64" and exited 101.
    let out = run(&[
        "--workload",
        "pabm",
        "--cores",
        "16",
        "--steps",
        "50",
        "--gantt",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("timeline:"));
}

#[test]
fn one_shot_report_into_a_closed_pipe_ends_quietly() {
    // `ptsched … | head -1`: the reader takes one line and closes the
    // pipe.  The report of 200 PABM steps (about 136 KB) outgrows a pipe's
    // buffer, so a later write fails however the two processes interleave.
    // It used to panic with "failed printing to stdout: Broken pipe" and
    // exit 101.
    let mut child = Command::new(BIN)
        .args(["--workload", "pabm", "--cores", "16", "--steps", "200"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ptsched");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout pipe"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read the first line");
    assert!(line.starts_with("workload pabm"), "first line: {line}");
    drop(stdout);
    let out = child.wait_with_output().expect("ptsched exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "ptsched panicked: {stderr}");
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
}
