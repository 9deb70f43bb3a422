//! `ptsched` — schedule, map and simulate an M-task workload from the
//! command line.
//!
//! ```text
//! ptsched [--workload epol|irk|diirk|pab|pabm|sp-mz|bt-mz]
//!         [--platform chic|altix|juropa] [--cores N]
//!         [--mapping consecutive|scattered|mixed2|mixed4]
//!         [--groups G] [--steps S] [--gantt]
//!         [--slow-nodes N] [--slow-factor F] [--trace PATH]
//! ptsched serve [--listen ADDR] [--workers N] [--sweep-workers N]
//!               [--cache-capacity N]
//! ```
//!
//! `--steps S` unrolls S time steps, at most `MAX_STEPS` (1000): every
//! step adds a layer to the graph the request schedules and simulates, and
//! a one-shot BT-MZ B plan on 256 JuRoPA cores already takes about 9 s at
//! 4 000 steps, so a larger request is refused up front.
//!
//! `--slow-nodes N` degrades the *last* N nodes of the machine to
//! `--slow-factor` × nominal speed (default 0.5), turning on the layer
//! scheduler's heterogeneity-aware path.  `--trace PATH` writes a
//! Chrome-trace JSON of the run — scheduler phases plus the simulated
//! timeline under the selected mapping — openable at
//! <https://ui.perfetto.dev>.
//!
//! The one-shot form prints the computed schedule, the simulated time per
//! step under the chosen mapping (and all alternatives for comparison) and
//! optionally an ASCII timeline.  Malformed or out-of-range arguments exit
//! with status 2 and a pointer to `--help`; scheduling failures exit 1.
//!
//! `ptsched serve` runs the scheduler as a long-lived service answering
//! line-delimited JSON requests — on stdin/stdout by default, or on a TCP
//! socket with `--listen HOST:PORT` (one connection per client thread).
//! Each request line selects a workload the same way the one-shot flags do:
//!
//! ```text
//! {"workload":"epol","platform":"chic","cores":64,"mapping":"consecutive","steps":2}
//! {"workload":"bt-mz","platform":"juropa","cores":256,"slow_nodes":8,"slow_factor":0.5}
//! {"cmd":"stats"}
//! {"cmd":"submit","workload":"epol","steps":1,"arrival":0.0,"min_width":2}
//! {"cmd":"tenant","platform":"chic","cores":16,"policy":"malleable"}
//! ```
//!
//! Responses are one JSON object per line: `{"ok":true,"cache":"hit",...}`
//! with the simulated time per step, or `{"ok":false,"error":"..."}`.
//! Repeated requests are answered from the service's content-addressed
//! schedule cache (see the `pt-serve` crate).
//!
//! `{"cmd":"submit"}` queues one job of an online multi-tenant stream;
//! `{"cmd":"tenant"}` runs the queued stream as a scenario under a policy
//! (`fcfs` | `equi` | `malleable`, see the `pt-tenant` crate) and answers
//! with makespan, per-job stretch and platform utilization (`"drain":false`
//! keeps the stream queued for comparing policies on the same jobs).

use parallel_tasks::core::MappingStrategy;
use parallel_tasks::cost::CostModel;
use parallel_tasks::machine::{platforms, ClusterSpec};
use parallel_tasks::mtask::TaskGraph;
use parallel_tasks::nas::{bt_mz, sp_mz, Class};
use parallel_tasks::ode::{Bruss2d, Diirk, Epol, Irk, Pab, Pabm};
use parallel_tasks::serve::{
    plan, table_store, write_trace, CacheStatus, Plan, SchedService, ScheduleRequest, ServeConfig,
};
use parallel_tasks::sim::{render_gantt, render_layers, Simulator};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::hash::Hash;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::sync::{Arc, Mutex};

/// One scheduling request as the one-shot flags or a serve request line
/// describe it (`gantt` and `trace` are one-shot only).
struct Options {
    workload: String,
    platform: String,
    cores: usize,
    mapping: String,
    groups: Option<usize>,
    steps: usize,
    gantt: bool,
    slow_nodes: usize,
    slow_factor: f64,
    trace: Option<String>,
}

impl Default for Options {
    /// The request defaults of both modes.
    fn default() -> Self {
        Options {
            workload: "epol".into(),
            platform: "chic".into(),
            cores: 64,
            mapping: "consecutive".into(),
            groups: None,
            steps: 2,
            gantt: false,
            slow_nodes: 0,
            slow_factor: 0.5,
            trace: None,
        }
    }
}

const WORKLOADS: &[&str] = &["epol", "irk", "diirk", "pab", "pabm", "sp-mz", "bt-mz"];

/// The most time steps one request may unroll: planning cost grows with
/// the steps, and a request must not hold a worker for minutes.
const MAX_STEPS: usize = 1000;

fn parse_args(args: &mut dyn Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options::default();
    while let Some(a) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = take("--workload")?,
            "--platform" => o.platform = take("--platform")?,
            "--cores" => {
                o.cores = take("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?
            }
            "--mapping" => o.mapping = take("--mapping")?,
            "--groups" => {
                o.groups = Some(
                    take("--groups")?
                        .parse()
                        .map_err(|e| format!("--groups: {e}"))?,
                )
            }
            "--steps" => {
                o.steps = take("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--gantt" => o.gantt = true,
            "--slow-nodes" => {
                o.slow_nodes = take("--slow-nodes")?
                    .parse()
                    .map_err(|e| format!("--slow-nodes: {e}"))?
            }
            "--slow-factor" => {
                o.slow_factor = take("--slow-factor")?
                    .parse()
                    .map_err(|e| format!("--slow-factor: {e}"))?
            }
            "--trace" => o.trace = Some(take("--trace")?),
            "--help" | "-h" => {
                println!(
                    "usage: ptsched [--workload epol|irk|diirk|pab|pabm|sp-mz|bt-mz] \
                     [--platform chic|altix|juropa] [--cores N] \
                     [--mapping consecutive|scattered|mixed2|mixed4] \
                     [--groups G] [--steps S (1..=1000)] [--gantt] \
                     [--slow-nodes N] [--slow-factor F] [--trace PATH]\n\
                     \x20      ptsched serve [--listen HOST:PORT] [--workers N] \
                     [--sweep-workers N] [--cache-capacity N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    validate_options(&o)?;
    Ok(o)
}

/// Range checks for values that parse but cannot be scheduled — the
/// scheduling pipeline enforces these with asserts, which must never be
/// reachable from the command line or a serve request.
fn validate_options(o: &Options) -> Result<(), String> {
    if !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload `{}`", o.workload));
    }
    let machine = platform(&o.platform)?;
    mapping(&o.mapping)?;
    let cpn = machine.cores_per_node();
    if o.cores == 0 {
        return Err("--cores must be at least 1".into());
    }
    if !o.cores.is_multiple_of(cpn) {
        return Err(format!(
            "--cores {} is not a whole number of {cpn}-core `{}` nodes",
            o.cores, machine.name
        ));
    }
    let nodes = o.cores / cpn;
    if nodes > machine.nodes {
        return Err(format!(
            "--cores {} exceeds `{}` ({} nodes x {cpn} cores)",
            o.cores, machine.name, machine.nodes
        ));
    }
    if o.groups == Some(0) {
        return Err("--groups must be at least 1".into());
    }
    if o.steps == 0 {
        return Err("--steps must be at least 1".into());
    }
    if o.steps > MAX_STEPS {
        return Err(format!(
            "--steps {} exceeds the limit of {MAX_STEPS} steps per request",
            o.steps
        ));
    }
    // The slow tail is bounded by the sub-machine actually used.
    if o.slow_nodes > nodes {
        return Err(format!(
            "--slow-nodes {} exceeds the {nodes} nodes selected by --cores {}",
            o.slow_nodes, o.cores
        ));
    }
    if !(o.slow_factor > 0.0 && o.slow_factor.is_finite()) {
        return Err("--slow-factor must be a positive number".into());
    }
    Ok(())
}

fn platform(name: &str) -> Result<ClusterSpec, String> {
    match name {
        "chic" => Ok(platforms::chic()),
        "altix" => Ok(platforms::altix()),
        "juropa" => Ok(platforms::juropa()),
        other => Err(format!("unknown platform `{other}`")),
    }
}

fn mapping(name: &str) -> Result<MappingStrategy, String> {
    match name {
        "consecutive" => Ok(MappingStrategy::Consecutive),
        "scattered" => Ok(MappingStrategy::Scattered),
        "mixed2" => Ok(MappingStrategy::Mixed(2)),
        "mixed4" => Ok(MappingStrategy::Mixed(4)),
        other => Err(format!("unknown mapping `{other}`")),
    }
}

fn workload(name: &str, steps: usize) -> Result<TaskGraph, String> {
    let sparse = Bruss2d::new(250);
    Ok(match name {
        "epol" => Epol::new(8).step_graph(&sparse, steps),
        "irk" => Irk::new(4, 3).step_graph(&sparse, steps),
        "diirk" => Diirk::new(4, 2).step_graph(&Bruss2d::new(80), steps, 2.0),
        "pab" => Pab::new(8).step_graph(&sparse, steps),
        "pabm" => Pabm::new(8, 2).step_graph(&sparse, steps),
        "sp-mz" => sp_mz(Class::B).step_graph(steps),
        "bt-mz" => bt_mz(Class::B).step_graph(steps),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Platform, cores, slow nodes and slow-factor bits.
type MachineKey = (String, usize, usize, u64);

/// The most graphs, and the most machines, a [`Memo`] keeps.  Every
/// distinct `steps` and every distinct `slow_factor` makes a new key, so an
/// insert past this drops the whole map instead; the next request for a
/// dropped key pays one rebuild and a structural compare in the schedule
/// cache.
const MEMO_CAPACITY: usize = 64;

/// Graph and machine `Arc`s memoized across requests: repeated requests
/// share one `Arc`, so the cache's structural verification short-circuits
/// on pointer equality.
#[derive(Default)]
struct Memo {
    graphs: Mutex<HashMap<(String, usize), Arc<TaskGraph>>>,
    machines: Mutex<HashMap<MachineKey, Arc<ClusterSpec>>>,
}

/// The memoized value of `key`, built and inserted on a miss; a full
/// `map` is dropped before the insert.
fn memoized<K: Eq + Hash, V>(
    map: &Mutex<HashMap<K, Arc<V>>>,
    key: K,
    build: impl FnOnce() -> Result<V, String>,
) -> Result<Arc<V>, String> {
    let mut map = map.lock().expect("memo lock");
    if let Some(v) = map.get(&key) {
        return Ok(v.clone());
    }
    let v = Arc::new(build()?);
    if map.len() >= MEMO_CAPACITY {
        map.clear();
    }
    map.insert(key, v.clone());
    Ok(v)
}

impl Memo {
    fn graph(&self, name: &str, steps: usize) -> Result<Arc<TaskGraph>, String> {
        memoized(&self.graphs, (name.into(), steps), || workload(name, steps))
    }

    /// The `cores`-wide machine of validated options, with its last
    /// `slow_nodes` nodes at `slow_factor` × nominal speed.
    fn machine(&self, o: &Options) -> Result<Arc<ClusterSpec>, String> {
        let base = platform(&o.platform)?;
        let key = (
            o.platform.clone(),
            o.cores,
            o.slow_nodes,
            o.slow_factor.to_bits(),
        );
        memoized(&self.machines, key, || {
            let spec = base.with_cores(o.cores);
            Ok(if o.slow_nodes > 0 {
                spec.with_slow_nodes(o.slow_nodes, o.slow_factor)
            } else {
                spec
            })
        })
    }

    /// The schedule request of validated options.
    fn request(&self, o: &Options) -> Result<ScheduleRequest, String> {
        let mut request = ScheduleRequest::new(
            self.graph(&o.workload, o.steps)?,
            self.machine(o)?,
            mapping(&o.mapping)?,
        );
        request.policy.fixed_groups = o.groups;
        Ok(request)
    }
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        std::process::exit(serve_main(&mut args));
    }
    let o = match parse_args(&mut args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ptsched: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let run = || -> Result<(), String> {
        let request = Memo::default().request(&o)?;
        let planned = match &o.trace {
            Some(path) => write_trace(&request, path).map_err(|e| format!("--trace {e}"))?,
            None => plan(&request, &table_store(&request), None, None),
        };
        // A reader that closes the pipe early (`| head`) ends the report
        // quietly.
        match report(&mut std::io::stdout().lock(), &o, &request, &planned) {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(format!("stdout: {e}")),
            _ => Ok(()),
        }
    };
    if let Err(e) = run() {
        eprintln!("ptsched: {e}");
        std::process::exit(1);
    }
}

/// The one-shot report of a planned request, written to `out`: the
/// schedule, the simulated time per step under every mapping, the layer
/// timing and, with `--gantt`, the timeline.
fn report(
    out: &mut impl Write,
    o: &Options,
    request: &ScheduleRequest,
    planned: &Plan,
) -> std::io::Result<()> {
    let (graph, spec, schedule) = (&*request.graph, &*request.machine, &planned.schedule);
    writeln!(
        out,
        "workload {} ({} tasks, {} edges) on {} x {} cores",
        o.workload,
        graph.len(),
        graph.edge_count(),
        spec.name,
        o.cores
    )?;
    if !spec.is_uniform() {
        writeln!(
            out,
            "machine: last {} of {} nodes at {}x nominal speed \
             (het-aware scheduling on, classes {:?})",
            o.slow_nodes,
            spec.nodes,
            o.slow_factor,
            spec.speed_classes()
        )?;
    }
    writeln!(
        out,
        "schedule: {} layers, group counts {:?}",
        schedule.layers.len(),
        schedule
            .layers
            .iter()
            .map(|l| l.num_groups())
            .collect::<Vec<_>>()
    )?;

    let model = CostModel::new(spec);
    let sim = Simulator::new(&model);
    writeln!(out, "\nsimulated time per step by mapping:")?;
    // Each candidate mapping simulates independently; fan the sweep out
    // one thread per strategy and print in the original (deterministic)
    // order afterwards.
    let strategies = MappingStrategy::all_for(spec);
    let cores = o.cores;
    let reports: Vec<_> = std::thread::scope(|sc| {
        let handles: Vec<_> = strategies
            .iter()
            .map(|&s| {
                let sim = &sim;
                sc.spawn(move || {
                    let m = s.mapping(spec, cores);
                    sim.simulate_layered(graph, schedule, &m)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mapping sweep worker panicked"))
            .collect()
    });
    let chosen = request.mapping;
    for (&s, rep) in strategies.iter().zip(&reports) {
        let marker = if s == chosen { " <-- selected" } else { "" };
        writeln!(
            out,
            "  {:<12} {:>10.3} ms{}",
            s.name(),
            rep.makespan / o.steps as f64 * 1e3,
            marker
        )?;
    }

    writeln!(out, "\nlayer timing ({}):", chosen.name())?;
    write!(out, "{}", render_layers(&planned.report))?;
    if o.gantt {
        writeln!(out, "\ntimeline:")?;
        write!(out, "{}", render_gantt(&planned.report, graph, 64))?;
    }
    if let Some(path) = &o.trace {
        writeln!(out, "\nwrote chrome trace to {path}")?;
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// serve mode
// ---------------------------------------------------------------------------

struct ServeOptions {
    listen: Option<String>,
    config: ServeConfig,
}

fn parse_serve_args(args: &mut dyn Iterator<Item = String>) -> Result<ServeOptions, String> {
    let mut o = ServeOptions {
        listen: None,
        config: ServeConfig::default(),
    };
    while let Some(a) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let positive = |name: &str, v: String| -> Result<usize, String> {
            let n: usize = v.parse().map_err(|e| format!("{name}: {e}"))?;
            if n == 0 {
                return Err(format!("{name} must be at least 1"));
            }
            Ok(n)
        };
        match a.as_str() {
            "--listen" => o.listen = Some(take("--listen")?),
            "--workers" => o.config.workers = positive("--workers", take("--workers")?)?,
            "--sweep-workers" => {
                o.config.sweep_workers = positive("--sweep-workers", take("--sweep-workers")?)?
            }
            "--cache-capacity" => {
                o.config.cache_capacity = positive("--cache-capacity", take("--cache-capacity")?)?
            }
            "--help" | "-h" => {
                println!(
                    "usage: ptsched serve [--listen HOST:PORT] [--workers N] \
                     [--sweep-workers N] [--cache-capacity N]\n\
                     reads one JSON request per line (stdin, or per TCP \
                     connection with --listen) and writes one JSON response \
                     per line"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(o)
}

/// One job queued by `{"cmd":"submit"}`, awaiting a `{"cmd":"tenant"}`
/// scenario run.
struct PendingJob {
    workload: String,
    steps: usize,
    arrival: f64,
    min_width: usize,
}

struct ServeState {
    service: SchedService,
    memo: Memo,
    /// The submit-mode job stream (drained by `{"cmd":"tenant"}`).
    pending: Mutex<Vec<PendingJob>>,
}

impl ServeState {
    fn new(config: ServeConfig) -> Self {
        ServeState {
            service: SchedService::new(config),
            memo: Memo::default(),
            pending: Mutex::new(Vec::new()),
        }
    }
}

fn serve_main(args: &mut dyn Iterator<Item = String>) -> i32 {
    let o = match parse_serve_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ptsched: serve: {e} (try ptsched serve --help)");
            return 2;
        }
    };
    let state = Arc::new(ServeState::new(o.config));
    let Some(addr) = o.listen else {
        serve_lines(&state, std::io::stdin().lock(), std::io::stdout().lock());
        return 0;
    };
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ptsched: serve: cannot listen on {addr}: {e}");
            return 1;
        }
    };
    // Tests and scripts need the actual port when binding port 0.
    if let Ok(local) = listener.local_addr() {
        println!("listening on {local}");
        let _ = std::io::stdout().flush();
    }
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let state = state.clone();
        std::thread::spawn(move || {
            serve_lines(&state, BufReader::new(stream), BufWriter::new(peer));
        });
    }
    0
}

/// The longest request line `ptsched serve` reads, in bytes (without its
/// newline).  A longer line gets an error reply and the rest of it is
/// skipped unread, so no client makes the server buffer an unbounded line.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Answer every request line of `reader` with one response line on
/// `writer`, until the input ends or a read or write fails.  A line that is
/// too long or not UTF-8 gets an `{"ok":false,...}` reply, and the next
/// line is served as usual.
fn serve_lines(state: &ServeState, mut reader: impl BufRead, mut writer: impl Write) {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let reply = if buf.len() > MAX_LINE_BYTES {
            if skip_line(&mut reader).is_err() {
                return;
            }
            error_line(&format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => handle_line(state, line),
                Err(_) => error_line("request line is not UTF-8"),
            }
        };
        if writeln!(writer, "{reply}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Consume input up to and including the next newline, without keeping it.
fn skip_line(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                reader.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
}

#[derive(Serialize)]
struct ServeReplyLine {
    ok: bool,
    cache: String,
    signature: String,
    layers: usize,
    makespan_ms_per_step: f64,
    cost_evaluations: usize,
}

fn error_line(msg: &str) -> String {
    let v = Value::Map(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(msg.into())),
    ]);
    serde_json::to_string(&v).expect("serialize error response")
}

/// Answer one request line with one response line (never panics: every
/// failure becomes an `{"ok":false,...}` response).
fn handle_line(state: &ServeState, line: &str) -> String {
    match serve_request(state, line) {
        Ok(reply) => reply,
        Err(e) => error_line(&e),
    }
}

fn serve_request(state: &ServeState, line: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad request: {e}"))?;
    if let Some(Value::Str(cmd)) = get(&v, "cmd") {
        return match cmd.as_str() {
            "stats" => {
                let v = Value::Map(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("stats".into(), state.service.stats().serialize()),
                ]);
                Ok(serde_json::to_string(&v).expect("serialize stats"))
            }
            "submit" => submit_request(state, &v),
            "tenant" => tenant_request(state, &v),
            other => Err(format!("unknown command `{other}`")),
        };
    }
    let d = Options::default();
    let o = Options {
        workload: str_or(&v, "workload", &d.workload)?,
        platform: str_or(&v, "platform", &d.platform)?,
        cores: usize_or(&v, "cores", d.cores)?,
        mapping: str_or(&v, "mapping", &d.mapping)?,
        groups: opt_usize(&v, "groups")?,
        steps: usize_or(&v, "steps", d.steps)?,
        slow_nodes: usize_or(&v, "slow_nodes", d.slow_nodes)?,
        slow_factor: f64_or(&v, "slow_factor", d.slow_factor)?,
        ..d
    };
    validate_options(&o)?;
    let request = state.memo.request(&o)?;

    let (reply, status) = state.service.schedule(request).map_err(|e| e.to_string())?;
    let line = ServeReplyLine {
        ok: true,
        cache: match status {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Followed => "followed",
        }
        .into(),
        signature: reply.signature.to_string(),
        layers: reply.schedule.layers.len(),
        makespan_ms_per_step: reply.makespan / o.steps as f64 * 1e3,
        cost_evaluations: reply.cost_evaluations,
    };
    Ok(serde_json::to_string(&line).expect("serialize response"))
}

/// `{"cmd":"submit","workload":"epol","steps":1,"arrival":0.25,"min_width":2}`
/// — append one job to the tenant stream.  Validation happens here (the
/// later scenario run must not fail on a job admitted long ago).
fn submit_request(state: &ServeState, v: &Value) -> Result<String, String> {
    let d = Options::default();
    let o = Options {
        workload: str_or(v, "workload", &d.workload)?,
        steps: usize_or(v, "steps", 1)?,
        ..d
    };
    validate_options(&o)?;
    let arrival = f64_or(v, "arrival", 0.0)?;
    let min_width = usize_or(v, "min_width", 1)?;
    if min_width == 0 {
        return Err("min_width must be at least 1".into());
    }
    if !(arrival >= 0.0 && arrival.is_finite()) {
        return Err("arrival must be a non-negative number".into());
    }
    let mut pending = state.pending.lock().expect("pending lock");
    pending.push(PendingJob {
        workload: o.workload,
        steps: o.steps,
        arrival,
        min_width,
    });
    let reply = Value::Map(vec![
        ("ok".into(), Value::Bool(true)),
        ("queued".into(), Value::UInt(pending.len() as u64)),
    ]);
    Ok(serde_json::to_string(&reply).expect("serialize submit reply"))
}

/// `{"cmd":"tenant","platform":"chic","cores":16,"policy":"malleable"}` —
/// run the submitted job stream as an online multi-tenant scenario and
/// report makespan / stretch / utilization.  `"drain":false` keeps the
/// stream for another run (policy comparisons on one stream).
fn tenant_request(state: &ServeState, v: &Value) -> Result<String, String> {
    let d = Options::default();
    let o = Options {
        platform: str_or(v, "platform", &d.platform)?,
        cores: usize_or(v, "cores", d.cores)?,
        ..d
    };
    validate_options(&o)?;
    let policy = match str_or(v, "policy", "malleable")?.as_str() {
        "fcfs" | "fcfs-exclusive" => pt_tenant::Policy::FcfsExclusive,
        "equi" => pt_tenant::Policy::Equi,
        "malleable" => pt_tenant::Policy::Malleable,
        other => return Err(format!("unknown policy `{other}`")),
    };
    let drain = match get(v, "drain") {
        None | Some(Value::Null) => true,
        Some(Value::Bool(b)) => *b,
        Some(other) => return Err(format!("field `drain` must be a boolean, got {other:?}")),
    };
    let machine = state.memo.machine(&o)?;
    let jobs: Vec<pt_tenant::JobSpec> = {
        let mut pending = state.pending.lock().expect("pending lock");
        if pending.is_empty() {
            return Err("no jobs submitted (send {\"cmd\":\"submit\",...} first)".into());
        }
        let jobs = pending
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Ok(pt_tenant::JobSpec::new(
                    i,
                    format!("{}#{i}", p.workload),
                    state.memo.graph(&p.workload, p.steps)?,
                    p.arrival,
                )
                .with_min_width(p.min_width.min(o.cores)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        if drain {
            pending.clear();
        }
        jobs
    };

    // Width probes are requests to this process's own service, so they
    // share its schedule cache and warm tables with plain requests.
    let oracle = pt_tenant::AdmissionOracle::new(&state.service, machine);
    let report = pt_tenant::run_scenario(&oracle, &jobs, policy);
    let per_job: Vec<Value> = report
        .jobs
        .iter()
        .map(|j| {
            Value::Map(vec![
                ("name".into(), Value::Str(j.name.clone())),
                ("arrival_s".into(), Value::Float(j.arrival)),
                ("finish_s".into(), Value::Float(j.finish)),
                ("stretch".into(), Value::Float(j.stretch)),
                ("resizes".into(), Value::UInt(j.resizes as u64)),
            ])
        })
        .collect();
    let reply = Value::Map(vec![
        ("ok".into(), Value::Bool(true)),
        ("policy".into(), Value::Str(report.policy.clone())),
        ("jobs".into(), Value::UInt(report.jobs.len() as u64)),
        ("makespan_s".into(), Value::Float(report.makespan)),
        ("mean_stretch".into(), Value::Float(report.mean_stretch)),
        ("max_stretch".into(), Value::Float(report.max_stretch)),
        ("utilization".into(), Value::Float(report.utilization)),
        ("resizes".into(), Value::UInt(report.resizes as u64)),
        ("per_job".into(), Value::Seq(per_job)),
    ]);
    Ok(serde_json::to_string(&reply).expect("serialize tenant reply"))
}

fn get<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn str_or(v: &Value, name: &str, default: &str) -> Result<String, String> {
    match get(v, name) {
        None | Some(Value::Null) => Ok(default.into()),
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("field `{name}` must be a string, got {other:?}")),
    }
}

fn usize_or(v: &Value, name: &str, default: usize) -> Result<usize, String> {
    match opt_usize(v, name)? {
        Some(n) => Ok(n),
        None => Ok(default),
    }
}

fn f64_or(v: &Value, name: &str, default: f64) -> Result<f64, String> {
    match get(v, name) {
        None | Some(Value::Null) => Ok(default),
        Some(val) => <f64 as serde::Deserialize>::deserialize(val)
            .map_err(|_| format!("field `{name}` must be a number, got {val:?}")),
    }
}

fn opt_usize(v: &Value, name: &str) -> Result<Option<usize>, String> {
    match get(v, name) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => <usize as serde::Deserialize>::deserialize(val)
            .map(Some)
            .map_err(|_| format!("field `{name}` must be a non-negative integer, got {val:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_stays_bounded_under_distinct_keys() {
        let state = ServeState::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        for i in 0..=MEMO_CAPACITY {
            let factor = 0.5 + i as f64 / 1024.0;
            let line = format!(
                r#"{{"workload":"epol","cores":16,"steps":1,"slow_nodes":1,"slow_factor":{factor}}}"#
            );
            let reply = handle_line(&state, &line);
            assert!(reply.contains(r#""ok":true"#), "{reply}");
            assert!(state.memo.machines.lock().unwrap().len() <= MEMO_CAPACITY);
        }
        for steps in 1..=MEMO_CAPACITY + 1 {
            state.memo.graph("epol", steps).unwrap();
            assert!(state.memo.graphs.lock().unwrap().len() <= MEMO_CAPACITY);
        }
    }
}
