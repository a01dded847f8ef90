//! The three workloads: set-up, closed request loops and output checks.
//!
//! Every workload runs on `PAPER_MODULES[0]` from one submitting thread and
//! reaches the program only through its public API. The workload seed picks
//! the generator streams; the request mix is fixed per workload.

use crate::hist::LogHistogram;
use qt_baselines::DRangeTrng;
use qt_dram_analog::{FailureModel, ModuleProfile, QuacAnalogModel, PAPER_MODULES};
use qt_dram_core::{BitVec, DataPattern};
use qt_nist_sts::{run_all_tests, Significance};
use qt_rng_service::mixer::mix_reference;
use qt_rng_service::{
    ClientId, Completion, Priority, RngService, RngServiceConfig, ServiceStats, SubmitError,
    Ticket, Trng128, Trng32, ValidationConfig,
};
use quac_trng::characterize::{characterize_module, CharacterizationConfig};
use quac_trng::pipeline::QuacTrng;
use quac_trng::{EntropyBackend, ModuleCharacterization};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The module every workload runs on.
pub fn module() -> &'static ModuleProfile {
    &PAPER_MODULES[0]
}

/// Set-ups timed per run, each in a fresh process; `setup_s` is their
/// median.
const SETUPS: usize = 9;
/// Closed-loop warm-up before timing starts: fills the validation tap
/// queue and settles caches and allocator pools.
const WARMUP: Duration = Duration::from_secs(1);
/// Served bytes compared against a serial twin generator (`bulk`).
const TWIN_CHECK_BYTES: usize = 1 << 20;
/// Significance level of the `bulk` battery check. A sound stream fails a
/// test at level α with probability α, and the battery reports 15 minimum
/// p-values, so α = 10⁻⁶ keeps a false alarm below 10⁻⁴ per run; any defect
/// that matters drives p-values on 8 Mb far below it.
const BULK_BATTERY_ALPHA: Significance = Significance(1e-6);
/// Every n-th mixed completion of `validated` is recomputed with the
/// scalar `mix_reference` twin.
const MIX_CHECK_EVERY: u64 = 8;
/// `DRangeTrng` stream seed, derived from the workload seed.
const DRANGE_SEED_SALT: u64 = 0xD7A6_0000_0000_0000;
/// Length of the slices the latency median is taken over, and of each
/// untraced and each traced slice of a traced run.
///
/// The host switches between a fast and a slow speed every few seconds, so
/// a median over a whole run lands in one speed's mode or the other
/// depending on the run's mix of the two (`bulk`'s p50 jumped between 1.9
/// and 2.8 ms across runs). A 1 s slice mostly sees one speed, and the mean
/// of the slices' medians moves smoothly with the mix, as throughput
/// does. In a traced run, untraced and traced slices alternate, so both
/// sides of the tracing-overhead comparison see the same host speeds, and
/// one round of layer measurements runs after every pair.
const SLICE: Duration = Duration::from_secs(1);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 KiB requests, one outstanding, one QUAC shard, validation off.
    Bulk,
    /// Alternating 4 B / 16 B requests, 8 outstanding, each completion
    /// turned into a `Trng32` / `Trng128` frame.
    Frames,
    /// QUAC + D-RaNGe mesh, lossless continuous validation, 4 KiB requests
    /// alternating plain and mixed, one outstanding.
    Validated,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk" => Some(Workload::Bulk),
            "frames" => Some(Workload::Frames),
            "validated" => Some(Workload::Validated),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Frames => "frames",
            Workload::Validated => "validated",
        }
    }

    /// Request sizes, cycled in order.
    pub fn request_sizes(self) -> &'static [usize] {
        match self {
            Workload::Bulk => &[64 << 10],
            Workload::Frames => &[4, 16],
            Workload::Validated => &[4 << 10],
        }
    }

    /// Requests kept outstanding by the submitting thread.
    fn outstanding(self) -> usize {
        match self {
            Workload::Frames => 8,
            Workload::Bulk | Workload::Validated => 1,
        }
    }
}

/// Accumulated span time of one call site in the benchmark.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Calls timed.
    pub count: u64,
    /// Total time inside the calls.
    pub total_ns: u128,
}

impl Span {
    fn add(&mut self, from: Instant, to: Instant) {
        self.count += 1;
        self.total_ns += to.duration_since(from).as_nanos();
    }

    /// Mean time per call, 0 when never called.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Spans around the benchmark's own calls into the service, recorded only
/// in a traced phase. Aggregated per call site, so memory stays fixed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// `submit` / `submit_mixed` calls.
    pub submit: Span,
    /// `Ticket::wait` / `MixedTicket::wait` calls.
    pub wait: Span,
    /// The benchmark's own output checks inside the loop.
    pub check: Span,
}

/// One timed phase of a closed loop, or the sum of several slices.
#[derive(Default)]
pub struct Phase {
    /// Wall time of the phase.
    pub elapsed_s: f64,
    /// Requests completed in the phase.
    pub requests: u64,
    /// Bytes delivered to the client in the phase.
    pub bytes: u64,
    /// Submit-to-completed-wait latency of each request, ns.
    pub latency: LogHistogram,
    /// Median latency of each [`SLICE`], ns.
    pub slice_p50_ns: Vec<f64>,
    /// Call-site spans (traced phases only).
    pub spans: Spans,
    /// Served bytes copied into the validation tap over the phase.
    pub bytes_tapped: u64,
    /// Windows the battery graded over the phase.
    pub windows_validated: u64,
    /// Graded windows that failed over the phase.
    pub windows_failed: u64,
    /// Bytes the workers served over the phase (all shards, before mixing).
    pub served_bytes: u64,
}

impl Phase {
    /// Adds another slice's counts and time to this one.
    fn absorb(&mut self, slice: Phase) {
        self.elapsed_s += slice.elapsed_s;
        self.requests += slice.requests;
        self.bytes += slice.bytes;
        self.latency.merge(&slice.latency);
        self.slice_p50_ns.extend(slice.slice_p50_ns);
        for (mine, theirs) in [
            (&mut self.spans.submit, slice.spans.submit),
            (&mut self.spans.wait, slice.spans.wait),
            (&mut self.spans.check, slice.spans.check),
        ] {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
        }
        self.bytes_tapped += slice.bytes_tapped;
        self.windows_validated += slice.windows_validated;
        self.windows_failed += slice.windows_failed;
        self.served_bytes += slice.served_bytes;
    }

    /// Mean over the slices of their median latency, ns; 0 when nothing
    /// completed.
    pub fn sliced_p50_ns(&self) -> f64 {
        let n = self.slice_p50_ns.len().max(1) as f64;
        self.slice_p50_ns.iter().sum::<f64>() / n
    }

    /// Closes one slice of latencies.
    fn end_slice(&mut self, slice: &mut LogHistogram) {
        if slice.count() > 0 {
            self.slice_p50_ns.push(slice.quantile(0.5));
            *slice = LogHistogram::default();
        }
    }
}

/// Result of one output check.
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one workload run measured.
pub struct Outcome {
    /// Operations attempted: requests submitted (including each set-up's
    /// first request) plus end-of-run checks.
    pub attempted: u64,
    /// Rejected, expired or wrong responses, plus failed checks.
    pub failed: u64,
    /// End-of-run checks.
    pub checks: Vec<Check>,
    /// Each set-up's time from process start to the first request
    /// admitted, s.
    pub setup_s: Vec<f64>,
    /// Each set-up's `characterize_module` time, s.
    pub characterize_s: Vec<f64>,
    /// The timed phases: one untraced; traced runs add the traced one, and
    /// their untraced phase is the sum of the untraced slices.
    pub phases: Vec<Phase>,
    /// Layer timings taken between the slices of a traced run.
    pub timings: Option<crate::layers::Timings>,
    /// Quarantines over the whole run (all shards).
    pub quarantines: u64,
    /// Mixed requests served plain because fewer than two backend kinds
    /// were in placement (a shard was quarantined).
    pub mixed_fallbacks: u64,
    /// The kept service's characterisation.
    pub characterization: ModuleCharacterization,
    /// Peak resident set after the timed phases, before the end-of-run
    /// checks (the battery over the twin-check stream alone needs far
    /// more memory than serving does), MiB.
    pub peak_rss_mib: f64,
}

/// `validated`'s service: continuous validation with the lossless tap and
/// otherwise the program's defaults, the health policy included.
fn validated_service_config() -> RngServiceConfig {
    RngServiceConfig {
        validation: ValidationConfig {
            enabled: true,
            lossless_tap: true,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A D-RaNGe generator on the module's geometry.
pub fn drange_backend(profile: &ModuleProfile, seed: u64) -> DRangeTrng {
    let failures = FailureModel::new(profile.variation());
    DRangeTrng::new(&failures, &profile.geometry(), seed ^ DRANGE_SEED_SALT)
}

struct Built {
    model: QuacAnalogModel,
    characterization: ModuleCharacterization,
    service: RngService,
    first: Option<Ticket>,
    characterize_s: f64,
}

/// One full set-up: model, characterisation, backends, service start, and
/// the first request admitted.
fn build(workload: Workload, seed: u64) -> Built {
    let profile = module();
    let model = profile.analog_model();
    let char_start = Instant::now();
    let characterization = characterize_module(
        &model,
        DataPattern::best_average(),
        // The density `QuacTrng::for_module` uses.
        &CharacterizationConfig::fast(),
    );
    let characterize_s = char_start.elapsed().as_secs_f64();
    let quac = QuacTrng::shards(&model, &characterization, seed, 1);
    let service = match workload {
        Workload::Bulk | Workload::Frames => RngService::start(quac, RngServiceConfig::default()),
        Workload::Validated => {
            let backends: Vec<Box<dyn EntropyBackend>> = vec![
                Box::new(quac.into_iter().next().expect("one QUAC shard")),
                Box::new(drange_backend(profile, seed)),
            ];
            RngService::start_mesh(backends, validated_service_config())
        }
    };
    let first = service
        .submit(ClientId(0), Priority::Normal, workload.request_sizes()[0])
        .ok();
    Built {
        model,
        characterization,
        service,
        first,
        characterize_s,
    }
}

/// The set-up probe, run as a fresh process by [`time_setup`]: builds the
/// workload's service, reports the first request admitted together with
/// the characterisation time, then waits for that request and reports
/// whether it was served. Returns whether it was.
pub fn probe(workload: Workload, seed: u64) -> bool {
    let built = build(workload, seed);
    let Some(first) = built.first else {
        println!("rejected");
        return false;
    };
    println!("admitted {}", built.characterize_s);
    let served = first
        .wait()
        .is_ok_and(|c| c.bytes.len() == workload.request_sizes()[0]);
    println!("{}", if served { "served" } else { "failed" });
    built.service.shutdown();
    served
}

/// Times one set-up from process start: spawns this executable in probe
/// mode and stops the clock when the probe reports its first request
/// admitted, so one-time costs of a fresh process (loading, lazy tables,
/// first page faults) land in every sample. Returns `(setup_s,
/// characterize_s)` when the probe's first request was admitted and served.
fn time_setup(workload: Workload, seed: u64) -> Option<(f64, f64)> {
    let exe = std::env::current_exe().ok()?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--probe", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let admitted = lines.next().and_then(Result::ok);
    let setup_s = start.elapsed().as_secs_f64();
    let served = lines.next().and_then(Result::ok);
    let exited = child.wait().is_ok_and(|status| status.success());
    let characterize_s = admitted?.strip_prefix("admitted ")?.parse().ok()?;
    (exited && served.as_deref() == Some("served")).then_some((setup_s, characterize_s))
}

fn ledger_holds(stats: &ServiceStats) -> bool {
    stats
        .per_shard_ledger
        .iter()
        .all(|l| l.fresh_bits_claimed <= l.fresh_bits_drawn)
}

/// The client side of a workload: issues requests, checks each response
/// and keeps what the end-of-run checks need.
struct Client<'a> {
    workload: Workload,
    service: &'a RngService,
    next_size: usize,
    in_flight: VecDeque<(Instant, Pending, usize)>,
    attempted: u64,
    failed: u64,
    mixed_seen: u64,
    mixed_fallbacks: u64,
    /// Served `bulk` stream from offset 0, up to `TWIN_CHECK_BYTES`.
    captured: Vec<u8>,
}

enum Pending {
    Plain(Ticket),
    Mixed(qt_rng_service::MixedTicket),
}

impl<'a> Client<'a> {
    fn new(workload: Workload, service: &'a RngService) -> Self {
        Client {
            workload,
            service,
            next_size: 0,
            in_flight: VecDeque::new(),
            attempted: 0,
            failed: 0,
            mixed_seen: 0,
            mixed_fallbacks: 0,
            captured: Vec::with_capacity(TWIN_CHECK_BYTES),
        }
    }

    /// Adopts the set-up's first request.
    fn adopt(&mut self, first: Option<Ticket>) {
        self.attempted += 1;
        self.next_size = 1;
        match first {
            Some(t) => self
                .in_flight
                .push_back((Instant::now(), Pending::Plain(t), self.size(0))),
            None => self.failed += 1,
        }
    }

    fn size(&self, index: usize) -> usize {
        let sizes = self.workload.request_sizes();
        sizes[index % sizes.len()]
    }

    /// Submits one request; `validated` alternates plain and mixed.
    fn submit(&mut self, spans: Option<&mut Spans>) {
        let len = self.size(self.next_size);
        let mixed = self.workload == Workload::Validated && self.next_size % 2 == 1;
        self.next_size += 1;
        self.attempted += 1;
        let t0 = Instant::now();
        let plain = || {
            self.service
                .submit(ClientId(0), Priority::Normal, len)
                .map(Pending::Plain)
        };
        let pending = if mixed {
            match self
                .service
                .submit_mixed(ClientId(0), Priority::Normal, len)
            {
                // While a quarantined shard leaves one backend kind in
                // placement the mesh cannot mix; the client takes plain
                // bytes, and the run reports how often.
                Err(SubmitError::NoIndependentSources { .. }) => {
                    self.mixed_fallbacks += 1;
                    plain()
                }
                other => other.map(Pending::Mixed),
            }
        } else {
            plain()
        };
        if let Some(spans) = spans {
            spans.submit.add(t0, Instant::now());
        }
        match pending {
            Ok(p) => self.in_flight.push_back((t0, p, len)),
            Err(_) => self.failed += 1,
        }
    }

    /// Waits for the oldest outstanding request and checks it. Returns the
    /// delivered length and latency when the response is right.
    fn complete(&mut self, mut spans: Option<&mut Spans>) -> Option<(usize, Duration)> {
        let (t0, pending, len) = self.in_flight.pop_front()?;
        let t1 = Instant::now();
        let ok = match pending {
            Pending::Plain(ticket) => {
                let result = ticket.wait();
                if let Some(spans) = spans.as_deref_mut() {
                    spans.wait.add(t1, Instant::now());
                }
                match result {
                    Ok(c) => self.check_plain(&c, len, spans),
                    Err(_) => false,
                }
            }
            Pending::Mixed(ticket) => {
                let result = ticket.wait();
                if let Some(spans) = spans.as_deref_mut() {
                    spans.wait.add(t1, Instant::now());
                }
                match result {
                    Ok(m) => self.check_mixed(&m, len, spans),
                    Err(_) => false,
                }
            }
        };
        // Latency ends at the completed wait; the checks above are the
        // benchmark's own work and stay out of it.
        let latency = t0.elapsed();
        if ok {
            Some((len, latency))
        } else {
            self.failed += 1;
            None
        }
    }

    fn check_mixed(
        &mut self,
        m: &qt_rng_service::MixedCompletion,
        len: usize,
        spans: Option<&mut Spans>,
    ) -> bool {
        self.mixed_seen += 1;
        if m.bytes.len() != len {
            return false;
        }
        if self.mixed_seen % MIX_CHECK_EVERY != 0 {
            return true;
        }
        let c0 = Instant::now();
        let reference = mix_reference(&m.first.bytes, &m.second.bytes);
        let ok = reference.get(..len) == Some(&m.bytes[..]);
        if let Some(spans) = spans {
            spans.check.add(c0, Instant::now());
        }
        ok
    }

    fn check_plain(&mut self, c: &Completion, len: usize, spans: Option<&mut Spans>) -> bool {
        if c.bytes.len() != len {
            return false;
        }
        match self.workload {
            Workload::Bulk => {
                if self.captured.len() < TWIN_CHECK_BYTES {
                    // One outstanding request on one shard: completions
                    // arrive in stream order and must tile it.
                    if c.stream_offset as usize != self.captured.len() || c.epoch != 0 {
                        return false;
                    }
                    let take = len.min(TWIN_CHECK_BYTES - self.captured.len());
                    self.captured.extend_from_slice(&c.bytes[..take]);
                }
                true
            }
            Workload::Frames => {
                let c0 = Instant::now();
                let ok = if len == 4 {
                    Trng32::from_completion(c)
                        .is_ok_and(|f| f.value.to_le_bytes()[..] == c.bytes[..4])
                } else {
                    Trng128::from_completion(c).is_ok_and(|f| f.value[..] == c.bytes[..16])
                };
                if let Some(spans) = spans {
                    spans.check.add(c0, Instant::now());
                }
                ok
            }
            Workload::Validated => true,
        }
    }

    /// Runs the closed loop for `duration`, recording into a phase.
    fn run(&mut self, duration: Duration, traced: bool) -> Phase {
        let mut phase = Phase::default();
        let before = self.service.stats();
        let start = Instant::now();
        let end = start + duration;
        let mut slice = LogHistogram::default();
        let mut slice_end = start + SLICE;
        loop {
            while self.in_flight.len() < self.workload.outstanding() {
                self.submit(traced.then_some(&mut phase.spans));
            }
            if let Some((len, latency)) = self.complete(traced.then_some(&mut phase.spans)) {
                phase.requests += 1;
                phase.bytes += len as u64;
                phase.latency.record(latency.as_nanos() as u64);
                slice.record(latency.as_nanos() as u64);
            }
            let now = Instant::now();
            if now >= slice_end {
                phase.end_slice(&mut slice);
                slice_end += SLICE;
            }
            if now >= end {
                break;
            }
        }
        phase.end_slice(&mut slice);
        phase.elapsed_s = start.elapsed().as_secs_f64();
        let after = self.service.stats();
        let validation = after.validation.delta_since(&before.validation);
        phase.bytes_tapped = validation.bytes_tapped;
        phase.windows_validated = validation.windows_validated;
        phase.windows_failed = validation.windows_failed;
        phase.served_bytes = after.completed_bytes - before.completed_bytes;
        phase
    }

    /// Completes everything still outstanding (checked, not timed).
    fn drain(&mut self) {
        while !self.in_flight.is_empty() {
            self.complete(None);
        }
    }
}

/// Runs one workload: timed set-ups, warm-up, the timed phase and the
/// output checks. A traced run alternates untraced and traced slices and
/// times the layers between slice pairs.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut characterize_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        if let Some((setup, characterize)) = time_setup(workload, seed) {
            setup_s.push(setup);
            characterize_s.push(characterize);
        }
    }
    let probe_failures = (SETUPS - setup_s.len()) as u64;
    let Built {
        model,
        characterization,
        service,
        first,
        ..
    } = build(workload, seed);

    let mut client = Client::new(workload, &service);
    client.attempted = SETUPS as u64;
    client.failed = probe_failures;
    client.adopt(first);
    client.run(WARMUP, false);
    let total = Duration::from_secs(seconds);
    let (phases, timings) = if traced {
        let pairs = (total.as_secs_f64() / (2.0 * SLICE.as_secs_f64())).ceil() as usize;
        let mut untraced = Phase::default();
        let mut traced = Phase::default();
        let timings =
            crate::layers::time_layers(workload, seed, &model, &characterization, |round| {
                for _ in 0..pairs {
                    untraced.absorb(client.run(SLICE, false));
                    traced.absorb(client.run(SLICE, true));
                    // The layers are timed on an idle service.
                    client.drain();
                    round();
                }
            });
        (vec![untraced, traced], Some(timings))
    } else {
        (vec![client.run(total, false)], None)
    };
    client.drain();
    let peak_rss_mib = crate::peak_rss_mib();
    let Client {
        mut attempted,
        mut failed,
        mixed_fallbacks,
        captured,
        ..
    } = client;
    let stats = service.shutdown();

    let mut checks = vec![Check {
        name: "ledger claimed <= drawn",
        ok: ledger_holds(&stats),
    }];
    if workload == Workload::Bulk {
        let mut twin = QuacTrng::shards(&model, &characterization, seed, 1)
            .pop()
            .expect("one twin shard");
        let expected = twin.generate_bytes(TWIN_CHECK_BYTES);
        checks.push(Check {
            name: "bulk stream equals twin",
            ok: captured == expected,
        });
        let bits = BitVec::from_bytes(&captured, captured.len() * 8);
        let passes = captured.len() == TWIN_CHECK_BYTES
            && run_all_tests(&bits)
                .iter()
                .all(|r| r.passes(BULK_BATTERY_ALPHA));
        checks.push(Check {
            name: "bulk stream passes NIST battery",
            ok: passes,
        });
    }
    attempted += checks.len() as u64;
    failed += checks.iter().filter(|c| !c.ok).count() as u64;
    Outcome {
        attempted,
        failed,
        checks,
        setup_s,
        characterize_s,
        phases,
        timings,
        quarantines: stats.validation.quarantines,
        mixed_fallbacks,
        characterization,
        peak_rss_mib,
    }
}
