//! `sim_fabric`: the simulators with the pipelines idle.
//!
//! One pass runs a fixed suite — the class-blind stream harness, the
//! UEP stream harness, 16-party rooms and a 64-room fleet — so the
//! event heaps, `holo-net` links and transports, FEC/retransmit and the
//! SFU fan-out do all the work. Rooms and fleets encode through
//! [`SynthPipeline`], which costs nothing.

use crate::metrics::Readings;
use crate::stats::{best_round, floors, median, round_spread_pct, Fnv};
use crate::trace::Tracer;
use crate::{Outcome, Workload};
use holo_chaos::{
    run_stream_scenario, run_uep_stream_scenario, FaultPlan, Mechanisms, StreamConfig,
    StreamOutcome, UepOutcome,
};
use holo_conf::{ParticipantConfig, Room, RoomConfig, RoomReport};
use holo_fleet::{run_fleet, FleetConfig, FleetTopology, RoomSpec};
use holo_math::Pcg32;
use holo_mesh::pointcloud::PointCloud;
use holo_net::wire::PayloadKind;
use holo_runtime::bytes::Bytes;
use holo_runtime::ser::ToJson;
use holo_uep::UepPolicy;
use semholo::error::Result as HoloResult;
use semholo::{
    Content, EncodedFrame, QualityReport, Reconstructed, SceneFrame, SceneSource, SemHoloConfig,
    SemanticKind, SemanticPipeline, StageCost,
};
use std::time::{Duration, Instant};

/// A pipeline that does no work: the same seeded payload every frame
/// at a constant stage cost, so a room's real time is all simulator.
pub struct SynthPipeline {
    payload: Bytes,
}

impl SynthPipeline {
    /// Payload bytes per frame (a keypoint-class frame).
    pub const PAYLOAD_BYTES: usize = 2_000;
    const EXTRACT: Duration = Duration::from_millis(4);
    const RECON: Duration = Duration::from_millis(6);

    /// The pipeline whose payload bytes are drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Pcg32::with_stream(seed, 0x5E17);
        Self {
            payload: (0..Self::PAYLOAD_BYTES)
                .map(|_| rng.next_u32() as u8)
                .collect(),
        }
    }
}

impl SemanticPipeline for SynthPipeline {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Keypoint
    }

    fn encode(&mut self, _frame: &SceneFrame) -> HoloResult<EncodedFrame> {
        Ok(EncodedFrame {
            payload: self.payload.clone(),
            extract: StageCost {
                cpu_wall: Self::EXTRACT,
                gpu: None,
            },
        })
    }

    fn decode(&mut self, _payload: &[u8]) -> HoloResult<Reconstructed> {
        Ok(Reconstructed {
            content: Content::Cloud(PointCloud::new()),
            recon: StageCost {
                cpu_wall: Self::RECON,
                gpu: None,
            },
        })
    }

    fn quality(&mut self, _frame: &SceneFrame, _content: &Content) -> QualityReport {
        QualityReport::default()
    }
}

/// How much each part of the suite simulates.
#[derive(Debug, Clone, Copy)]
pub struct SimSizes {
    /// Frames per class-blind stream cell (4 cells).
    pub stream_frames: usize,
    /// Frames per UEP stream cell (4 cells).
    pub uep_frames: usize,
    /// Frames per sender in each 16-party room.
    pub room_frames: usize,
    /// Rooms run, each on its own seed.
    pub rooms: usize,
    /// Frames per sender in the 64-room fleet.
    pub fleet_frames: usize,
    /// Rooms of 4 in the fleet.
    pub fleet_rooms: usize,
}

impl SimSizes {
    /// Sizes chosen so each of the four parts takes 15-35 % of a pass.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                stream_frames: 2_000,
                uep_frames: 2_000,
                room_frames: 60,
                rooms: 1,
                fleet_frames: 30,
                fleet_rooms: 8,
            }
        } else {
            Self {
                stream_frames: 100_000,
                uep_frames: 100_000,
                room_frames: 1_500,
                rooms: 4,
                fleet_frames: 900,
                fleet_rooms: 64,
            }
        }
    }

    /// The warm-up suite run during set-up.
    fn warm(self) -> Self {
        Self {
            stream_frames: self.stream_frames / 20,
            uep_frames: self.uep_frames / 20,
            room_frames: (self.room_frames / 20).max(2),
            rooms: 1,
            fleet_frames: (self.fleet_frames / 20).max(2),
            fleet_rooms: self.fleet_rooms,
        }
    }

    fn scene_frames(self) -> usize {
        self.room_frames.max(self.fleet_frames)
    }
}

/// What one run of the suite produced.
struct Suite {
    streams: Vec<StreamOutcome>,
    ueps: Vec<UepOutcome>,
    rooms: Vec<RoomReport>,
    fleet_rooms: Vec<RoomReport>,
    fleet_render: String,
}

fn scene(seed: u64, frames: usize) -> SceneSource {
    let config = SemHoloConfig {
        seed,
        ..Default::default()
    };
    SceneSource::new(&config, (frames + 1) as f32 / config.fps)
}

/// One simulator call: a span when the tracer is on, and always one
/// wall-clock sample.
fn cell<R>(
    tr: &mut Tracer,
    cells: &mut Vec<u64>,
    name: &'static str,
    pass: u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = tr.call(name, pass, f);
    cells.push(start.elapsed().as_nanos() as u64);
    out
}

/// Run the suite once, timing every simulator call into `cells`.
fn run_suite(
    tr: &mut Tracer,
    cells: &mut Vec<u64>,
    pass: u64,
    seed: u64,
    sizes: SimSizes,
    scene: &SceneSource,
) -> Result<Suite, String> {
    let plans = [FaultPlan::clean(seed), FaultPlan::burst5(seed)];
    let mut streams = Vec::new();
    let mut ueps = Vec::new();
    for plan in &plans {
        for mechanisms in [Mechanisms::baseline(), Mechanisms::full()] {
            let cfg = StreamConfig {
                frames: sizes.stream_frames,
                ..Default::default()
            };
            streams.push(cell(tr, cells, "holo-chaos.stream", pass, || {
                run_stream_scenario(plan, &mechanisms, &cfg)
            }));
        }
    }
    for plan in &plans {
        for policy in [UepPolicy::uniform(), UepPolicy::weighted()] {
            let cfg = StreamConfig {
                frames: sizes.uep_frames,
                ..Default::default()
            };
            ueps.push(cell(tr, cells, "holo-chaos.uep", pass, || {
                run_uep_stream_scenario(plan, &policy, &cfg, PayloadKind::Mesh)
            }));
        }
    }
    let mut rooms = Vec::new();
    for k in 0..sizes.rooms as u64 {
        let config = RoomConfig {
            participants: ParticipantConfig::uniform_room(16, 100e6),
            frames: sizes.room_frames,
            share_encoder: true,
            seed: seed.wrapping_add(k),
            ..Default::default()
        };
        let mut pipelines: Vec<Box<dyn SemanticPipeline>> =
            vec![Box::new(SynthPipeline::new(seed))];
        let report = cell(tr, cells, "holo-conf.room", pass, || {
            Room::new(config).and_then(|mut room| room.run(scene, &mut pipelines))
        })
        .map_err(|e| format!("room: {e}"))?;
        rooms.push(report);
    }
    let fleet = FleetConfig {
        topology: FleetTopology::uniform(2, 4, 120e6, 400e6, 1.0, 20.0),
        rooms: (0..sizes.fleet_rooms)
            .map(|i| RoomSpec::uniform(4, i % 2, 100e6))
            .collect(),
        frames: sizes.fleet_frames,
        seed,
        ..Default::default()
    };
    let make = |room: usize| -> Box<dyn SemanticPipeline> {
        Box::new(SynthPipeline::new(seed ^ room as u64))
    };
    let run = cell(tr, cells, "holo-fleet.fleet", pass, || {
        run_fleet(&fleet, scene, &make)
    })
    .map_err(|e| format!("fleet: {e}"))?;
    Ok(Suite {
        streams,
        ueps,
        rooms,
        fleet_rooms: run.rooms,
        fleet_render: run.report.render(),
    })
}

fn room_totals(rooms: &[RoomReport]) -> (u64, u64) {
    rooms
        .iter()
        .flat_map(|r| &r.subscribers)
        .fold((0, 0), |(e, u), s| {
            (e + s.expected as u64, u + s.usable as u64)
        })
}

impl Suite {
    /// FNV-1a over every outcome's canonical JSON.
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.streams {
            h.update(s.to_json().render().as_bytes());
        }
        for u in &self.ueps {
            h.update(u.to_json().render().as_bytes());
        }
        for r in &self.rooms {
            h.update(r.render().as_bytes());
        }
        h.update(self.fleet_render.as_bytes());
        h.0
    }

    /// The laws every cell must obey; the violations, if any.
    fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.streams {
            if !(s.usable <= s.delivered && s.delivered <= s.frames) {
                out.push(format!(
                    "stream {}/{}: usable {} delivered {} frames {}",
                    s.plan, s.mechanism, s.usable, s.delivered, s.frames
                ));
            }
        }
        for u in &self.ueps {
            if u.delivered + u.abandoned + u.lost != u.frames {
                out.push(format!(
                    "uep {}/{}: {} + {} + {} != {}",
                    u.plan, u.policy, u.delivered, u.abandoned, u.lost, u.frames
                ));
            }
        }
        // Uniform and weighted spend the same redundancy budget.
        for pair in self.ueps.chunks(2) {
            if let [a, b] = pair {
                if a.parity_frames != b.parity_frames || a.retries_scheduled != b.retries_scheduled
                {
                    out.push(format!(
                        "uep {}: budget twins differ ({}, {}) vs ({}, {})",
                        a.plan,
                        a.parity_frames,
                        a.retries_scheduled,
                        b.parity_frames,
                        b.retries_scheduled
                    ));
                }
            }
        }
        for r in self.rooms.iter().chain(&self.fleet_rooms) {
            if r.subscribers
                .iter()
                .any(|s| !(s.usable <= s.delivered && s.delivered <= s.expected))
            {
                out.push(format!(
                    "room seed {}: usable <= delivered <= expected violated",
                    r.seed
                ));
            }
        }
        out
    }

    fn stream_frames(&self) -> u64 {
        self.streams.iter().map(|s| s.frames as u64).sum()
    }

    fn uep_frames(&self) -> u64 {
        self.ueps.iter().map(|u| u.frames as u64).sum()
    }

    /// Frames offered: stream and UEP frames plus the subscriber
    /// deliveries rooms and fleet were due.
    fn offered(&self) -> u64 {
        self.stream_frames()
            + self.uep_frames()
            + room_totals(&self.rooms).0
            + room_totals(&self.fleet_rooms).0
    }

    fn usable(&self) -> u64 {
        self.streams.iter().map(|s| s.usable as u64).sum::<u64>()
            + self.ueps.iter().map(|u| u.usable as u64).sum::<u64>()
            + room_totals(&self.rooms).1
            + room_totals(&self.fleet_rooms).1
    }

    fn chaos_wire_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.wire_bytes).sum::<u64>()
            + self.ueps.iter().map(|u| u.wire_bytes).sum::<u64>()
    }
}

/// One timed pass.
struct Pass {
    setup_ns: u64,
    /// Wall-clock of each simulator call, in suite order.
    cell_ns: Vec<u64>,
    digest: u64,
    tracer: Tracer,
}

/// The simulator workload.
pub struct SimWorkload {
    seed: u64,
    sizes: SimSizes,
    passes: Vec<Pass>,
    traced: Vec<Pass>,
    /// The first pass's outcomes; later passes must digest the same.
    first: Option<Suite>,
    errors: Vec<String>,
}

impl SimWorkload {
    /// A workload ready to run passes.
    pub fn new(seed: u64, smoke: bool) -> Self {
        Self {
            seed,
            sizes: SimSizes::new(smoke),
            passes: Vec::new(),
            traced: Vec::new(),
            first: None,
            errors: Vec::new(),
        }
    }

    fn run_pass(&mut self, with_spans: bool) -> Result<(), String> {
        let index = (self.passes.len() + self.traced.len()) as u64;
        let setup = Instant::now();
        let scene = scene(self.seed, self.sizes.scene_frames());
        run_suite(
            &mut Tracer::new(false),
            &mut Vec::new(),
            index,
            self.seed,
            self.sizes.warm(),
            &scene,
        )?;
        let setup_ns = setup.elapsed().as_nanos() as u64;
        let mut tracer = Tracer::new(with_spans);
        let mut cell_ns = Vec::new();
        let span = tracer.enter("pass", index);
        let suite = run_suite(
            &mut tracer,
            &mut cell_ns,
            index,
            self.seed,
            self.sizes,
            &scene,
        )?;
        tracer.exit(span);
        let pass = Pass {
            setup_ns,
            cell_ns,
            digest: suite.digest(),
            tracer,
        };
        if self.first.is_none() {
            self.errors.extend(suite.violations());
            self.first = Some(suite);
        }
        if with_spans {
            self.traced.push(pass);
        } else {
            self.passes.push(pass);
        }
        Ok(())
    }
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        "sim_fabric"
    }

    fn round(&mut self, with_spans: bool) {
        if let Err(e) = self.run_pass(with_spans) {
            self.errors.push(e);
        }
    }

    fn finish(&mut self, traced_run: bool) -> Outcome {
        let mut readings = Readings::default();
        let mut notes = Vec::new();
        let mut errors = std::mem::take(&mut self.errors);
        let mut trace = None;
        let (Some(suite), false) = (&self.first, self.passes.is_empty()) else {
            errors.push("no pass completed".into());
            return Outcome {
                name: "sim_fabric",
                correct: false,
                attempted: 1,
                failed: 1,
                readings,
                notes,
                errors,
                trace,
            };
        };
        let digests: Vec<u64> = self
            .passes
            .iter()
            .chain(&self.traced)
            .map(|p| p.digest)
            .collect();
        if digests.iter().any(|d| *d != digests[0]) {
            errors.push(format!(
                "outcome digests differ across passes: {digests:x?}"
            ));
        }
        notes.push(format!(
            "outcome digest {:016x}, {} passes agree",
            digests[0],
            digests.len()
        ));

        // The operation is a simulator cell; a simulated frame that is
        // not usable is a loss the fault plans intend, not a failure.
        let cells = suite.streams.len() + suite.ueps.len() + suite.rooms.len() + 1;
        let attempted = (cells * digests.len()) as u64;
        let failed = errors.len() as u64;

        // A pass costs the sum of its cells' floors.
        let floor = floors(self.passes.iter().map(|p| &p.cell_ns[..]), cells);
        let best_s = floor.iter().sum::<u64>() as f64 * 1e-9;
        let walls: Vec<u64> = self.passes.iter().map(|p| p.cell_ns.iter().sum()).collect();
        notes.push(format!(
            "pass walls, s: {:.3?}",
            walls.iter().map(|w| *w as f64 * 1e-9).collect::<Vec<_>>()
        ));
        let offered = suite.offered() as f64;
        let setups: Vec<u64> = self.passes.iter().map(|p| p.setup_ns).collect();
        readings.set("frame_ms_p50", best_s * 1e3 / (offered / 1e3), walls.len());
        readings.set("frames_per_s", offered / best_s, walls.len());
        readings.set(
            "wire_bytes_per_frame",
            suite.chaos_wire_bytes() as f64 / (suite.stream_frames() + suite.uep_frames()) as f64,
            0,
        );
        readings.set(
            "usable_permille",
            suite.usable() as f64 * 1000.0 / offered,
            0,
        );
        readings.set("setup_s", median(&setups) as f64 * 1e-9, setups.len());
        notes.push(format!(
            "{} passes; per pass {} stream + {} uep frames, {} room + {} fleet deliveries offered",
            walls.len(),
            suite.stream_frames(),
            suite.uep_frames(),
            room_totals(&suite.rooms).0,
            room_totals(&suite.fleet_rooms).0
        ));

        if traced_run && !self.traced.is_empty() {
            // Under the pass span every child is one simulator call,
            // in suite order: streams, UEP cells, rooms, the fleet.
            let spans: Vec<Vec<u64>> = self
                .traced
                .iter()
                .map(|p| p.tracer.spans.iter().skip(1).map(|s| s.dur_ns()).collect())
                .collect();
            let traced_floor = floors(spans.iter().map(Vec::as_slice), cells);
            let (stream_cells, uep_cells) =
                (suite.streams.len(), suite.streams.len() + suite.ueps.len());
            let part = |range: std::ops::Range<usize>| {
                traced_floor[range].iter().sum::<u64>() as f64 * 1e-9
            };
            let (stream_s, uep_s, room_s, fleet_s) = (
                part(0..stream_cells),
                part(stream_cells..uep_cells),
                part(uep_cells..cells - 1),
                part(cells - 1..cells),
            );
            let pass_s = part(0..cells);
            let (room_expected, room_usable) = room_totals(&suite.rooms);
            readings.set(
                "holo-chaos.stream_frames_per_s",
                suite.stream_frames() as f64 / stream_s,
                stream_cells,
            );
            readings.set(
                "holo-chaos.uep_frames_per_s",
                suite.uep_frames() as f64 / uep_s,
                suite.ueps.len(),
            );
            readings.set(
                "holo-conf.room_deliveries_per_s",
                room_expected as f64 / room_s,
                suite.rooms.len(),
            );
            readings.set(
                "holo-fleet.fleet_deliveries_per_s",
                room_totals(&suite.fleet_rooms).0 as f64 / fleet_s,
                1,
            );
            readings.set("holo-chaos.stream_share_pct", stream_s / pass_s * 100.0, 0);
            readings.set("holo-chaos.uep_share_pct", uep_s / pass_s * 100.0, 0);
            readings.set("holo-conf.room_share_pct", room_s / pass_s * 100.0, 0);
            readings.set("holo-fleet.fleet_share_pct", fleet_s / pass_s * 100.0, 0);
            readings.set(
                "holo-chaos.retries_sent",
                suite.ueps.iter().map(|u| u.retries_sent).sum::<u64>() as f64,
                0,
            );
            readings.set(
                "holo-chaos.parity_frames",
                suite
                    .ueps
                    .iter()
                    .map(|u| u.parity_frames as u64)
                    .sum::<u64>() as f64,
                0,
            );
            readings.set("holo-chaos.wire_bytes", suite.chaos_wire_bytes() as f64, 0);
            readings.set(
                "holo-conf.room_usable_permille",
                room_usable as f64 * 1000.0 / room_expected as f64,
                0,
            );
            let traced_walls: Vec<u64> = self
                .traced
                .iter()
                .map(|p| p.tracer.spans[0].dur_ns())
                .collect();
            let quietest = &self.traced[best_round(&traced_walls)].tracer;
            match quietest.self_times() {
                Ok(own) => readings.set("core.self_ms", own[0] as f64 * 1e-6, 1),
                Err(e) => errors.push(format!("spans do not tile: {e}")),
            }
            readings.set(
                "bench.round_spread_pct",
                round_spread_pct(&walls),
                walls.len(),
            );
            readings.set(
                "bench.trace_overhead_pct",
                (pass_s / best_s - 1.0) * 100.0,
                traced_walls.len(),
            );
            readings.set("bench.rounds", walls.len() as f64, 0);
            readings.set("bench.samples_per_round", cells as f64, 0);
            trace = Some(quietest.chrome_trace());
        }
        Outcome {
            name: "sim_fabric",
            correct: errors.is_empty(),
            attempted,
            failed,
            readings,
            notes,
            errors,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fnv1a64;

    #[test]
    fn synth_pipeline_is_deterministic_and_idle() {
        let scene = scene(1, 2);
        let (mut a, mut b, mut c) = (
            SynthPipeline::new(9),
            SynthPipeline::new(9),
            SynthPipeline::new(10),
        );
        let first = a.encode(&scene.frame(0)).unwrap();
        let again = a.encode(&scene.frame(1)).unwrap();
        let twin = b.encode(&scene.frame(0)).unwrap();
        assert_eq!(first.payload.len(), SynthPipeline::PAYLOAD_BYTES);
        assert_eq!(first.payload, again.payload);
        assert_eq!(first.payload, twin.payload);
        assert_ne!(
            fnv1a64(&first.payload),
            fnv1a64(&c.encode(&scene.frame(0)).unwrap().payload)
        );
        assert_eq!(first.extract.cpu_wall, again.extract.cpu_wall);
        assert!(first.extract.gpu.is_none());
        let decoded = a.decode(&first.payload).unwrap();
        assert_eq!(decoded.recon.cpu_wall, SynthPipeline::RECON);
        assert!(matches!(decoded.content, Content::Cloud(ref c) if c.points.is_empty()));
    }

    #[test]
    fn smoke_suite_obeys_its_laws_and_repeats() {
        holo_runtime::par::set_thread_override(Some(1));
        let sizes = SimSizes::new(true);
        let scene = scene(3, sizes.scene_frames());
        let a = run_suite(
            &mut Tracer::new(false),
            &mut Vec::new(),
            0,
            3,
            sizes,
            &scene,
        )
        .unwrap();
        let mut cells = Vec::new();
        let b = run_suite(&mut Tracer::new(true), &mut cells, 1, 3, sizes, &scene).unwrap();
        assert_eq!(cells.len(), 4 + 4 + sizes.rooms + 1);
        assert_eq!(a.violations(), Vec::<String>::new());
        assert_eq!(a.digest(), b.digest());
        assert!(a.usable() <= a.offered());
        assert_eq!(a.stream_frames(), 4 * 2_000);
    }
}
