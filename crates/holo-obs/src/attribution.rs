//! Critical-path latency attribution: exact additive stage budgets.
//!
//! A delivered frame's end-to-end latency is decomposed into an ordered
//! chain of [`Segment`]s — extract / encode / uplink / SFU-forward /
//! cascade-hop / downlink / decode / render — whose integer-microsecond
//! durations **tile the end-to-end window exactly**: consecutive
//! segments share a boundary timestamp, so the stage budgets sum to the
//! measured end-to-end latency with no float residue. The chains are
//! reassembled from the spans `holo-trace` already records:
//!
//! - **Session** vocabulary: a `frame` parent span whose children
//!   `extract → encode → transmit → decode → render` chain from capture
//!   to photon on one lane (`transmit` maps to [`Stage::Uplink`] — a
//!   1:1 session has no SFU leg).
//! - **Room** vocabulary: `room.extract → room.uplink` on the sender's
//!   lane, then `room.forward → room.decode → room.render` on each
//!   subscriber's lane, joined by the path id the room stamps into the
//!   span `frame` field (room tag | sender << 32 | frame index).
//!
//! Fleet runs reuse the room vocabulary with per-room lane bases and
//! path-id tags (no collisions across rooms), plus
//! [`AttributionOptions`] cascade splits: the inter-SFU hop latency the
//! fleet folded into a remote participant's access propagation is
//! carved out of the enclosing segment's tail as [`Stage::CascadeHop`],
//! keeping the tiling exact while making the cascade cost visible.
//!
//! Aggregation is bounded-memory: paths fold into [`LatencySketch`]es
//! and per-stage totals (per run, per lane, per node, and per e2e
//! bucket — which is what prices a percentile), never a per-frame list.

use holo_runtime::ser::{JsonValue, ToJson};
use holo_trace::{LatencySketch, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The canonical stage vocabulary, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Capture + semantic extraction on the sender device.
    Extract,
    /// Payload serialization tail (sessions model it at 1 GB/s).
    Encode,
    /// Sender access link: transmission + propagation (+ retransmits).
    Uplink,
    /// SFU ingress-to-delivery: queueing, thinning, egress downlink.
    SfuForward,
    /// Inter-SFU cascade hop (fleet runs with remote participants).
    CascadeHop,
    /// Subscriber access downlink, where instrumented separately.
    Downlink,
    /// Reconstruction on the receiver device.
    Decode,
    /// Fixed render/display overhead.
    Render,
}

/// Number of stages in [`Stage::ALL`].
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// All stages, pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Extract,
        Stage::Encode,
        Stage::Uplink,
        Stage::SfuForward,
        Stage::CascadeHop,
        Stage::Downlink,
        Stage::Decode,
        Stage::Render,
    ];

    /// Canonical short name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Extract => "extract",
            Stage::Encode => "encode",
            Stage::Uplink => "uplink",
            Stage::SfuForward => "sfu_forward",
            Stage::CascadeHop => "cascade_hop",
            Stage::Downlink => "downlink",
            Stage::Decode => "decode",
            Stage::Render => "render",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("stage in ALL")
    }
}

/// One stage's slice of a frame path, `[start_us, end_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Which stage.
    pub stage: Stage,
    /// Virtual start, µs.
    pub start_us: u64,
    /// Virtual end, µs (>= start).
    pub end_us: u64,
}

/// A delivered frame's complete capture-to-photon chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramePath {
    /// Receiving lane (subscriber in rooms, 0 in sessions).
    pub lane: u32,
    /// Path id (the span `frame` value: room tag | sender | index).
    pub frame: u64,
    /// Contiguous segments, pipeline order.
    pub segments: Vec<Segment>,
}

impl FramePath {
    /// End-to-end latency: last segment end minus first segment start.
    pub fn e2e_us(&self) -> u64 {
        match (self.segments.first(), self.segments.last()) {
            (Some(a), Some(b)) => b.end_us - a.start_us,
            _ => 0,
        }
    }

    /// Total µs attributed to `stage`.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    /// Check the exact-tiling contract: at least one segment, every
    /// segment non-negative, and consecutive segments sharing their
    /// boundary timestamp. When this holds, stage budgets sum to
    /// [`FramePath::e2e_us`] *by construction* — integer µs, no
    /// residue.
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err(format!("path lane={} frame={} has no segments", self.lane, self.frame));
        }
        let mut cursor = self.segments[0].start_us;
        for seg in &self.segments {
            if seg.start_us != cursor {
                return Err(format!(
                    "path lane={} frame={}: {} starts at {} but previous stage ended at {}",
                    self.lane,
                    self.frame,
                    seg.stage.name(),
                    seg.start_us,
                    cursor
                ));
            }
            if seg.end_us < seg.start_us {
                return Err(format!(
                    "path lane={} frame={}: {} ends before it starts",
                    self.lane,
                    self.frame,
                    seg.stage.name()
                ));
            }
            cursor = seg.end_us;
        }
        Ok(())
    }
}

/// Optional lane-keyed adjustments applied while assembling paths.
#[derive(Debug, Clone, Default)]
pub struct AttributionOptions {
    /// Carve this many µs of [`Stage::CascadeHop`] from the tail of the
    /// uplink segment, keyed by **sender** lane (remote participants in
    /// a cascaded fleet).
    pub cascade_up_us: BTreeMap<u32, u64>,
    /// Carve this many µs of [`Stage::CascadeHop`] from the tail of the
    /// SFU-forward segment, keyed by **subscriber** lane.
    pub cascade_down_us: BTreeMap<u32, u64>,
    /// Lane → fleet node id; present only for fleet runs, enables the
    /// per-node aggregation.
    pub node_of_lane: BTreeMap<u32, u32>,
}

/// Split `cut` µs of cascade hop off the tail of `seg`, clamped to the
/// segment length so tiling stays exact.
fn split_cascade(seg: Segment, cut: u64, out: &mut Vec<Segment>) {
    let cut = cut.min(seg.end_us - seg.start_us);
    if cut == 0 {
        out.push(seg);
        return;
    }
    let boundary = seg.end_us - cut;
    out.push(Segment { stage: seg.stage, start_us: seg.start_us, end_us: boundary });
    out.push(Segment { stage: Stage::CascadeHop, start_us: boundary, end_us: seg.end_us });
}

/// Paths reassembled from a span stream.
#[derive(Debug, Default)]
pub struct PathSet {
    /// Complete capture-to-photon chains (validated tilings).
    pub complete: Vec<FramePath>,
    /// Chains that began but never reached `render` — lost, corrupted,
    /// unusable (dependency-broken), or churned-away frames.
    pub incomplete: u64,
}

/// Session-child index: `(lane, name, start_us)` → queue of
/// `(end_us, span index)` in record order.
type StartIndex<'a> = BTreeMap<(u32, &'a str, u64), Vec<(u64, usize)>>;

/// Reassemble frame paths from recorded spans (both vocabularies).
pub fn collect_paths(spans: &[SpanEvent], opts: &AttributionOptions) -> PathSet {
    // Session children carry no frame id: key them by (lane, name,
    // start) and chain-walk from each `frame` parent. Multiple spans on
    // one key pop in record order.
    let mut by_start: StartIndex = BTreeMap::new();
    // Room stages carry the path id: sender-side spans are unique per
    // id; subscriber-side spans key by (lane, id).
    let mut by_pid: BTreeMap<(&str, u64), (u32, u64, u64)> = BTreeMap::new();
    let mut by_lane_pid: BTreeMap<(&str, u32, u64), (u64, u64)> = BTreeMap::new();
    let mut session_parents: Vec<&SpanEvent> = Vec::new();
    let mut room_forwards: Vec<&SpanEvent> = Vec::new();
    let mut room_uplinks = 0u64;
    let mut room_forward_total = 0u64;

    for (i, s) in spans.iter().enumerate() {
        match s.name {
            "frame" => session_parents.push(s),
            "extract" | "encode" | "transmit" | "decode" | "render" => {
                by_start.entry((s.lane, s.name, s.start_us)).or_default().push((s.end_us, i));
            }
            "room.extract" | "room.uplink" => {
                if s.name == "room.uplink" {
                    room_uplinks += 1;
                }
                if let Some(pid) = s.frame {
                    by_pid.insert((s.name, pid), (s.lane, s.start_us, s.end_us));
                }
            }
            "room.forward" => {
                room_forward_total += 1;
                room_forwards.push(s);
            }
            "room.decode" | "room.render" => {
                if let Some(pid) = s.frame {
                    by_lane_pid.insert((s.name, s.lane, pid), (s.start_us, s.end_us));
                }
            }
            _ => {}
        }
    }
    // Keys pop FIFO: reverse once so `pop()` yields record order.
    for v in by_start.values_mut() {
        v.reverse();
    }

    let mut out = PathSet::default();

    // --- Session chains. ---
    const SESSION_CHAIN: [(&str, Stage); 5] = [
        ("extract", Stage::Extract),
        ("encode", Stage::Encode),
        ("transmit", Stage::Uplink),
        ("decode", Stage::Decode),
        ("render", Stage::Render),
    ];
    for parent in session_parents {
        let mut cursor = parent.start_us;
        let mut segments = Vec::with_capacity(SESSION_CHAIN.len());
        let mut broken = false;
        for (name, stage) in SESSION_CHAIN {
            let Some((end_us, _)) =
                by_start.get_mut(&(parent.lane, name, cursor)).and_then(|v| v.pop())
            else {
                broken = true;
                break;
            };
            segments.push(Segment { stage, start_us: cursor, end_us });
            cursor = end_us;
        }
        if broken || cursor != parent.end_us {
            out.incomplete += 1;
            continue;
        }
        out.complete.push(FramePath {
            lane: parent.lane,
            frame: parent.frame.unwrap_or(0),
            segments,
        });
    }

    // --- Room chains: one path per delivered (subscriber, sender,
    // frame) copy, joined on the stamped path id. ---
    let mut delivered_pids: BTreeMap<u64, u64> = BTreeMap::new();
    for fwd in room_forwards {
        let Some(pid) = fwd.frame else {
            out.incomplete += 1;
            continue;
        };
        *delivered_pids.entry(pid).or_default() += 1;
        let (Some(&(_, ex_s, ex_e)), Some(&(up_lane, up_s, up_e))) =
            (by_pid.get(&("room.extract", pid)), by_pid.get(&("room.uplink", pid)))
        else {
            out.incomplete += 1;
            continue;
        };
        let (Some(&(de_s, de_e)), Some(&(re_s, re_e))) = (
            by_lane_pid.get(&("room.decode", fwd.lane, pid)),
            by_lane_pid.get(&("room.render", fwd.lane, pid)),
        ) else {
            out.incomplete += 1;
            continue;
        };
        // The sender's lane tags the uplink span; the forward span
        // carries the subscriber's.
        let mut segments = Vec::with_capacity(7);
        segments.push(Segment { stage: Stage::Extract, start_us: ex_s, end_us: ex_e });
        let up = Segment { stage: Stage::Uplink, start_us: up_s, end_us: up_e };
        match opts.cascade_up_us.get(&up_lane) {
            Some(&cut) => split_cascade(up, cut, &mut segments),
            None => segments.push(up),
        }
        let f = Segment { stage: Stage::SfuForward, start_us: fwd.start_us, end_us: fwd.end_us };
        match opts.cascade_down_us.get(&fwd.lane) {
            Some(&cut) => split_cascade(f, cut, &mut segments),
            None => segments.push(f),
        }
        segments.push(Segment { stage: Stage::Decode, start_us: de_s, end_us: de_e });
        segments.push(Segment { stage: Stage::Render, start_us: re_s, end_us: re_e });
        out.complete.push(FramePath { lane: fwd.lane, frame: pid, segments });
    }
    // Sender frames that reached the SFU but were delivered to no one
    // (or never reached it at all) began a chain that went nowhere.
    out.incomplete += room_uplinks.saturating_sub(delivered_pids.len() as u64);
    debug_assert!(room_forward_total >= delivered_pids.len() as u64);
    out
}

/// Per-group accumulator (whole run, one lane, or one node).
#[derive(Debug, Clone, Default)]
struct GroupAcc {
    frames: u64,
    stage_us: [u64; STAGE_COUNT],
    e2e: LatencySketch,
}

impl GroupAcc {
    fn record(&mut self, path: &FramePath) {
        self.frames += 1;
        for seg in &path.segments {
            self.stage_us[seg.stage.index()] += seg.end_us - seg.start_us;
        }
        self.e2e.record(path.e2e_us());
    }

    fn absorb(&mut self, other: &GroupAcc) {
        self.frames += other.frames;
        for (a, b) in self.stage_us.iter_mut().zip(other.stage_us.iter()) {
            *a += b;
        }
        self.e2e.absorb(&other.e2e);
    }
}

/// Streaming attribution accumulator: O(buckets) memory per group, no
/// per-frame retention.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Complete paths recorded.
    pub complete: u64,
    /// Broken/undelivered chains observed by the walker.
    pub incomplete: u64,
    /// Spans the recorder dropped at its cap — nonzero means the
    /// attribution below undercounts and the report says so.
    pub spans_dropped: u64,
    run: GroupAcc,
    /// Per e2e-sketch bucket, the summed stage budgets of the paths in
    /// that bucket — what prices "62% of p99 is cascade". Key is the
    /// bucket index; `u64::MAX` keys the overflow bucket.
    bucket_stage_us: BTreeMap<u64, [u64; STAGE_COUNT]>,
    per_lane: BTreeMap<u32, GroupAcc>,
    per_node: BTreeMap<u32, GroupAcc>,
    node_of_lane: BTreeMap<u32, u32>,
}

impl Attribution {
    /// Empty accumulator with a lane→node mapping (empty map = no
    /// per-node aggregation).
    pub fn with_nodes(node_of_lane: BTreeMap<u32, u32>) -> Self {
        Self { node_of_lane, ..Self::default() }
    }

    /// Fold one validated path in.
    pub fn record(&mut self, path: &FramePath) {
        self.complete += 1;
        self.run.record(path);
        let bucket = bucket_key(path.e2e_us());
        let slot = self.bucket_stage_us.entry(bucket).or_default();
        for seg in &path.segments {
            slot[seg.stage.index()] += seg.end_us - seg.start_us;
        }
        self.per_lane.entry(path.lane).or_default().record(path);
        if let Some(&node) = self.node_of_lane.get(&path.lane) {
            self.per_node.entry(node).or_default().record(path);
        }
    }

    /// Exact merge of another accumulator (fleet rooms fold in room
    /// order; all state is integral, so the merge is order-exact).
    pub fn absorb(&mut self, other: &Attribution) {
        self.complete += other.complete;
        self.incomplete += other.incomplete;
        self.spans_dropped += other.spans_dropped;
        self.run.absorb(&other.run);
        for (k, v) in &other.bucket_stage_us {
            let slot = self.bucket_stage_us.entry(*k).or_default();
            for (a, b) in slot.iter_mut().zip(v.iter()) {
                *a += b;
            }
        }
        for (k, v) in &other.per_lane {
            self.per_lane.entry(*k).or_default().absorb(v);
        }
        for (k, v) in &other.per_node {
            self.per_node.entry(*k).or_default().absorb(v);
        }
        for (k, v) in &other.node_of_lane {
            self.node_of_lane.entry(*k).or_insert(*v);
        }
    }

    /// Walk spans, validate every reassembled path, fold them in.
    /// Returns the validation error instead of silently skewing budgets
    /// if a chain ever stops tiling.
    pub fn ingest_spans(
        &mut self,
        spans: &[SpanEvent],
        opts: &AttributionOptions,
    ) -> Result<(), String> {
        let paths = collect_paths(spans, opts);
        for path in &paths.complete {
            path.validate()?;
            self.record(path);
        }
        self.incomplete += paths.incomplete;
        Ok(())
    }

    /// Finish into the canonical report.
    pub fn finish(&self) -> AttributionReport {
        let total_e2e: u128 = self.run.e2e.sum_us;
        let stage_rows = |acc: &GroupAcc| -> Vec<StageBudget> {
            let total: u128 = acc.stage_us.iter().map(|&v| v as u128).sum();
            Stage::ALL
                .iter()
                .map(|&st| {
                    let us = acc.stage_us[st.index()];
                    StageBudget {
                        stage: st,
                        total_us: us,
                        share: if total == 0 { 0.0 } else { us as f64 / total as f64 },
                        mean_us: if acc.frames == 0 {
                            0.0
                        } else {
                            us as f64 / acc.frames as f64
                        },
                    }
                })
                .collect()
        };
        let percentiles = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)]
            .into_iter()
            .map(|(label, q)| {
                let e2e_us = self.run.e2e.quantile_us(q);
                let key = self
                    .run
                    .e2e
                    .quantile_bucket(q)
                    .map(|b| b as u64)
                    .unwrap_or(u64::MAX);
                let stage_us = self.bucket_stage_us.get(&key).copied().unwrap_or_default();
                let total: u128 = stage_us.iter().map(|&v| v as u128).sum();
                let shares = Stage::ALL
                    .iter()
                    .map(|&st| {
                        let us = stage_us[st.index()];
                        (st, if total == 0 { 0.0 } else { us as f64 / total as f64 })
                    })
                    .collect();
                PercentileCut { label, e2e_us, shares }
            })
            .collect();
        AttributionReport {
            frames: self.complete,
            incomplete: self.incomplete,
            spans_dropped: self.spans_dropped,
            e2e: self.run.e2e.clone(),
            total_e2e_us: total_e2e,
            stages: stage_rows(&self.run),
            percentiles,
            per_lane: self
                .per_lane
                .iter()
                .map(|(&lane, acc)| GroupBudget {
                    key: lane,
                    frames: acc.frames,
                    p99_e2e_us: acc.e2e.quantile_us(0.99),
                    stages: stage_rows(acc),
                })
                .collect(),
            per_node: self
                .per_node
                .iter()
                .map(|(&node, acc)| GroupBudget {
                    key: node,
                    frames: acc.frames,
                    p99_e2e_us: acc.e2e.quantile_us(0.99),
                    stages: stage_rows(acc),
                })
                .collect(),
        }
    }
}

/// Sketch bucket key for an e2e value (`u64::MAX` = overflow).
fn bucket_key(e2e_us: u64) -> u64 {
    holo_trace::sketch::bucket_index(e2e_us).map(|b| b as u64).unwrap_or(u64::MAX)
}

/// One stage's aggregate budget.
#[derive(Debug, Clone)]
pub struct StageBudget {
    /// Which stage.
    pub stage: Stage,
    /// Total µs across all frames.
    pub total_us: u64,
    /// Fraction of the summed end-to-end budget.
    pub share: f64,
    /// Mean µs per frame.
    pub mean_us: f64,
}

/// Stage shares of the frames in one e2e percentile's bucket.
#[derive(Debug, Clone)]
pub struct PercentileCut {
    /// "p50" / "p90" / "p99".
    pub label: &'static str,
    /// The percentile's e2e latency, µs.
    pub e2e_us: u64,
    /// Per-stage share of that bucket's summed budget.
    pub shares: Vec<(Stage, f64)>,
}

/// One lane's or node's budget row.
#[derive(Debug, Clone)]
pub struct GroupBudget {
    /// Lane or node id.
    pub key: u32,
    /// Complete frames through this group.
    pub frames: u64,
    /// p99 e2e for this group, µs.
    pub p99_e2e_us: u64,
    /// Per-stage budgets.
    pub stages: Vec<StageBudget>,
}

/// The canonical attribution report.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Complete (delivered + usable) frame paths.
    pub frames: u64,
    /// Chains that never completed.
    pub incomplete: u64,
    /// Recorder drops — nonzero means undercounting.
    pub spans_dropped: u64,
    /// End-to-end latency sketch.
    pub e2e: LatencySketch,
    /// Exact summed e2e µs (equals the summed stage budgets — the
    /// tiling invariant, asserted by [`AttributionReport::tiles_exactly`]).
    pub total_e2e_us: u128,
    /// Whole-run stage budgets.
    pub stages: Vec<StageBudget>,
    /// Stage shares at p50/p90/p99.
    pub percentiles: Vec<PercentileCut>,
    /// Per-lane budgets (subscriber lanes).
    pub per_lane: Vec<GroupBudget>,
    /// Per-node budgets (fleet runs only).
    pub per_node: Vec<GroupBudget>,
}

impl AttributionReport {
    /// The tiling invariant: summed stage budgets equal summed e2e
    /// exactly (integer µs).
    pub fn tiles_exactly(&self) -> bool {
        let staged: u128 = self.stages.iter().map(|s| s.total_us as u128).sum();
        staged == self.total_e2e_us
    }

    /// Stage budget lookup.
    pub fn stage(&self, stage: Stage) -> &StageBudget {
        &self.stages[stage.index()]
    }

    /// Human table: overall budget plus the percentile cuts.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>8} {:>12}",
            "stage", "total ms", "share", "mean ms/frame"
        );
        for s in &self.stages {
            if s.total_us == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<12} {:>12.2} {:>7.1}% {:>12.3}",
                s.stage.name(),
                s.total_us as f64 / 1e3,
                s.share * 100.0,
                s.mean_us / 1e3,
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>12.2} {:>8} {:>12.3}",
            "e2e",
            self.total_e2e_us as f64 / 1e3,
            "100.0%",
            if self.frames == 0 { 0.0 } else { self.total_e2e_us as f64 / self.frames as f64 / 1e3 },
        );
        for cut in &self.percentiles {
            let dominant = cut
                .shares
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("shares are finite"))
                .expect("eight stages");
            let _ = writeln!(
                out,
                "{}: {:.2} ms e2e, dominated by {} ({:.0}% of its bucket)",
                cut.label,
                cut.e2e_us as f64 / 1e3,
                dominant.0.name(),
                dominant.1 * 100.0,
            );
        }
        if self.spans_dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} span(s) dropped at the recorder cap — budgets undercount",
                self.spans_dropped
            );
        }
        out
    }

    /// Canonical JSON.
    pub fn to_json(&self) -> JsonValue {
        let stage_json = |rows: &[StageBudget]| {
            JsonValue::Obj(
                rows.iter()
                    .filter(|s| s.total_us > 0)
                    .map(|s| {
                        (
                            s.stage.name().to_string(),
                            JsonValue::obj([
                                ("total_us", s.total_us.to_json()),
                                ("share", s.share.to_json()),
                                ("mean_us", s.mean_us.to_json()),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let group_json = |rows: &[GroupBudget]| {
            JsonValue::Arr(
                rows.iter()
                    .map(|g| {
                        JsonValue::obj([
                            ("key", g.key.to_json()),
                            ("frames", g.frames.to_json()),
                            ("p99_e2e_us", g.p99_e2e_us.to_json()),
                            ("stages", stage_json(&g.stages)),
                        ])
                    })
                    .collect(),
            )
        };
        JsonValue::obj([
            ("frames", self.frames.to_json()),
            ("incomplete", self.incomplete.to_json()),
            ("spans_dropped", self.spans_dropped.to_json()),
            ("total_e2e_us", (self.total_e2e_us as f64).to_json()),
            ("e2e", self.e2e.to_json()),
            ("stages", stage_json(&self.stages)),
            (
                "percentiles",
                JsonValue::Arr(
                    self.percentiles
                        .iter()
                        .map(|c| {
                            JsonValue::obj([
                                ("label", c.label.to_json()),
                                ("e2e_us", c.e2e_us.to_json()),
                                (
                                    "shares",
                                    JsonValue::Obj(
                                        c.shares
                                            .iter()
                                            .filter(|(_, sh)| *sh > 0.0)
                                            .map(|(st, sh)| (st.name().to_string(), sh.to_json()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("per_lane", group_json(&self.per_lane)),
            ("per_node", group_json(&self.per_node)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        lane: u32,
        frame: Option<u64>,
    ) -> SpanEvent {
        SpanEvent { name, start_us: start, end_us: end, depth: 0, lane, frame }
    }

    /// A delivered session frame: capture 0, render done at 50_000.
    fn session_spans(base: u64, lane: u32, frame: u64) -> Vec<SpanEvent> {
        vec![
            span("frame", base, base + 50_000, lane, Some(frame)),
            span("extract", base, base + 8_000, lane, None),
            span("encode", base + 8_000, base + 9_000, lane, None),
            span("transmit", base + 9_000, base + 30_000, lane, None),
            span("decode", base + 30_000, base + 39_000, lane, None),
            span("render", base + 39_000, base + 50_000, lane, None),
        ]
    }

    #[test]
    fn session_chain_tiles_exactly() {
        let spans = session_spans(0, 0, 0);
        let set = collect_paths(&spans, &AttributionOptions::default());
        assert_eq!(set.complete.len(), 1);
        assert_eq!(set.incomplete, 0);
        let p = &set.complete[0];
        p.validate().unwrap();
        assert_eq!(p.e2e_us(), 50_000);
        let staged: u64 = Stage::ALL.iter().map(|&s| p.stage_us(s)).sum();
        assert_eq!(staged, 50_000);
        assert_eq!(p.stage_us(Stage::Uplink), 21_000);
    }

    #[test]
    fn lost_frame_counts_incomplete() {
        // Lost in transit: frame span ends at send, no decode/render.
        let spans = vec![
            span("frame", 0, 9_000, 0, Some(0)),
            span("extract", 0, 8_000, 0, None),
            span("encode", 8_000, 9_000, 0, None),
            span("transmit", 9_000, 9_000, 0, None),
        ];
        let set = collect_paths(&spans, &AttributionOptions::default());
        assert!(set.complete.is_empty());
        assert_eq!(set.incomplete, 1);
    }

    #[test]
    fn room_chain_joins_on_path_id_and_splits_cascade() {
        let pid = (3u64 << 32) | 7; // sender 3, frame 7
        let spans = vec![
            span("room.extract", 0, 5_000, 3, Some(pid)),
            span("room.uplink", 5_000, 25_000, 3, Some(pid)),
            span("room.forward", 25_000, 45_000, 1, Some(pid)),
            span("room.decode", 45_000, 52_000, 1, Some(pid)),
            span("room.render", 52_000, 63_000, 1, Some(pid)),
        ];
        let mut opts = AttributionOptions::default();
        opts.cascade_up_us.insert(3, 4_000);
        opts.cascade_down_us.insert(1, 6_000);
        let set = collect_paths(&spans, &opts);
        assert_eq!(set.complete.len(), 1);
        let p = &set.complete[0];
        p.validate().unwrap();
        assert_eq!(p.lane, 1);
        assert_eq!(p.e2e_us(), 63_000);
        assert_eq!(p.stage_us(Stage::CascadeHop), 10_000);
        assert_eq!(p.stage_us(Stage::Uplink), 16_000);
        assert_eq!(p.stage_us(Stage::SfuForward), 14_000);
        let staged: u64 = Stage::ALL.iter().map(|&s| p.stage_us(s)).sum();
        assert_eq!(staged, p.e2e_us());
    }

    #[test]
    fn undelivered_room_frame_counts_incomplete() {
        let pid = 1u64 << 32;
        let spans = vec![
            span("room.extract", 0, 5_000, 1, Some(pid)),
            span("room.uplink", 5_000, 5_000, 1, Some(pid)), // lost
        ];
        let set = collect_paths(&spans, &AttributionOptions::default());
        assert!(set.complete.is_empty());
        assert_eq!(set.incomplete, 1);
    }

    #[test]
    fn attribution_absorb_equals_single_pass() {
        let mut all: Vec<SpanEvent> = Vec::new();
        for f in 0..10u64 {
            all.extend(session_spans(f * 33_000, 0, f));
        }
        let mut whole = Attribution::default();
        whole.ingest_spans(&all, &AttributionOptions::default()).unwrap();
        let mut a = Attribution::default();
        let mut b = Attribution::default();
        a.ingest_spans(&all[..30], &AttributionOptions::default()).unwrap();
        b.ingest_spans(&all[30..], &AttributionOptions::default()).unwrap();
        a.absorb(&b);
        assert_eq!(whole.complete, a.complete);
        assert_eq!(
            whole.finish().to_json().render(),
            a.finish().to_json().render(),
            "absorb must be exact"
        );
        assert!(whole.finish().tiles_exactly());
    }

    #[test]
    fn report_renders_table_and_json() {
        let mut acc = Attribution::default();
        acc.ingest_spans(&session_spans(0, 0, 0), &AttributionOptions::default()).unwrap();
        let report = acc.finish();
        assert!(report.tiles_exactly());
        let table = report.table();
        assert!(table.contains("uplink"), "{table}");
        let doc = holo_runtime::ser::parse(&report.to_json().render()).unwrap();
        assert_eq!(doc.get("frames").unwrap().as_f64(), Some(1.0));
    }
}
