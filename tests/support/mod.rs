//! What the JSON-comparing integration tests share: `mod support;`.

use holo_runtime::ser::{self, JsonValue};

/// A metric snapshot with every histogram flagged `nondeterministic:
/// true` dropped, for byte comparison across runs. What
/// `holo_trace::WallTimer` records carries that flag, so wall-clock
/// families are excluded by it, never by a name list: a new wall-clock
/// metric is excluded the day it is added. Everything else — key order,
/// counters, gauges, deterministic histograms — passes through.
#[allow(dead_code)] // committed_reports.rs shares this module and strips no snapshot.
pub fn strip_nondeterministic(snapshot: &JsonValue) -> JsonValue {
    let JsonValue::Obj(sections) = snapshot else {
        return snapshot.clone();
    };
    let flagged = |h: &JsonValue| matches!(h.get("nondeterministic"), Some(JsonValue::Bool(true)));
    let strip = |(name, section): &(String, JsonValue)| match (name.as_str(), section) {
        ("histograms", JsonValue::Obj(hs)) => {
            let kept = hs.iter().filter(|(_, h)| !flagged(h)).cloned().collect();
            (name.clone(), JsonValue::Obj(kept))
        }
        _ => (name.clone(), section.clone()),
    };
    JsonValue::Obj(sections.iter().map(strip).collect())
}

/// Why the document `new` is not `old`, if it is not: the first JSON
/// path that differs, as `path: old -> new`, or why none can be named.
pub fn difference(old: &str, new: &str) -> Option<String> {
    if old == new {
        return None;
    }
    Some(match (ser::parse(old), ser::parse(new)) {
        (Ok(o), Ok(n)) => first_difference("", &o, &n).unwrap_or_else(|| {
            "same JSON values, different bytes (layout or trailing newline)".into()
        }),
        (o, n) => format!("does not parse: old {:?}, new {:?}", o.err(), n.err()),
    })
}

/// The first path at which `new` differs from `old`, as `path: old -> new`.
fn first_difference(path: &str, old: &JsonValue, new: &JsonValue) -> Option<String> {
    let show = |v: Option<&JsonValue>| v.map_or("(absent)".to_string(), JsonValue::render);
    match (old, new) {
        (JsonValue::Obj(a), JsonValue::Obj(b)) => {
            let keys = a.iter().chain(b).map(|(k, _)| k);
            keys.map(|k| {
                let at = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                match (old.get(k), new.get(k)) {
                    (Some(o), Some(n)) => first_difference(&at, o, n),
                    (o, n) => Some(format!("{at}: {} -> {}", show(o), show(n))),
                }
            })
            .find_map(|d| d)
        }
        (JsonValue::Arr(a), JsonValue::Arr(b)) => (0..a.len().max(b.len())).find_map(|i| {
            let at = format!("{path}[{i}]");
            match (a.get(i), b.get(i)) {
                (Some(o), Some(n)) => first_difference(&at, o, n),
                (o, n) => Some(format!("{at}: {} -> {}", show(o), show(n))),
            }
        }),
        _ => (old != new).then(|| format!("{path}: {} -> {}", old.render(), new.render())),
    }
}
