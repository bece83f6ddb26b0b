//! What the JSON-comparing integration tests share: `mod support;`.

use holo_runtime::ser::{self, JsonValue};

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
