//! `ab_scenario diff`: what moved between two sweep reports, by name. The
//! goldens and CI pin a rendered sweep's bytes, and a byte offset does not
//! say *what* moved; this names every leaf added, removed or changed as
//! scenario → section → key, so "no simulated fact moved" is empty output.

use crate::Json;

/// One line per difference between sweep reports `a` and `b`, in `a`'s
/// order (then what only `b` has); empty when they are equal.
pub fn diff_sweeps(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    walk(&mut Vec::new(), Some(a), Some(b), &mut out);
    out
}

fn walk(path: &mut Vec<String>, a: Option<&Json>, b: Option<&Json>, out: &mut Vec<String>) {
    // A container that came or went is named, not listed leaf by leaf.
    let shown = |v: &Json| match v {
        Json::Obj(_) | Json::Arr(_) => "…".to_owned(),
        leaf => leaf.render(),
    };
    let what = match (a, b) {
        (Some(a), Some(b)) if a == b => return,
        (Some(a @ (Json::Obj(_) | Json::Arr(_))), Some(b @ (Json::Obj(_) | Json::Arr(_)))) => {
            let (in_a, in_b) = (children(a), children(b));
            let both = in_a
                .iter()
                .map(|(name, v)| (name, Some(*v), find(&in_b, name)));
            let only_b = in_b.iter().filter(|(name, _)| find(&in_a, name).is_none());
            for (name, va, vb) in both.chain(only_b.map(|(name, v)| (name, None, Some(*v)))) {
                path.push(name.clone());
                walk(path, va, vb, out);
                path.pop();
            }
            return;
        }
        (Some(a), Some(b)) => format!("changed {} → {}", shown(a), shown(b)),
        (Some(a), None) => format!("removed (was {})", shown(a)),
        (None, Some(b)) => format!("added ({})", shown(b)),
        (None, None) => return,
    };
    // `runs.<scenario>.<section>.<key…>`; what sits beside `runs` (the
    // sweep's own summary) reads as the scenario `(sweep)`.
    let (scenario, rest) = match &path[..] {
        [runs, scenario, rest @ ..] if runs == "runs" => (scenario.as_str(), rest),
        rest => ("(sweep)", rest),
    };
    let at = match rest {
        [] => scenario.to_owned(),
        [section] => format!("{scenario} → {section}"),
        [section, key @ ..] => format!("{scenario} → {section} → {}", key.join(".")),
    };
    out.push(format!("{at}: {what}"));
}

fn find<'j>(side: &[(String, &'j Json)], name: &str) -> Option<&'j Json> {
    side.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// A container's children by the name a reader would use: an object's by
/// key; an array's by each element's `name` (a run's: its scenario's) when
/// every element has one and no two share it, else by index.
fn children(v: &Json) -> Vec<(String, &Json)> {
    match v {
        Json::Obj(members) => members.iter().map(|(k, v)| (k.clone(), v)).collect(),
        Json::Arr(items) => {
            let name = |item: &Json| match item.get("scenario").unwrap_or(item).get("name") {
                Some(Json::Str(name)) => Some(name.clone()),
                _ => None,
            };
            let mut names: Vec<String> = items.iter().filter_map(name).collect();
            let distinct = (1..names.len()).all(|i| !names[..i].contains(&names[i]));
            if names.len() != items.len() || !distinct {
                names = (0..items.len()).map(|i| i.to_string()).collect();
            }
            names.into_iter().zip(items).collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep_jobs, SweepSpec};

    /// Replace the first `from` in the rendered report — the tests edit
    /// bytes, as a changed build would.
    fn edited(text: &str, from: &str, to: &str) -> Json {
        assert!(text.contains(from), "the report has no {from:?}");
        Json::parse(&text.replacen(from, to, 1)).expect("still JSON")
    }

    #[test]
    fn a_report_differs_from_itself_nowhere_and_from_an_edit_where_edited() {
        let text = run_sweep_jobs(&SweepSpec::chaos_sweep(42), 1)
            .to_json()
            .render_pretty();
        let report = Json::parse(&text).expect("a rendered sweep parses");
        assert_eq!(diff_sweeps(&report, &report), Vec::<String>::new());
        let runs = children(report.get("runs").expect("a sweep has runs"));
        let (first, second) = (&runs[0], &runs[1]);

        // One counter edited: the first run's `world.frames_sent`.
        let Some(&Json::U64(sent)) = first.1.get("world").and_then(|w| w.get("frames_sent")) else {
            panic!("world.frames_sent is a count")
        };
        let changed = edited(
            &text,
            &format!("\"frames_sent\": {sent}"),
            "\"frames_sent\": 7",
        );
        assert_eq!(
            diff_sweeps(&report, &changed),
            [format!(
                "{} → world → frames_sent: changed {sent} → 7",
                first.0
            )]
        );

        // One key removed, and seen from the other side added.
        let removed = edited(&text, "\"vm_instructions\": 0,", "");
        let at = format!("{} → bridges → bridge0.counters.vm_instructions", first.0);
        assert_eq!(
            diff_sweeps(&report, &removed),
            [format!("{at}: removed (was 0)")]
        );
        assert_eq!(diff_sweeps(&removed, &report), [format!("{at}: added (0)")]);

        // One scenario missing: named once, not leaf by leaf (the sweep's
        // own summary is untouched here, so nothing else prints).
        let Json::Obj(mut members) = report.clone() else {
            panic!("a report is an object")
        };
        for (key, value) in &mut members {
            if let (true, Json::Arr(runs)) = (key == "runs", value) {
                runs.truncate(1);
            }
        }
        assert_eq!(
            diff_sweeps(&report, &Json::Obj(members)),
            [format!("{}: removed (was …)", second.0)]
        );
    }
}
