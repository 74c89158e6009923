//! Chrome `trace_event` export of a simulated run.
//!
//! Converts the simulator's instruction trace ([`wm_sim::TraceEvent`]),
//! FIFO-depth timeline ([`wm_sim::DepthSample`]) and fast-forwarded
//! stall spans ([`wm_sim::FfSpan`]) into the JSON format understood by
//! `chrome://tracing` and [Perfetto]. Each unit (IFU, IEU, FEU, VEU,
//! SCU *n*) becomes a named track of duration events; each tracked FIFO
//! becomes a counter track showing its occupancy over time. Timestamps
//! are simulated cycles, reported in the trace's microsecond field so
//! one cycle renders as 1 µs.
//!
//! Under the compiled engine, spans the simulator fast-forwarded
//! over appear as one coalesced `stall:<reason>` (or `idle`) event per
//! stalled unit instead of thousands of per-cycle events, so a
//! latency-dominated trace stays small and readable.
//!
//! [Perfetto]: https://ui.perfetto.dev

use wm_sim::json::{self, Layout};
use wm_sim::{DepthSample, FfSpan, Outcome, TraceEvent, UnitName};

/// The track label of a fast-forwarded outcome, or `None` for `Active`
/// (an active unit never fast-forwards, but be defensive).
fn outcome_label(o: Outcome) -> Option<String> {
    match o {
        Outcome::Active => None,
        Outcome::Idle => Some("idle".to_string()),
        Outcome::Stall(s) => Some(format!("stall:{}", s.name())),
    }
}

/// Render a run as a Chrome `trace_event` JSON document.
///
/// `events` come from [`wm_sim::WmMachine::trace`] (instruction-level
/// tracing), `timeline` from [`wm_sim::WmMachine::timeline`]
/// (FIFO-depth change points) and `spans` from
/// [`wm_sim::WmMachine::ff_spans`] (stall spans the compiled engine
/// fast-forwarded over). Any of them may be empty; the result is
/// always a valid trace.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent], timeline: &[DepthSample], spans: &[FfSpan]) -> String {
    // Stable unit → track-id mapping, in order of first appearance.
    // Fast-forward spans cover every unit, so register their tracks
    // too (SCU track names are owned strings; instruction events only
    // ever carry static names).
    let mut units: Vec<String> = Vec::new();
    let intern = |name: &str, units: &mut Vec<String>| {
        if !units.iter().any(|u| u == name) {
            units.push(name.to_string());
        }
    };
    for ev in events {
        intern(ev.unit, &mut units);
    }
    if let Some(s) = spans.first() {
        for unit in UnitName::ALL {
            intern(unit.label(), &mut units);
        }
        for i in 0..s.scus.len() {
            intern(&format!("SCU{i}"), &mut units);
        }
    }
    let tid = |unit: &str| units.iter().position(|u| u == unit).unwrap_or(0);

    json::object(Layout::Inline, |w| {
        w.key("traceEvents").array(Layout::Lines, |w| {
            // Track names (metadata events) so the viewer labels each
            // unit row.
            for (k, unit) in units.iter().enumerate() {
                w.object(Layout::Inline, |w| {
                    w.field("name", "thread_name")
                        .field("ph", "M")
                        .field("pid", 0)
                        .field("tid", k);
                    w.key("args").object(Layout::Inline, |w| {
                        w.field("name", unit);
                    });
                });
            }

            // One 1-cycle duration event per executed instruction.
            for ev in events {
                w.object(Layout::Inline, |w| {
                    w.field("name", &ev.text)
                        .field("cat", "instr")
                        .field("ph", "X")
                        .field("ts", ev.cycle)
                        .field("dur", 1)
                        .field("pid", 0)
                        .field("tid", tid(ev.unit));
                });
            }

            // Coalesced stall spans: one duration event per unit per
            // fast-forwarded span, covering all skipped cycles at once.
            for span in spans {
                let units = [span.ieu, span.feu, span.veu, span.ifu]
                    .into_iter()
                    .zip(UnitName::ALL)
                    .map(|(o, unit)| (o, tid(unit.label())));
                let scus =
                    (span.scus.iter().enumerate()).map(|(i, &o)| (o, tid(&format!("SCU{i}"))));
                for (o, tid) in units.chain(scus) {
                    let Some(label) = outcome_label(o) else {
                        continue;
                    };
                    w.object(Layout::Inline, |w| {
                        w.field("name", label)
                            .field("cat", "stall")
                            .field("ph", "X")
                            .field("ts", span.start)
                            .field("dur", span.len)
                            .field("pid", 0)
                            .field("tid", tid);
                    });
                }
            }

            // FIFO occupancy as counter tracks: one sample per change
            // point.
            for s in timeline {
                w.object(Layout::Inline, |w| {
                    w.field("name", s.fifo)
                        .field("ph", "C")
                        .field("pid", 0)
                        .field("ts", s.cycle);
                    w.key("args").object(Layout::Inline, |w| {
                        w.field("depth", s.depth);
                    });
                });
            }
        });
        w.field("displayTimeUnit", "ns");
    }) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_sim::Stall;

    #[test]
    fn empty_trace_is_valid() {
        let t = chrome_trace(&[], &[], &[]);
        assert!(t.starts_with("{\"traceEvents\": ["));
        assert!(t.contains("\"displayTimeUnit\""));
    }

    #[test]
    fn events_and_counters_are_emitted() {
        let events = vec![
            TraceEvent {
                cycle: 3,
                unit: "IEU",
                text: "add r1, r2, r3".to_string(),
            },
            TraceEvent {
                cycle: 4,
                unit: "FEU",
                text: "fmul f0, f1, f2".to_string(),
            },
        ];
        let timeline = vec![DepthSample {
            cycle: 5,
            fifo: "ieu.in0",
            depth: 2,
        }];
        let t = chrome_trace(&events, &timeline, &[]);
        assert!(t.contains("\"add r1, r2, r3\""));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"ph\": \"C\""));
        assert!(t.contains("\"ieu.in0\""));
        // IEU appeared first so it owns tid 0 and FEU tid 1.
        assert!(t.contains("\"tid\": 0"));
        assert!(t.contains("\"tid\": 1"));
        // Metadata names both tracks.
        assert!(t.contains("\"thread_name\""));
    }

    #[test]
    fn instruction_text_is_json_escaped() {
        let events = vec![TraceEvent {
            cycle: 0,
            unit: "IFU",
            text: "jump \"label\"\n".to_string(),
        }];
        let t = chrome_trace(&events, &[], &[]);
        assert!(t.contains("jump \\\"label\\\"\\n"));
    }

    #[test]
    fn fast_forward_spans_are_coalesced() {
        let spans = vec![FfSpan {
            start: 100,
            len: 23,
            ieu: Outcome::Stall(Stall::FifoEmpty),
            feu: Outcome::Idle,
            veu: Outcome::Idle,
            ifu: Outcome::Stall(Stall::IqFull),
            scus: vec![Outcome::Stall(Stall::PortBusy), Outcome::Idle],
        }];
        let t = chrome_trace(&[], &[], &spans);
        // One event per unit with the full span duration, not 23 events.
        assert!(t.contains("\"stall:fifo-empty\""));
        assert!(t.contains("\"stall:iq-full\""));
        assert!(t.contains("\"stall:port-busy\""));
        assert!(t.contains("\"idle\""));
        assert!(t.contains("\"ts\": 100, \"dur\": 23"));
        assert_eq!(t.matches("\"cat\": \"stall\"").count(), 6);
        // All unit tracks get registered and named.
        for name in ["IEU", "FEU", "VEU", "IFU", "SCU0", "SCU1"] {
            assert!(t.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
