//! Deterministic trace exporters: JSON Lines and Chrome `trace_event`.
//!
//! Both formats are emitted with a fixed field order and integer-only
//! values, so two runs with the same seed produce *byte-identical* output —
//! the property the determinism regression test pins down. The Chrome
//! format loads directly into `chrome://tracing` or [Perfetto]
//! (<https://ui.perfetto.dev>): instants render as slices per component
//! track, and migrations render as duration bars spanning their transfer
//! time.
//!
//! [Perfetto]: https://perfetto.dev

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::event::{Component, TraceEvent, TraceEventKind};

/// Escapes a string into JSON string-literal content (no surrounding
/// quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Appends the kind-specific fields as `"key":value` pairs (comma-separated,
/// no surrounding braces). Shared between the JSONL and Chrome exporters so
/// both carry identical payloads.
fn push_kind_fields(out: &mut String, kind: &TraceEventKind) {
    match kind {
        TraceEventKind::MessageSend {
            from_actor,
            from_client,
            to,
            func,
            bytes,
        } => {
            out.push_str("\"from_actor\":");
            push_opt_u64(out, *from_actor);
            out.push_str(",\"from_client\":");
            push_opt_u64(out, from_client.map(u64::from));
            let _ = write!(out, ",\"to\":{to},\"func\":{func},\"bytes\":{bytes}");
        }
        TraceEventKind::MessageDeliver {
            to,
            server,
            func,
            forwarded,
        } => {
            let _ = write!(
                out,
                "\"to\":{to},\"server\":{server},\"func\":{func},\"forwarded\":{forwarded}"
            );
        }
        TraceEventKind::ActorCreated {
            actor,
            actor_type,
            server,
        } => {
            let _ = write!(out, "\"actor\":{actor},\"actor_type\":\"");
            escape_into(out, actor_type);
            let _ = write!(out, "\",\"server\":{server}");
        }
        TraceEventKind::ActorRemoved { actor, server } => {
            let _ = write!(out, "\"actor\":{actor},\"server\":{server}");
        }
        TraceEventKind::MigrationStart {
            actor,
            src,
            dst,
            state_bytes,
        } => {
            let _ = write!(
                out,
                "\"actor\":{actor},\"src\":{src},\"dst\":{dst},\"state_bytes\":{state_bytes}"
            );
        }
        TraceEventKind::MigrationComplete {
            actor,
            src,
            dst,
            transfer_us,
        } => {
            let _ = write!(
                out,
                "\"actor\":{actor},\"src\":{src},\"dst\":{dst},\"transfer_us\":{transfer_us}"
            );
        }
        TraceEventKind::RuleEvaluated { rule, matches } => {
            let _ = write!(out, "\"rule\":{rule},\"matches\":{matches}");
        }
        TraceEventKind::RuleFired { rule, actions } => {
            let _ = write!(out, "\"rule\":{rule},\"actions\":{actions}");
        }
        TraceEventKind::PlanProposed {
            round,
            actor,
            src,
            dst,
            action,
            priority,
            rule,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"actor\":{actor},\"src\":{src},\"dst\":{dst},\"action\":\""
            );
            escape_into(out, action);
            let _ = write!(out, "\",\"priority\":{priority},\"rule\":");
            // Internal scale-in drains have no originating rule.
            push_opt_u64(out, (*rule != u64::MAX).then_some(*rule));
        }
        TraceEventKind::QuerySent {
            round,
            actor,
            src,
            dst,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"actor\":{actor},\"src\":{src},\"dst\":{dst}"
            );
        }
        TraceEventKind::QueryReply {
            round,
            actor,
            dst,
            admitted,
            reason,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"actor\":{actor},\"dst\":{dst},\"admitted\":{admitted},\"reason\":\""
            );
            escape_into(out, reason);
            out.push('"');
        }
        TraceEventKind::SnapshotShared {
            round,
            generation,
            consumers,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"generation\":{generation},\"consumers\":{consumers}"
            );
        }
        TraceEventKind::ScaleVote {
            gem,
            scale_out,
            scale_in,
        } => {
            let _ = write!(
                out,
                "\"gem\":{gem},\"scale_out\":{scale_out},\"scale_in\":{scale_in}"
            );
        }
        TraceEventKind::ControlQuerySent {
            round,
            gem,
            generation,
            servers,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"gem\":{gem},\"generation\":{generation},\"servers\":{servers}"
            );
        }
        TraceEventKind::ControlQueryReply {
            round,
            gem,
            candidates,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"gem\":{gem},\"candidates\":{candidates}"
            );
        }
        TraceEventKind::ControlDecisionIssued {
            round,
            grow,
            shrink,
            migrations,
        } => {
            let _ = write!(
                out,
                "\"round\":{round},\"grow\":{grow},\"shrink\":{shrink},\
                 \"migrations\":{migrations}"
            );
        }
        TraceEventKind::ServerBoot {
            server,
            instance,
            ready_at_us,
        } => {
            let _ = write!(out, "\"server\":{server},\"instance\":\"");
            escape_into(out, instance);
            let _ = write!(out, "\",\"ready_at_us\":{ready_at_us}");
        }
        TraceEventKind::ServerDrain { server } => {
            let _ = write!(out, "\"server\":{server}");
        }
        TraceEventKind::FaultInjected { fault, server } => {
            out.push_str("\"fault\":\"");
            escape_into(out, fault);
            out.push_str("\",\"server\":");
            push_opt_u64(out, *server);
        }
        TraceEventKind::ServerCrashed {
            server,
            actors_lost,
            messages_lost,
        } => {
            let _ = write!(
                out,
                "\"server\":{server},\"actors_lost\":{actors_lost},\"messages_lost\":{messages_lost}"
            );
        }
        TraceEventKind::ServerRestarted {
            server,
            ready_at_us,
        } => {
            let _ = write!(out, "\"server\":{server},\"ready_at_us\":{ready_at_us}");
        }
        TraceEventKind::ServerDeclaredDead {
            server,
            detect_latency_us,
        } => {
            let _ = write!(
                out,
                "\"server\":{server},\"detect_latency_us\":{detect_latency_us}"
            );
        }
        TraceEventKind::ActorRecovered {
            actor,
            src,
            dst,
            state_bytes_lost,
        } => {
            let _ = write!(
                out,
                "\"actor\":{actor},\"src\":{src},\"dst\":{dst},\"state_bytes_lost\":{state_bytes_lost}"
            );
        }
        TraceEventKind::MigrationAborted {
            actor,
            src,
            dst,
            reason,
        } => {
            let _ = write!(
                out,
                "\"actor\":{actor},\"src\":{src},\"dst\":{dst},\"reason\":\""
            );
            escape_into(out, reason);
            out.push('"');
        }
        TraceEventKind::MigrationRetry {
            actor,
            dst,
            attempt,
        } => {
            let _ = write!(out, "\"actor\":{actor},\"dst\":{dst},\"attempt\":{attempt}");
        }
        TraceEventKind::PartitionStarted { group_size } => {
            let _ = write!(out, "\"group_size\":{group_size}");
        }
        TraceEventKind::PartitionHealed { healed } => {
            let _ = write!(out, "\"healed\":{healed}");
        }
        TraceEventKind::LinkDegraded {
            extra_latency_us,
            bandwidth_pct,
            drop_per_mille,
        } => {
            let _ = write!(
                out,
                "\"extra_latency_us\":{extra_latency_us},\"bandwidth_pct\":{bandwidth_pct},\"drop_per_mille\":{drop_per_mille}"
            );
        }
        TraceEventKind::LinksHealed { was_active } => {
            let _ = write!(out, "\"was_active\":{was_active}");
        }
        TraceEventKind::GemCrashed { gem } => {
            let _ = write!(out, "\"gem\":{gem}");
        }
        TraceEventKind::LemCrashed { server } => {
            let _ = write!(out, "\"server\":{server}");
        }
        TraceEventKind::ProvisionerStalled { until_us } => {
            let _ = write!(out, "\"until_us\":{until_us}");
        }
    }
}

/// Renders events as JSON Lines: one object per event, fixed field order.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        let _ = write!(
            out,
            "{{\"id\":{},\"at_us\":{},\"component\":\"{}\",\"parent\":",
            e.id.0,
            e.at.as_micros(),
            e.component.as_str()
        );
        push_opt_u64(&mut out, e.parent.map(|p| p.0));
        let _ = write!(out, ",\"kind\":\"{}\",", e.kind.name());
        push_kind_fields(&mut out, &e.kind);
        out.push_str("}\n");
    }
    out
}

/// The track (thread id) an event renders on inside its component's
/// process: actors for runtime events, servers for provisioning, rule
/// index for planning.
fn chrome_tid(kind: &TraceEventKind) -> u64 {
    match kind {
        TraceEventKind::MessageSend { to, .. } | TraceEventKind::MessageDeliver { to, .. } => *to,
        TraceEventKind::ServerBoot { server, .. }
        | TraceEventKind::ServerDrain { server }
        | TraceEventKind::ServerCrashed { server, .. }
        | TraceEventKind::ServerRestarted { server, .. }
        | TraceEventKind::ServerDeclaredDead { server, .. }
        | TraceEventKind::LemCrashed { server } => u64::from(*server),
        TraceEventKind::FaultInjected { server, .. } => server.unwrap_or(0),
        TraceEventKind::GemCrashed { gem } => u64::from(*gem),
        TraceEventKind::RuleEvaluated { rule, .. } | TraceEventKind::RuleFired { rule, .. } => {
            if *rule == u64::MAX {
                0
            } else {
                *rule
            }
        }
        TraceEventKind::ScaleVote { gem, .. } => u64::from(*gem),
        TraceEventKind::ControlQuerySent { gem, .. }
        | TraceEventKind::ControlQueryReply { gem, .. } => u64::from(*gem),
        TraceEventKind::ControlDecisionIssued { round, .. } => *round,
        TraceEventKind::SnapshotShared { round, .. } => *round,
        other => other.subject_actor().unwrap_or(0),
    }
}

fn chrome_pid(component: Component) -> u32 {
    match component {
        Component::Runtime => 1,
        Component::Lem => 2,
        Component::Gem => 3,
        Component::Provisioner => 4,
        Component::Chaos => 5,
    }
}

/// Renders events in Chrome `trace_event` JSON (object format with a
/// `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
///
/// Instant events use phase `"i"`; completed migrations render as phase
/// `"X"` slices spanning their transfer time.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 512);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for component in [
        Component::Runtime,
        Component::Lem,
        Component::Gem,
        Component::Provisioner,
        Component::Chaos,
    ] {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            chrome_pid(component),
            component.as_str()
        );
    }
    for e in events {
        out.push(',');
        let (phase, ts, dur) = match &e.kind {
            TraceEventKind::MigrationComplete { transfer_us, .. } => (
                "X",
                e.at.as_micros().saturating_sub(*transfer_us),
                Some(*transfer_us),
            ),
            _ => ("i", e.at.as_micros(), None),
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
            e.kind.name(),
            e.kind.category().as_str(),
            phase,
            ts
        );
        if let Some(dur) = dur {
            let _ = write!(out, "\"dur\":{dur},");
        }
        if phase == "i" {
            out.push_str("\"s\":\"t\",");
        }
        let _ = write!(
            out,
            "\"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":",
            chrome_pid(e.component),
            chrome_tid(&e.kind),
            e.id.0
        );
        push_opt_u64(&mut out, e.parent.map(|p| p.0));
        out.push(',');
        push_kind_fields(&mut out, &e.kind);
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// The workspace's shared results directory, `target/plasma-results/`
/// (the same location the bench harnesses write their figure data to).
pub fn results_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    target.join("plasma-results")
}

/// Writes `contents` under `dir`, creating the directory first.
pub fn write_under(dir: &Path, file_name: &str, contents: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventId, TraceEvent};
    use plasma_sim::SimTime;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                id: EventId(1),
                at: SimTime::from_micros(5),
                component: Component::Gem,
                parent: None,
                kind: TraceEventKind::RuleFired {
                    rule: 0,
                    actions: 2,
                },
            },
            TraceEvent {
                id: EventId(2),
                at: SimTime::from_micros(9),
                component: Component::Runtime,
                parent: Some(EventId(1)),
                kind: TraceEventKind::MigrationComplete {
                    actor: 3,
                    src: 0,
                    dst: 1,
                    transfer_us: 4,
                },
            },
        ]
    }

    #[test]
    fn jsonl_fixed_shape() {
        let lines = to_jsonl(&sample());
        assert_eq!(
            lines,
            "{\"id\":1,\"at_us\":5,\"component\":\"gem\",\"parent\":null,\
             \"kind\":\"RuleFired\",\"rule\":0,\"actions\":2}\n\
             {\"id\":2,\"at_us\":9,\"component\":\"runtime\",\"parent\":1,\
             \"kind\":\"MigrationComplete\",\"actor\":3,\"src\":0,\"dst\":1,\"transfer_us\":4}\n"
        );
    }

    #[test]
    fn chrome_trace_contains_duration_slice() {
        let json = to_chrome_trace(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // The migration renders as a complete slice starting at arrival
        // minus transfer time.
        assert!(json.contains("\"ph\":\"X\",\"ts\":5,\"dur\":4,"));
        // Process metadata names the component tracks.
        assert!(json.contains("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"runtime\"}}"));
    }

    #[test]
    fn string_fields_are_escaped() {
        let events = vec![TraceEvent {
            id: EventId(1),
            at: SimTime::ZERO,
            component: Component::Runtime,
            parent: None,
            kind: TraceEventKind::ActorCreated {
                actor: 0,
                actor_type: "we\"ird\nname".into(),
                server: 0,
            },
        }];
        let line = to_jsonl(&events);
        assert!(line.contains("\"actor_type\":\"we\\\"ird\\nname\""));
    }

    #[test]
    fn fault_chain_jsonl_fixed_shape() {
        let events = vec![
            TraceEvent {
                id: EventId(1),
                at: SimTime::from_secs(30),
                component: Component::Chaos,
                parent: None,
                kind: TraceEventKind::FaultInjected {
                    fault: "server-crash".into(),
                    server: Some(1),
                },
            },
            TraceEvent {
                id: EventId(2),
                at: SimTime::from_secs(30),
                component: Component::Runtime,
                parent: Some(EventId(1)),
                kind: TraceEventKind::ServerCrashed {
                    server: 1,
                    actors_lost: 2,
                    messages_lost: 7,
                },
            },
            TraceEvent {
                id: EventId(3),
                at: SimTime::from_secs(40),
                component: Component::Gem,
                parent: Some(EventId(2)),
                kind: TraceEventKind::ServerDeclaredDead {
                    server: 1,
                    detect_latency_us: 10_000_000,
                },
            },
            TraceEvent {
                id: EventId(4),
                at: SimTime::from_secs(40),
                component: Component::Runtime,
                parent: Some(EventId(3)),
                kind: TraceEventKind::ActorRecovered {
                    actor: 5,
                    src: 1,
                    dst: 0,
                    state_bytes_lost: 4096,
                },
            },
        ];
        assert_eq!(
            to_jsonl(&events),
            "{\"id\":1,\"at_us\":30000000,\"component\":\"chaos\",\"parent\":null,\
             \"kind\":\"FaultInjected\",\"fault\":\"server-crash\",\"server\":1}\n\
             {\"id\":2,\"at_us\":30000000,\"component\":\"runtime\",\"parent\":1,\
             \"kind\":\"ServerCrashed\",\"server\":1,\"actors_lost\":2,\"messages_lost\":7}\n\
             {\"id\":3,\"at_us\":40000000,\"component\":\"gem\",\"parent\":2,\
             \"kind\":\"ServerDeclaredDead\",\"server\":1,\"detect_latency_us\":10000000}\n\
             {\"id\":4,\"at_us\":40000000,\"component\":\"runtime\",\"parent\":3,\
             \"kind\":\"ActorRecovered\",\"actor\":5,\"src\":1,\"dst\":0,\"state_bytes_lost\":4096}\n"
        );
    }

    #[test]
    fn scale_in_drain_rule_serializes_as_null() {
        let events = vec![TraceEvent {
            id: EventId(1),
            at: SimTime::ZERO,
            component: Component::Gem,
            parent: None,
            kind: TraceEventKind::PlanProposed {
                round: 3,
                actor: 1,
                src: 0,
                dst: 1,
                action: "balance".into(),
                priority: 100,
                rule: u64::MAX,
            },
        }];
        assert!(to_jsonl(&events).contains("\"rule\":null"));
    }
}
