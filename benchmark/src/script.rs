//! The seeded JSONL session the `serve-mixed` workload sends to
//! `Server::handle_line`. The seed changes only this script.
//!
//! Four tenants: a phase-shift tenant that drifts between its phases, one
//! pinned to its map-heavy phase, the synthetic small-maps workload, and
//! findbugs. About 85% of the commands are `tenant_step` (writes) and 15%
//! `tenant_report`/`fleet_report` (reads); every [`REOPEN_EVERY`] commands
//! one tenant is closed and reopened. The cheap tenants draw a `repeat`
//! that makes their steps cost the same order as one findbugs step (about
//! 8 ms on a 2-core x86-64 container); with raw steps of 0.2, 0.5 and 8 ms
//! the median would jump between cost modes from one seed to the next.

/// Commands between two close-and-reopen pairs.
pub const REOPEN_EVERY: usize = 50;

/// `(tenant, workload)` pairs, opened in this order.
pub const TENANTS: [(&str, &str); 4] = [
    ("drift", "phase-shift"),
    ("pinned", "phase-shift"),
    ("synth", "synthetic"),
    ("fb", "findbugs"),
];

/// What a command does, for per-kind latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `tenant_open`
    Open,
    /// `tenant_step`
    Step,
    /// `tenant_report`
    Report,
    /// `fleet_report`
    Fleet,
    /// `tenant_close`
    Close,
}

/// One command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// What it does.
    pub kind: Kind,
    /// The JSONL line.
    pub line: String,
}

/// A session: the opening lines (set-up) and the timed commands. The body
/// ends by closing every tenant, so each tenant's lifetime totals arrive
/// in a `tenant_close` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// `tenant_open` for every tenant.
    pub opening: Vec<String>,
    /// The timed commands.
    pub body: Vec<Command>,
}

/// splitmix64: small, seedable, and the same on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

fn open(tenant: &str, workload: &str) -> String {
    format!(r#"{{"cmd":"tenant_open","tenant":"{tenant}","workload":"{workload}"}}"#)
}

fn tenant_cmd(cmd: &str, tenant: &str) -> String {
    format!(r#"{{"cmd":"{cmd}","tenant":"{tenant}"}}"#)
}

fn step(tenant: &str, phase: Option<&str>, repeat: u64) -> String {
    match phase {
        Some(p) => format!(
            r#"{{"cmd":"tenant_step","tenant":"{tenant}","phase":"{p}","repeat":{repeat}}}"#
        ),
        None => format!(r#"{{"cmd":"tenant_step","tenant":"{tenant}","repeat":{repeat}}}"#),
    }
}

/// Generates a session of `commands` body commands (at least the final
/// closes) from `seed`.
pub fn generate(seed: u64, commands: usize) -> Script {
    let mut rng = Rng(seed);
    let opening = TENANTS.iter().map(|(t, w)| open(t, w)).collect();
    let mut body = Vec::with_capacity(commands);
    let mut drift_list_heavy = false;
    let closes = TENANTS.len();
    while body.len() + closes < commands {
        let slot = body.len();
        if slot % REOPEN_EVERY == REOPEN_EVERY - 1 && body.len() + closes + 2 <= commands {
            let (tenant, workload) = TENANTS[(slot / REOPEN_EVERY) % TENANTS.len()];
            body.push(Command {
                kind: Kind::Close,
                line: tenant_cmd("tenant_close", tenant),
            });
            body.push(Command {
                kind: Kind::Open,
                line: open(tenant, workload),
            });
            continue;
        }
        let draw = rng.below(100);
        let tenant = TENANTS[rng.below(TENANTS.len() as u64) as usize].0;
        let command = if draw < 85 {
            let line = match tenant {
                "drift" => {
                    // Shifts phase on one step in eight: long enough in each
                    // phase for the drift detector to see the change.
                    if rng.below(8) == 0 {
                        drift_list_heavy = !drift_list_heavy;
                    }
                    if drift_list_heavy {
                        step(tenant, Some("list-heavy"), rng.between(13, 17))
                    } else {
                        step(tenant, Some("map-heavy"), rng.between(45, 55))
                    }
                }
                "pinned" => step(tenant, Some("map-heavy"), rng.between(45, 55)),
                "synth" => step(tenant, None, rng.between(16, 20)),
                _ => step(tenant, None, 1),
            };
            Command {
                kind: Kind::Step,
                line,
            }
        } else if draw < 97 {
            Command {
                kind: Kind::Report,
                line: tenant_cmd("tenant_report", tenant),
            }
        } else {
            Command {
                kind: Kind::Fleet,
                line: r#"{"cmd":"fleet_report"}"#.to_owned(),
            }
        };
        body.push(command);
    }
    body.extend(TENANTS.iter().map(|(t, _)| Command {
        kind: Kind::Close,
        line: tenant_cmd("tenant_close", t),
    }));
    Script { opening, body }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_script_is_deterministic() {
        assert_eq!(generate(7, 400), generate(7, 400));
        assert_ne!(generate(7, 400), generate(8, 400), "the seed changes it");
        // A shorter session is a prefix of a longer one up to its closes.
        let (short, long) = (generate(3, 60), generate(3, 400));
        assert_eq!(short.body[..56], long.body[..56]);
    }

    #[test]
    fn script_has_the_documented_mix() {
        let s = generate(1, 2000);
        assert_eq!(s.body.len(), 2000);
        let share = |k: Kind| s.body.iter().filter(|c| c.kind == k).count() as f64 / 2000.0;
        assert!(
            (0.78..0.88).contains(&share(Kind::Step)),
            "{}",
            share(Kind::Step)
        );
        assert!((0.08..0.18).contains(&(share(Kind::Report) + share(Kind::Fleet))));
        // Periodic close-and-reopen, then every tenant closed at the end.
        let opens = s.body.iter().filter(|c| c.kind == Kind::Open).count();
        assert!(opens >= 2000 / REOPEN_EVERY - 1, "{opens} reopens");
        let tail: Vec<_> = s.body[s.body.len() - 4..].iter().map(|c| c.kind).collect();
        assert_eq!(tail, [Kind::Close; 4]);
        // The drifting tenant visits both phases.
        let drift = |p: &str| {
            s.body
                .iter()
                .any(|c| c.line.contains(r#""drift","phase":""#) && c.line.contains(p))
        };
        assert!(drift("map-heavy") && drift("list-heavy"));
    }
}
