//! Deterministic, plan-scoped fault injection.
//!
//! PABST's control loop assumes a healthy SAT broadcast, epoch
//! synchronizer, and memory-controller service path. A resilience study
//! perturbs exactly those assumptions — but perturbation must not cost
//! reproducibility: a fault campaign that cannot be replayed bit-exactly
//! cannot be debugged. This module is therefore the **only** sanctioned
//! source of injected nondeterminism in the simulation crates (the
//! `fault-rng` simlint rule enforces it): every injection decision is a
//! pure function of a [`FaultSpec`]'s own seed and the epoch being
//! asked about, so the same [`FaultPlan`] produces the same faults at
//! any `--jobs` value, in any query order, on any platform.
//!
//! Like epoch trace records, a plan serializes to dependency-free JSONL
//! ([`FaultPlan::to_jsonl`] / [`FaultPlan::parse`]): one flat object per
//! spec, integers and a kind label only, so plans round-trip exactly and
//! can be attached to failure reports for one-command repro.
//!
//! # Examples
//!
//! ```
//! use pabst_simkit::fault::{FaultKind, FaultPlan, FaultSpec};
//!
//! let mut plan = FaultPlan::new();
//! plan.push(FaultSpec {
//!     kind: FaultKind::SatDrop,
//!     target: 0,
//!     from_epoch: 10,
//!     until_epoch: 20,
//!     prob_ppm: 500_000, // 50%
//!     magnitude: 0,
//!     seed: 7,
//! });
//! assert!(!plan.is_inert());
//! assert_eq!(FaultPlan::parse(&plan.to_jsonl()), Ok(plan.clone()));
//! // Decisions are reproducible: ask twice, get the same answer.
//! for epoch in 0..30 {
//!     let a = plan.fires(FaultKind::SatDrop, 0, epoch);
//!     let b = plan.fires(FaultKind::SatDrop, 0, epoch);
//!     assert_eq!(a, b);
//!     if !(10..=20).contains(&epoch) {
//!         assert!(!a, "faults stay inside their epoch window");
//!     }
//! }
//! ```

use std::fmt::Write as _;

use crate::rng::SimRng;

/// Probability scale: `prob_ppm` is parts per million, so `1_000_000`
/// means "fires every epoch in the window" and `0` means never.
pub const PPM_SCALE: u64 = 1_000_000;

/// What gets broken. The `target` field of a [`FaultSpec`] names the
/// component instance; its meaning is per-kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The SAT broadcast from memory controller `target` is lost for the
    /// epoch: the governor sees *no* sample (staleness path).
    SatDrop,
    /// The SAT broadcast from MC `target` arrives `magnitude` epochs
    /// late: the governor sees a stale value instead of the current one.
    SatDelay,
    /// The SAT bit from MC `target` arrives inverted.
    SatCorrupt,
    /// Tile `target` misses the epoch-boundary synchronization pulse:
    /// its pacer keeps the previous epoch's period.
    EpochSkew,
    /// Memory controller `target` stops servicing requests for the
    /// epoch (queues still accept; nothing completes).
    McStall,
    /// Tile `target`'s pacer leaks `magnitude` cycles of credit at the
    /// epoch boundary (its `C_next` is pushed into the future).
    CreditLeak,
}

impl FaultKind {
    /// Every kind, in serialization-label order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::SatDrop,
        FaultKind::SatDelay,
        FaultKind::SatCorrupt,
        FaultKind::EpochSkew,
        FaultKind::McStall,
        FaultKind::CreditLeak,
    ];

    /// The stable serialization label (used in JSONL and diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::SatDrop => "sat-drop",
            FaultKind::SatDelay => "sat-delay",
            FaultKind::SatCorrupt => "sat-corrupt",
            FaultKind::EpochSkew => "epoch-skew",
            FaultKind::McStall => "mc-stall",
            FaultKind::CreditLeak => "credit-leak",
        }
    }

    /// Parses a serialization label back into a kind.
    pub fn from_label(label: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// A small per-kind constant folded into the decision stream seed so
    /// two specs differing only in kind draw independent streams.
    fn code(self) -> u64 {
        match self {
            FaultKind::SatDrop => 1,
            FaultKind::SatDelay => 2,
            FaultKind::SatCorrupt => 3,
            FaultKind::EpochSkew => 4,
            FaultKind::McStall => 5,
            FaultKind::CreditLeak => 6,
        }
    }
}

/// One injection rule: a kind, a component instance, an inclusive epoch
/// window, a firing probability, a kind-specific magnitude, and the seed
/// its decision stream derives from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to break.
    pub kind: FaultKind,
    /// Which instance (MC index or tile index, per-kind; see
    /// [`FaultKind`]).
    pub target: u64,
    /// First epoch (inclusive) the spec may fire in.
    pub from_epoch: u64,
    /// Last epoch (inclusive) the spec may fire in.
    pub until_epoch: u64,
    /// Firing probability per in-window epoch, in parts per million.
    pub prob_ppm: u64,
    /// Kind-specific strength (delay epochs, leaked credit cycles);
    /// zero for kinds that ignore it.
    pub magnitude: u64,
    /// Seed of this spec's decision stream. Two specs with different
    /// seeds fire independently even when otherwise identical.
    pub seed: u64,
}

impl FaultSpec {
    /// True when this spec could ever fire: nonzero probability and a
    /// non-empty epoch window.
    pub fn can_fire(&self) -> bool {
        self.prob_ppm > 0 && self.from_epoch <= self.until_epoch
    }

    /// Whether this spec fires at `epoch`.
    ///
    /// The decision is a pure function of `(seed, kind, target, epoch)`
    /// — one stateless SplitMix64 draw — so callers may ask in any
    /// order, any number of times, from any thread, and always get the
    /// same answer. No draw happens at all outside the window or at
    /// probability zero, so an inert spec perturbs nothing.
    pub fn fires(&self, epoch: u64) -> bool {
        if self.prob_ppm == 0 || epoch < self.from_epoch || epoch > self.until_epoch {
            return false;
        }
        if self.prob_ppm >= PPM_SCALE {
            return true;
        }
        let stream = self
            .seed
            .wrapping_add(self.kind.code().wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(self.target.wrapping_mul(0xD134_2543_DE82_EF95))
            .wrapping_add(epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut rng = SimRng::seed_from_u64(stream);
        // Lemire reduction to [0, PPM_SCALE): integer-exact on every host.
        let draw = ((u128::from(rng.next_u64()) * u128::from(PPM_SCALE)) >> 64) as u64;
        draw < self.prob_ppm
    }

    /// Serializes the spec as one flat JSON object (no trailing newline),
    /// keys in declaration order so equal specs serialize identically.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push('{');
        let _ = write!(s, "\"kind\":\"{}\"", self.kind.label());
        let _ = write!(s, ",\"target\":{}", self.target);
        let _ = write!(s, ",\"from_epoch\":{}", self.from_epoch);
        let _ = write!(s, ",\"until_epoch\":{}", self.until_epoch);
        let _ = write!(s, ",\"prob_ppm\":{}", self.prob_ppm);
        let _ = write!(s, ",\"magnitude\":{}", self.magnitude);
        let _ = write!(s, ",\"seed\":{}", self.seed);
        s.push('}');
        s
    }
}

/// An ordered list of [`FaultSpec`]s — the unit a whole run is
/// parameterized by.
///
/// An empty or all-zero-probability plan is *inert*: attaching it to a
/// system changes nothing, byte for byte (the resilience acceptance
/// criterion). [`FaultPlan::fires`] answers "does any spec of this kind
/// covering this target fire at this epoch"; [`FaultPlan::magnitude`]
/// retrieves the firing spec's strength.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty (inert) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a spec. Order is preserved (it is the serialization
    /// order, and the first matching spec wins magnitude lookups).
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// The specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True when no spec can ever fire: the plan is a structural no-op.
    pub fn is_inert(&self) -> bool {
        self.specs.iter().all(|s| !s.can_fire())
    }

    /// Whether any spec of `kind` targeting `target` fires at `epoch`.
    pub fn fires(&self, kind: FaultKind, target: u64, epoch: u64) -> bool {
        self.specs.iter().any(|s| s.kind == kind && s.target == target && s.fires(epoch))
    }

    /// The magnitude of the first spec of `kind` targeting `target` that
    /// fires at `epoch`, or `None` when nothing fires.
    pub fn magnitude(&self, kind: FaultKind, target: u64, epoch: u64) -> Option<u64> {
        self.specs
            .iter()
            .find(|s| s.kind == kind && s.target == target && s.fires(epoch))
            .map(|s| s.magnitude)
    }

    /// Serializes the plan as JSONL: one spec per line, each line
    /// `\n`-terminated. An empty plan serializes to the empty string.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.specs {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL plan back (blank lines are skipped), accepting
    /// keys in any order. Keys absent from a line default to zero —
    /// except `kind`, which is mandatory.
    ///
    /// # Errors
    ///
    /// Returns [`FaultParseError`] (with line number and byte offset) on
    /// any syntax violation, unknown key or kind label, or a spec whose
    /// probability exceeds [`PPM_SCALE`].
    pub fn parse(text: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            plan.push(parse_spec_line(line).map_err(|mut e| {
                e.line = idx + 1;
                e
            })?);
        }
        Ok(plan)
    }

    /// FNV-1a digest of the plan's canonical JSONL serialization — a
    /// stable provenance fingerprint carried by liveness-violation
    /// snapshots and campaign failure records so any failure line names
    /// the exact plan that produced it. The empty plan digests to the FNV offset
    /// basis.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self.to_jsonl().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// Why a fault-plan line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// 1-based line number within the plan text.
    pub line: usize,
    /// Byte offset into the line where parsing stopped.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault plan line {}, byte {}: {}", self.line, self.offset, self.message)
    }
}

impl std::error::Error for FaultParseError {}

/// Parses one spec object. Line numbers are filled in by the caller.
fn parse_spec_line(line: &str) -> Result<FaultSpec, FaultParseError> {
    let mut cur = Cursor { s: line.as_bytes(), pos: 0 };
    let mut kind: Option<FaultKind> = None;
    let mut spec = FaultSpec {
        kind: FaultKind::SatDrop, // placeholder until `kind` is seen
        target: 0,
        from_epoch: 0,
        until_epoch: 0,
        prob_ppm: 0,
        magnitude: 0,
        seed: 0,
    };
    cur.skip_ws();
    cur.eat(b'{')?;
    cur.skip_ws();
    if cur.peek() == Some(b'}') {
        cur.pos += 1;
    } else {
        loop {
            let key = cur.parse_key()?;
            cur.skip_ws();
            cur.eat(b':')?;
            cur.skip_ws();
            match key {
                "kind" => {
                    let label_at = cur.pos;
                    let label = cur.parse_string()?;
                    kind = Some(FaultKind::from_label(label).ok_or_else(|| FaultParseError {
                        line: 0,
                        offset: label_at,
                        message: format!("unknown fault kind {label:?}"),
                    })?);
                }
                "target" => spec.target = cur.parse_field(key)?,
                "from_epoch" => spec.from_epoch = cur.parse_field(key)?,
                "until_epoch" => spec.until_epoch = cur.parse_field(key)?,
                "prob_ppm" => spec.prob_ppm = cur.parse_field(key)?,
                "magnitude" => spec.magnitude = cur.parse_field(key)?,
                "seed" => spec.seed = cur.parse_field(key)?,
                other => {
                    return Err(FaultParseError {
                        line: 0,
                        offset: cur.pos,
                        message: format!("unknown key {other:?}"),
                    })
                }
            }
            cur.skip_ws();
            match cur.bump() {
                Some(b',') => cur.skip_ws(),
                Some(b'}') => break,
                _ => return Err(cur.err("expected ',' or '}'")),
            }
        }
    }
    cur.skip_ws();
    if cur.pos != cur.s.len() {
        return Err(cur.err("trailing bytes after spec"));
    }
    match kind {
        Some(k) => spec.kind = k,
        None => return Err(cur.err("spec is missing the mandatory `kind` key")),
    }
    if spec.prob_ppm > PPM_SCALE {
        return Err(cur.err(&format!("prob_ppm {} exceeds {PPM_SCALE}", spec.prob_ppm)));
    }
    Ok(spec)
}

/// Byte cursor over one plan line (the trace-record grammar plus quoted
/// strings for the kind label).
struct Cursor<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: &str) -> FaultParseError {
        FaultParseError { line: 0, offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), FaultParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", char::from(want))))
        }
    }

    /// A double-quoted string; escapes are not part of the grammar
    /// (kind labels are plain ASCII identifiers).
    fn parse_string(&mut self) -> Result<&'a str, FaultParseError> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let raw = &self.s[start..self.pos];
                self.pos += 1;
                return std::str::from_utf8(raw).map_err(|_| FaultParseError {
                    line: 0,
                    offset: start,
                    message: "string is not UTF-8".into(),
                });
            }
            if b == b'\\' {
                return Err(self.err("escapes are not part of the plan grammar"));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn parse_key(&mut self) -> Result<&'a str, FaultParseError> {
        self.parse_string()
    }

    fn parse_u64(&mut self) -> Result<u64, FaultParseError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut any = false;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            let digit = u64::from(b - b'0');
            v = v.checked_mul(10).and_then(|v| v.checked_add(digit)).ok_or_else(|| {
                FaultParseError { line: 0, offset: start, message: "integer overflows u64".into() }
            })?;
            self.pos += 1;
            any = true;
        }
        if any {
            Ok(v)
        } else {
            Err(self.err("expected an unsigned integer"))
        }
    }

    /// [`Cursor::parse_u64`] for a named spec field: failures name the
    /// offending field, so a malformed plan line reports *what* was
    /// wrong, not just where.
    fn parse_field(&mut self, field: &str) -> Result<u64, FaultParseError> {
        self.parse_u64().map_err(|mut e| {
            e.message = format!("field {field:?}: {}", e.message);
            e
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: FaultKind, prob_ppm: u64) -> FaultSpec {
        FaultSpec {
            kind,
            target: 1,
            from_epoch: 5,
            until_epoch: 50,
            prob_ppm,
            magnitude: 3,
            seed: 42,
        }
    }

    #[test]
    fn labels_round_trip_for_every_kind() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(FaultKind::from_label("made-up"), None);
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut plan = FaultPlan::new();
        plan.push(spec(FaultKind::SatDrop, 250_000));
        plan.push(spec(FaultKind::McStall, PPM_SCALE));
        plan.push(FaultSpec { target: 0, seed: 9, ..spec(FaultKind::CreditLeak, 1) });
        assert_eq!(FaultPlan::parse(&plan.to_jsonl()), Ok(plan));
    }

    #[test]
    fn empty_plan_is_inert_and_serializes_empty() {
        let plan = FaultPlan::new();
        assert!(plan.is_inert());
        assert_eq!(plan.to_jsonl(), "");
        assert_eq!(FaultPlan::parse(""), Ok(plan));
    }

    #[test]
    fn zero_probability_plan_is_inert() {
        let mut plan = FaultPlan::new();
        plan.push(spec(FaultKind::SatDrop, 0));
        plan.push(FaultSpec { from_epoch: 9, until_epoch: 3, ..spec(FaultKind::McStall, 1) });
        assert!(plan.is_inert(), "empty window and zero probability both inert");
        for e in 0..100 {
            assert!(!plan.fires(FaultKind::SatDrop, 1, e));
            assert!(!plan.fires(FaultKind::McStall, 1, e));
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_spec_and_epoch() {
        let s = spec(FaultKind::SatDelay, 300_000);
        let forward: Vec<bool> = (0..100).map(|e| s.fires(e)).collect();
        let backward: Vec<bool> = (0..100).rev().map(|e| s.fires(e)).collect();
        let backward_reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_reversed, "query order must not matter");
        assert!(forward.iter().any(|&f| f), "30% over 46 epochs fires sometime");
    }

    #[test]
    fn window_and_extreme_probabilities_are_exact() {
        let always = spec(FaultKind::McStall, PPM_SCALE);
        let never = spec(FaultKind::McStall, 0);
        for e in 0..100u64 {
            let in_window = (5..=50).contains(&e);
            assert_eq!(always.fires(e), in_window);
            assert!(!never.fires(e));
        }
    }

    #[test]
    fn distinct_seeds_and_kinds_draw_independent_streams() {
        let a = spec(FaultKind::SatDrop, 500_000);
        let b = FaultSpec { seed: 43, ..a };
        let c = FaultSpec { kind: FaultKind::SatCorrupt, ..a };
        let fa: Vec<bool> = (5..=50).map(|e| a.fires(e)).collect();
        let fb: Vec<bool> = (5..=50).map(|e| b.fires(e)).collect();
        let fc: Vec<bool> = (5..=50).map(|e| c.fires(e)).collect();
        assert_ne!(fa, fb, "seed decorrelates");
        assert_ne!(fa, fc, "kind decorrelates");
    }

    #[test]
    fn firing_rate_tracks_prob_ppm() {
        let s =
            FaultSpec { from_epoch: 0, until_epoch: 99_999, ..spec(FaultKind::SatDrop, 200_000) };
        let hits = (0..100_000).filter(|&e| s.fires(e)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.2).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn magnitude_comes_from_the_firing_spec() {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec { magnitude: 7, ..spec(FaultKind::CreditLeak, PPM_SCALE) });
        assert_eq!(plan.magnitude(FaultKind::CreditLeak, 1, 10), Some(7));
        assert_eq!(plan.magnitude(FaultKind::CreditLeak, 1, 2), None, "outside window");
        assert_eq!(plan.magnitude(FaultKind::CreditLeak, 2, 10), None, "other target");
        assert_eq!(plan.magnitude(FaultKind::McStall, 1, 10), None, "other kind");
    }

    #[test]
    fn parser_accepts_any_key_order_and_defaults_absent_keys() {
        let line = " { \"prob_ppm\" : 12 , \"kind\" : \"mc-stall\" } ";
        let plan = FaultPlan::parse(line).expect("reordered keys parse");
        assert_eq!(plan.specs().len(), 1);
        let s = plan.specs()[0];
        assert_eq!(s.kind, FaultKind::McStall);
        assert_eq!(s.prob_ppm, 12);
        assert_eq!(s.target, 0, "absent keys default");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "{",
            "{}", // kind is mandatory
            "{\"kind\":\"sat-drop\",}",
            "{\"kind\":\"made-up\"}",
            "{\"kind\":\"sat-drop\",\"target\":}",
            "{\"kind\":\"sat-drop\",\"mystery\":1}",
            "{\"kind\":\"sat-drop\"} extra",
            "{\"kind\":\"sat-drop\",\"prob_ppm\":1000001}",
            "{\"kind\":\"sat-drop\",\"seed\":99999999999999999999999999}",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn parse_error_carries_line_number() {
        let text = "{\"kind\":\"sat-drop\"}\n{\"kind\":\"nope\"}\n";
        let err = FaultPlan::parse(text).expect_err("bad second line");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn parse_error_names_the_offending_field() {
        for (bad, field) in [
            ("{\"kind\":\"sat-drop\",\"target\":}", "\"target\""),
            ("{\"kind\":\"sat-drop\",\"from_epoch\":x}", "\"from_epoch\""),
            ("{\"kind\":\"sat-drop\",\"until_epoch\":\"7\"}", "\"until_epoch\""),
            ("{\"kind\":\"sat-drop\",\"prob_ppm\":-1}", "\"prob_ppm\""),
            ("{\"kind\":\"sat-drop\",\"magnitude\":}", "\"magnitude\""),
            ("{\"kind\":\"sat-drop\",\"seed\":99999999999999999999999999}", "\"seed\""),
        ] {
            let err = FaultPlan::parse(bad).expect_err("must reject");
            assert!(err.message.contains(field), "{bad:?} -> {err}");
            assert_eq!(err.line, 1, "{bad:?}");
        }
        // Overflow keeps its cause alongside the field name.
        let err = FaultPlan::parse("{\"kind\":\"sat-drop\",\"seed\":99999999999999999999999999}")
            .expect_err("overflow");
        assert!(err.message.contains("overflows u64"), "{err}");
    }

    #[test]
    fn parse_error_line_and_field_compose_across_lines() {
        let text = "{\"kind\":\"sat-drop\"}\n\n{\"kind\":\"mc-stall\",\"magnitude\":oops}\n";
        let err = FaultPlan::parse(text).expect_err("bad third line");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("\"magnitude\""), "{err}");
    }

    #[test]
    fn digest_is_stable_and_distinguishes_plans() {
        let empty = FaultPlan::new().digest();
        assert_eq!(empty, 0xcbf2_9ce4_8422_2325, "empty plan digests to the FNV offset basis");
        let mut a = FaultPlan::new();
        a.push(spec(FaultKind::SatDrop, 250_000));
        let mut b = FaultPlan::new();
        b.push(spec(FaultKind::SatDrop, 250_001));
        assert_eq!(a.digest(), a.clone().digest(), "deterministic");
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), empty);
        // The digest follows the canonical serialization: a parse
        // round-trip preserves it.
        let rt = FaultPlan::parse(&a.to_jsonl()).expect("round-trip");
        assert_eq!(rt.digest(), a.digest());
    }
}
