//! The typed request reader: body text to a [`SolveRequest`] and an
//! [`Instance`] in one forward pass over the serde_json shim's pull
//! [`Reader`].
//!
//! Each curve's numbers go straight into its `Vec<(Procs, Time)>`
//! steps or `Vec<Time>` table, and the instance is built by moving
//! those vectors ([`InstanceSpec::into_instance`], so the curve rules
//! stay in one place). No JSON node is built per number. The knobs
//! (`algo`, `eps`, `topology`, …) are a few bytes each: they are read
//! as tree [`Value`]s and go through [`SolveRequest::from_json`].
//!
//! The pass only ever accepts. It reads the tree parser's grammar
//! exactly: the same cursor reads whitespace, strings, escaped keys
//! and numbers; the first of duplicate keys counts; members it does not
//! model are read as whole values, so their syntax and nesting are
//! checked; and a number counts as a `u64` when `u64`'s deserializer
//! would take it (`5.0`, `-0` and `1e3` included). But where anything
//! is off it returns `None` with no reason. The tree parser names the
//! error, because it reports the first syntax error anywhere in a body
//! before any field error, which a forward pass cannot know about. So
//! this pass must never refuse a body the tree accepts; the tests below
//! and `tests/proptest_zerocopy.rs` pin that.

use crate::wire::solve::SolveRequest;
use moldable_core::instance::Instance;
use moldable_core::io::{CurveSpec, InstanceSpec};
use moldable_core::ratio::Ratio;
use serde_json::{Error, Reader, Value};

/// The pass stopped; the tree parser says why.
struct Refused;

impl From<Error> for Refused {
    fn from(_: Error) -> Refused {
        Refused
    }
}

type Read<T> = Result<T, Refused>;

/// A whole `/v1/solve`-shaped body, or `None` if the tree parser must
/// read it (to refuse it).
pub(crate) fn solve_body(text: &str, default_eps: &Ratio) -> Option<(SolveRequest, Instance)> {
    let mut r = Reader::new(text);
    let mut instance = None;
    let mut knobs = Vec::new();
    r.object(|r, key| -> Read<()> {
        if key != "instance" {
            knobs.push((key.into_owned(), r.value()?));
        } else if instance.is_none() {
            instance = Some(instance_of(r)?);
        } else {
            r.value()?;
        }
        Ok(())
    })
    .ok()?;
    r.finish().ok()?;
    let instance = instance?;
    let request = SolveRequest::from_json(&Value::Object(knobs), default_eps).ok()?;
    request.check_topology(instance.m()).ok()?;
    Some((request, instance))
}

/// A bare instance document (the CLI's `--input` file), or `None` if
/// `serde_json::from_str::<InstanceSpec>` and [`InstanceSpec::build`]
/// must read it (to refuse it).
pub fn instance(text: &str) -> Option<Instance> {
    let mut r = Reader::new(text);
    let instance = instance_of(&mut r).ok()?;
    r.finish().ok()?;
    Some(instance)
}

/// [`InstanceSpec`]'s derived shape: `m` and `jobs`, other members
/// skipped.
fn instance_of(r: &mut Reader<'_>) -> Read<Instance> {
    let (mut m, mut jobs) = (None, None);
    r.object(|r, key| -> Read<()> {
        match key.as_ref() {
            "m" if m.is_none() => m = Some(u64_of(r)?),
            "jobs" if jobs.is_none() => {
                let mut curves = Vec::new();
                let mut scratch = Scratch::default();
                r.array(|r| -> Read<()> {
                    curves.push(curve_of(r, &mut scratch)?);
                    Ok(())
                })?;
                jobs = Some(curves);
            }
            _ => drop(r.value()?),
        }
        Ok(())
    })?;
    let spec = InstanceSpec {
        m: m.ok_or(Refused)?,
        jobs: jobs.ok_or(Refused)?,
    };
    spec.into_instance().map_err(|_| Refused)
}

/// Where a table's times and a staircase's steps collect while they
/// are read: each curve then gets its vector in one exact allocation,
/// not a doubling series of them.
#[derive(Default)]
struct Scratch {
    times: Vec<u64>,
    steps: Vec<(u64, u64)>,
}

/// [`CurveSpec`]'s derived shape: an object whose one key names the
/// variant.
fn curve_of(r: &mut Reader<'_>, scratch: &mut Scratch) -> Read<CurveSpec> {
    let mut curve = None;
    r.object(|r, tag| -> Read<()> {
        if curve.is_some() {
            return Err(Refused);
        }
        curve = Some(match tag.as_ref() {
            "constant" => CurveSpec::Constant(u64_of(r)?),
            "table" => {
                let times = &mut scratch.times;
                times.clear();
                r.array(|r| -> Read<()> {
                    times.push(u64_of(r)?);
                    Ok(())
                })?;
                CurveSpec::Table(times.as_slice().to_vec())
            }
            "staircase" => {
                let steps = &mut scratch.steps;
                steps.clear();
                r.array(|r| -> Read<()> {
                    steps.push(pair_of(r)?);
                    Ok(())
                })?;
                CurveSpec::Staircase(steps.as_slice().to_vec())
            }
            "affine_decreasing" => {
                let [base] = fields_of(r, ["base"])?;
                CurveSpec::AffineDecreasing { base }
            }
            "ideal_with_overhead" => {
                let [t1, c, cap] = fields_of(r, ["t1", "c", "cap"])?;
                CurveSpec::IdealWithOverhead { t1, c, cap }
            }
            _ => return Err(Refused),
        });
        Ok(())
    })?;
    curve.ok_or(Refused)
}

/// A struct variant's `u64` fields, by name; other members skipped.
fn fields_of<const N: usize>(r: &mut Reader<'_>, names: [&str; N]) -> Read<[u64; N]> {
    let mut got = [None; N];
    r.object(|r, key| -> Read<()> {
        match names.iter().position(|name| *name == key) {
            Some(i) if got[i].is_none() => got[i] = Some(u64_of(r)?),
            _ => drop(r.value()?),
        }
        Ok(())
    })?;
    let mut fields = [0; N];
    for (field, value) in fields.iter_mut().zip(got) {
        *field = value.ok_or(Refused)?;
    }
    Ok(fields)
}

/// A staircase breakpoint: an array of exactly two `u64`s.
fn pair_of(r: &mut Reader<'_>) -> Read<(u64, u64)> {
    let mut pair = [0; 2];
    let mut len = 0;
    r.array(|r| -> Read<()> {
        *pair.get_mut(len).ok_or(Refused)? = u64_of(r)?;
        len += 1;
        Ok(())
    })?;
    if len == 2 {
        Ok((pair[0], pair[1]))
    } else {
        Err(Refused)
    }
}

/// A number, as `u64`'s deserializer takes it: any form whose value is
/// an integer in range.
#[inline]
fn u64_of(r: &mut Reader<'_>) -> Read<u64> {
    r.number()?
        .as_u128()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or(Refused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::solve::parse_solve_body_tree;
    use proptest::prelude::*;

    /// The typed pass accepts exactly the bodies the tree accepts, and
    /// reads the same request and instance from them.
    fn assert_same_acceptance(body: &[u8]) -> bool {
        let eps = Ratio::new(1, 4);
        let typed = std::str::from_utf8(body)
            .ok()
            .and_then(|text| solve_body(text, &eps));
        let tree = parse_solve_body_tree(body, &eps);
        match (typed, tree) {
            (Some((typed_req, typed_inst)), Ok((tree_req, tree_inst))) => {
                assert_eq!(typed_req, tree_req, "{}", String::from_utf8_lossy(body));
                assert_eq!(
                    InstanceSpec::from_instance(&typed_inst),
                    InstanceSpec::from_instance(&tree_inst),
                    "{}",
                    String::from_utf8_lossy(body)
                );
                true
            }
            (None, Err(_)) => false,
            (typed, tree) => panic!(
                "typed pass {} a body the tree {}: {:?}",
                if typed.is_some() {
                    "accepts"
                } else {
                    "refuses"
                },
                if tree.is_ok() { "accepts" } else { "refuses" },
                String::from_utf8_lossy(body)
            ),
        }
    }

    /// The same for a bare instance document, against the CLI's tree
    /// path.
    fn assert_same_instance(text: &str) {
        let tree = serde_json::from_str::<InstanceSpec>(text)
            .ok()
            .and_then(|spec| spec.into_instance().ok());
        assert_eq!(
            instance(text).map(|i| InstanceSpec::from_instance(&i)),
            tree.map(|i| InstanceSpec::from_instance(&i)),
            "{text:?}"
        );
    }

    /// Choices for one generated body, drawn in order (and reused
    /// cyclically when a body needs more than were drawn). A hostile
    /// tape also breaks things now and then; a friendly one writes
    /// only bodies both parsers accept.
    struct Tape<'a> {
        picks: &'a [u64],
        at: usize,
        hostile: bool,
    }

    impl<'a> Tape<'a> {
        fn new(picks: &'a [u64]) -> Tape<'a> {
            let mut tape = Tape {
                picks,
                at: 0,
                hostile: false,
            };
            tape.hostile = tape.pick(3) == 0;
            tape
        }

        fn pick(&mut self, n: u64) -> u64 {
            let v = self.picks[self.at % self.picks.len()] % n;
            self.at += 1;
            v
        }

        /// On a hostile tape, true about once in `n` draws.
        fn breaks(&mut self, n: u64) -> bool {
            self.hostile && self.pick(n) == 0
        }

        /// Whitespace between tokens: none (compact, as the service's
        /// own clients write), a space, or a pretty-printer's newline.
        fn ws(&mut self) -> &'static str {
            ["", "", " ", "\n  "][self.pick(4) as usize]
        }

        /// A key, sometimes with an escaped first letter.
        fn key(&mut self, name: &str) -> String {
            match self.pick(6) {
                0 => format!("\"\\u{:04x}{}\"", u32::from(name.as_bytes()[0]), &name[1..]),
                _ => format!("\"{name}\""),
            }
        }

        /// `v` in one of the number forms the shim accepts, or on a
        /// hostile tape now and then one `u64` refuses.
        fn num(&mut self, v: u64) -> String {
            if self.breaks(40) {
                return match self.pick(5) {
                    0 => ["18446744073709551616", "18446744073709551621"]
                        [self.pick(2) as usize]
                        .to_string(),
                    1 => format!("{v}.5"),
                    2 => format!("-{}", v.max(1)),
                    3 => format!("\"{v}\""),
                    _ => "null".to_string(),
                };
            }
            match self.pick(12) {
                0 => format!("{v}.0"),
                1 => format!("00{v}"),
                2 => format!("{v}e0"),
                3 if v == 0 => "-0".to_string(),
                4 if v == u64::MAX => "18446744073709551615".to_string(),
                _ => v.to_string(),
            }
        }

        fn num_below(&mut self, n: u64) -> String {
            let v = self.pick(n);
            self.num(v)
        }

        /// `{k: v, …}` with this tape's whitespace.
        fn object(&mut self, members: &[(String, String)]) -> String {
            let mut out = format!("{{{}", self.ws());
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    out.push_str(self.ws());
                }
                out.push_str(&format!("{k}{}:{}{v}", self.ws(), self.ws()));
            }
            out.push_str(self.ws());
            out.push('}');
            out
        }

        fn array(&mut self, elems: &[String]) -> String {
            let mut out = format!("[{}", self.ws());
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    out.push_str(self.ws());
                }
                out.push_str(e);
            }
            out.push_str(self.ws());
            out.push(']');
            out
        }

        /// A member no reader models, `depth_here` containers deep: now
        /// and then nested to the limit, and on a hostile tape past it.
        fn unknown(&mut self, depth_here: usize) -> (String, String) {
            let value = match self.pick(4) {
                0 => {
                    let past = usize::from(self.breaks(2));
                    let depth = 128 - depth_here + past - self.pick(2) as usize;
                    format!("{}7{}", "[".repeat(depth), "]".repeat(depth))
                }
                1 => "{\"x\": [true, null, \"s\\n\"]}".to_string(),
                _ => self.num_below(9),
            };
            (self.key("extra"), value)
        }

        fn curve(&mut self) -> String {
            let t = 1 + self.pick(400);
            let (tag, inner) = match self.pick(8) {
                0 => ("constant", self.num(t)),
                1 => {
                    let len = 1 + self.pick(6);
                    let mut time = t + 40;
                    let mut times = Vec::new();
                    for _ in 0..len {
                        let time_here = if self.breaks(8) { t + 90 } else { time };
                        times.push(self.num(time_here));
                        time -= 3 * u64::from(self.pick(8) != 0);
                    }
                    ("table", self.array(&times))
                }
                2..=5 => {
                    // Many-step staircases, as the service's workloads
                    // send them.
                    let steps = 1 + self.pick(40);
                    let (mut p, mut time) = (1 + u64::from(self.breaks(12)), 10_000 + t);
                    let mut pairs = Vec::new();
                    for _ in 0..steps {
                        let mut pair = vec![self.num(p), self.num(time)];
                        if self.breaks(30) {
                            pair.truncate(1);
                        } else if self.breaks(30) {
                            pair.push(self.num(1));
                        }
                        pairs.push(self.array(&pair));
                        p += 1 + self.pick(3);
                        time = time.saturating_sub(1 + self.pick(60)).max(1);
                    }
                    ("staircase", self.array(&pairs))
                }
                6 => {
                    let mut fields = vec![(self.key("base"), self.num(t))];
                    if self.pick(3) == 0 {
                        fields.push((self.key("base"), "\"dup\"".to_string()));
                    }
                    if self.pick(3) == 0 {
                        fields.push(self.unknown(5));
                    }
                    ("affine_decreasing", self.object(&fields))
                }
                _ => {
                    let mut fields = vec![
                        (self.key("t1"), self.num(t * 10)),
                        (self.key("c"), self.num_below(4)),
                        (self.key("cap"), self.num_below(8)),
                    ];
                    if self.breaks(4) {
                        fields.remove(self.pick(3) as usize);
                    } else if self.pick(3) == 0 {
                        fields.push(self.unknown(5));
                    }
                    let at = self.pick(3) as usize;
                    fields.rotate_left(at);
                    ("ideal_with_overhead", self.object(&fields))
                }
            };
            let mut members = vec![(self.key(tag), inner)];
            if self.breaks(16) {
                match self.pick(3) {
                    0 => members.clear(),
                    1 => members.push((self.key("constant"), self.num(3))),
                    _ => members[0].0 = self.key("warp"),
                }
            }
            self.object(&members)
        }

        fn instance(&mut self, m: u64) -> String {
            let n = usize::from(!self.breaks(8)) + self.pick(4) as usize;
            let curves: Vec<String> = (0..n).map(|_| self.curve()).collect();
            let mut members = vec![
                (self.key("m"), self.num(m)),
                (self.key("jobs"), self.array(&curves)),
            ];
            match self.pick(6) {
                0 => members.push((self.key("m"), self.num(0))),
                1 => members.push((self.key("jobs"), "[]".to_string())),
                2 => members.push(self.unknown(2)),
                3 => members.swap(0, 1),
                _ if self.breaks(2) => drop(members.remove(self.pick(2) as usize)),
                _ => {}
            }
            self.object(&members)
        }

        /// A request knob: a valid value, or on a hostile tape now and
        /// then one the knob walk refuses.
        fn knob(&mut self, good: &[&str], bad: &[&str]) -> String {
            let pool = if self.breaks(4) { bad } else { good };
            pool[self.pick(pool.len() as u64) as usize].to_string()
        }

        fn body(&mut self) -> String {
            let m = 8 * (1 + self.pick(4)) - u64::from(self.breaks(8)) * 8;
            let mut members = vec![(self.key("instance"), self.instance(m))];
            let mut tenant = false;
            for name in ["algo", "eps", "placements", "topology", "tenant", "quotas"] {
                if self.pick(3) != 0 {
                    continue;
                }
                let value = match name {
                    "algo" => self.knob(&["\"linear\"", "\"quantum\""], &["7"]),
                    "eps" => self.knob(&["\"1/4\"", "\"1/8\""], &["\"3/2\"", "0.25"]),
                    "placements" => self.knob(&["true", "false"], &["\"yes\""]),
                    "topology" => {
                        let spec = format!("\"{}*2\"", m / 2);
                        let flat = format!("\"{m}\"");
                        let policy = self.knob(&["\"packed\"", "\"spread:node\""], &["false"]);
                        if self.pick(2) == 0 {
                            members.push((self.key("policy"), policy));
                        }
                        self.knob(&[&spec, &flat], &["\"2*0\"", "7"])
                    }
                    "tenant" => {
                        tenant = true;
                        self.knob(
                            &["{\"user\": \"alice\"}", "{\"\\u0075ser\": \"bob\"}"],
                            &["7"],
                        )
                    }
                    _ if tenant || self.hostile => self.knob(
                        &["{\"rules\": [{\"max_procs\": 8}]}"],
                        &["{\"window\": 0, \"rules\": []}"],
                    ),
                    _ => continue,
                };
                members.push((self.key(name), value));
            }
            let at = self.pick(members.len() as u64) as usize;
            members.rotate_left(at);
            match self.pick(6) {
                0 => members.push((self.key("instance"), "null".to_string())),
                1 if self.hostile => members.push((self.key("algo"), "7".to_string())),
                2 => members.push(self.unknown(1)),
                _ if self.breaks(2) => {
                    members.insert(0, (self.key("instance"), "{}".to_string()))
                }
                _ => {}
            }
            self.object(&members)
        }
    }

    fn tape() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..1 << 32, 64..256)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn typed_pass_accepts_what_the_tree_accepts(picks in tape()) {
            let body = Tape::new(&picks).body();
            assert_same_acceptance(body.as_bytes());
        }

        #[test]
        fn typed_instance_accepts_what_the_tree_accepts(picks in tape()) {
            assert_same_instance(&Tape::new(&picks).instance(8));
        }

        #[test]
        fn typed_pass_matches_the_tree_on_mutated_bodies(
            picks in tape(),
            edits in prop::collection::vec((0usize..1 << 20, 0u8..=255, 0usize..3), 1..4),
        ) {
            let mut bytes = Tape::new(&picks).body().into_bytes();
            for (at, byte, op) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 => bytes.truncate(at),
                    1 => bytes.insert(at, byte),
                    _ if at < bytes.len() => bytes[at] = byte,
                    _ => {}
                }
            }
            assert_same_acceptance(&bytes);
        }

        #[test]
        fn typed_pass_matches_the_tree_on_arbitrary_bytes(
            bytes in prop::collection::vec(0u8..=255, 0..160),
            soup in prop::collection::vec(0usize..16, 0..160),
        ) {
            assert_same_acceptance(&bytes);
            // Token soup over the grammar's own bytes gets further in.
            let alphabet = b"{}[]\":, 01e.-\\un";
            let soup: Vec<u8> = soup.iter().map(|&i| alphabet[i]).collect();
            assert_same_acceptance(&soup);
        }
    }

    #[test]
    fn most_generated_bodies_are_accepted() {
        // The acceptance property is only as strong as the share of
        // bodies that get all the way through: keep it substantial.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let accepted = (0..400)
            .filter(|_| {
                let picks: Vec<u64> = (0..128)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state >> 32
                    })
                    .collect();
                assert_same_acceptance(Tape::new(&picks).body().as_bytes())
            })
            .count();
        assert!(accepted >= 240, "only {accepted} of 400 bodies accepted");
    }

    #[test]
    fn grammar_corners_agree() {
        let base = r#""instance": {"m": 4, "jobs": [{"staircase": [[1, 90], [2, 60]]}]}"#;
        for body in [
            format!("{{{base}}}"),
            r#"{"\u0069nstance": {"m": 4, "jobs": [{"constant": 5}]}}"#.to_string(),
            format!(r#"{{{base}, "\u0074enant": {{"user": "alice"}}}}"#),
            format!(r#"{{{base}, "instance": {{"m": 0, "jobs": []}}}}"#),
            format!(r#"{{"instance": {{"m": 0, "jobs": []}}, {base}}}"#),
            r#"{"instance": {"m": 4, "m": "x", "jobs": [{"constant": 5}], "jobs": 7}}"#.into(),
            r#"{"instance": {"m": 4.0, "jobs": [{"table": [9, 5.0, 4e0, 004]}]}}"#.into(),
            r#"{"instance": {"m": -0, "jobs": [{"constant": 5}]}}"#.into(),
            r#"{"instance": {"m": 18446744073709551615, "jobs": [{"constant": 5}]}}"#.into(),
            r#"{"instance": {"m": 18446744073709551616, "jobs": [{"constant": 5}]}}"#.into(),
            r#"{"instance": {"m": 99999999999999999999, "jobs": [{"constant": 5}]}}"#.into(),
            r#"{"instance": {"m": .4e1, "jobs": [{"constant": 5}]}}"#.into(),
            r#"{"instance": {"m": 4, "jobs": [{"table": [10, 12, 5]}]}}"#.into(),
            r#"{"instance": {"m": 4, "jobs": [{"table": [10, 4]}]}}"#.into(),
            r#"{"instance": {"m": 4, "jobs": [{"affine_decreasing": {"base": 9, "x": 1}}]}}"#
                .into(),
            r#"{"instance": {"m": 4, "jobs": [{"ideal_with_overhead": {"cap": 2, "c": 1, "t1": 9, "t1": 0}}]}}"#
                .into(),
            r#"{"instance": {"m": 4, "jobs": [{"constant": 5, "constant": 5}]}}"#.into(),
            format!(r#"{{{base}, "x": {}{}}}"#, "[".repeat(127), "]".repeat(127)),
            format!(r#"{{{base}, "x": {}{}}}"#, "[".repeat(128), "]".repeat(128)),
            format!(r#"{{"instance": {}}}"#, "[".repeat(10_000)),
        ] {
            assert_same_acceptance(body.as_bytes());
        }
    }
}
