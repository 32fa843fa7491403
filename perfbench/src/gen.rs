//! Seeded workload generation over `block_chain(4,4)`.
//!
//! Every tuple is a *fragment* `(entity, relation)`: relation `R`'s two
//! attributes carry the values `<attr>v<entity>`. Fragments of one
//! entity share values, so the chase really reassembles entities;
//! distinct entities share nothing, so every fresh fragment is accepted.
//! The seed shuffles the fragment order inside each segment (snapshot,
//! WAL tail, journal, timed stream) and picks the reject and delete
//! targets; sizes never depend on it.
//!
//! [`Live`] mirrors the server's state as one bitmask of live relations
//! per entity, which is enough to predict every verdict and the exact
//! answer size of both probe queries.

use independence_reducible::relation::rng::SplitMix64;
use independence_reducible::relation::DatabaseScheme;
use independence_reducible::workload::generators::block_chain_scheme;

/// Fragments per complete entity: the 19 relations of `block_chain(4,4)`.
pub const RELS: usize = 19;

/// The two probe queries: `[X0_0 X1_0]` crosses one bridge,
/// `[X0_0 X3_3]` spans all four blocks.
pub const BRIDGE_ATTRS: [&str; 2] = ["X0_0", "X1_0"];
pub const CHAIN_ATTRS: [&str; 2] = ["X0_0", "X3_3"];

/// The benchmark scheme plus what the generator needs to know about it.
pub struct Scheme {
    pub db: DatabaseScheme,
    names: Vec<String>,
    /// Per relation: (key attribute, other attribute) names.
    attrs: Vec<(String, String)>,
    bit: std::collections::HashMap<String, u32>,
}

impl Scheme {
    pub fn new() -> Scheme {
        let db = block_chain_scheme(4, 4);
        assert_eq!(db.len(), RELS, "block_chain(4,4) has 19 relations");
        let u = db.universe();
        let mut names = Vec::new();
        let mut attrs = Vec::new();
        let mut bit = std::collections::HashMap::new();
        for i in 0..db.len() {
            let s = db.scheme(i);
            let key = s.keys()[0].iter().next().expect("singleton key");
            let other = s
                .attrs()
                .iter()
                .find(|&a| a != key)
                .expect("binary relation");
            names.push(s.name().to_string());
            attrs.push((u.name(key).to_string(), u.name(other).to_string()));
            bit.insert(s.name().to_string(), 1u32 << i);
        }
        Scheme {
            db,
            names,
            attrs,
            bit,
        }
    }

    fn mask(&self, names: &[&str]) -> u32 {
        names.iter().map(|n| self.bit[*n]).fold(0, |a, b| a | b)
    }

    /// The tuple-line of fragment `(e, rel)`, without a verb.
    pub fn fragment(&self, e: u32, rel: u8) -> String {
        let (k, o) = &self.attrs[rel as usize];
        format!("{}: {k}={k}v{e} {o}={o}v{e}", self.names[rel as usize])
    }

    /// A fragment of relation `rel` that keeps entity `e`'s key value but
    /// carries the never-used value `Zv<z>`: a key violation whenever
    /// `(e, rel)` is live.
    pub fn violation(&self, e: u32, rel: u8, z: u32) -> String {
        let (k, o) = &self.attrs[rel as usize];
        format!("{}: {k}={k}v{e} {o}=Zv{z}", self.names[rel as usize])
    }
}

/// The server state as the generator sees it.
pub struct Live {
    masks: Vec<u32>,
    /// Per relation, the entities whose fragment of it is live, for
    /// uniform target picks.
    list: Vec<Vec<u32>>,
    /// Position of entity `e` in `list[rel]` at `e * RELS + rel`,
    /// `u32::MAX` when not live.
    pos: Vec<u32>,
    tuples: usize,
    bridge_mask: u32,
    chain_bridges: u32,
    chain_short: u32,
    chain_long: u32,
    pub bridge: usize,
    pub chain: usize,
}

impl Live {
    pub fn new(s: &Scheme, entities: usize) -> Live {
        Live {
            masks: vec![0; entities],
            list: vec![Vec::new(); RELS],
            pos: vec![u32::MAX; entities * RELS],
            tuples: 0,
            bridge_mask: s.mask(&["B0"]),
            chain_bridges: s.mask(&["B0", "B1", "B2"]),
            chain_short: s.mask(&["R3_3"]),
            chain_long: s.mask(&["R3_0", "R3_1", "R3_2"]),
            bridge: 0,
            chain: 0,
        }
    }

    pub fn tuples(&self) -> usize {
        self.tuples
    }

    /// `[X0_0 X1_0]` holds an entity iff its bridge `B0` is live.
    fn in_bridge(&self, m: u32) -> bool {
        m & self.bridge_mask != 0
    }

    /// `[X0_0 X3_3]` needs all three bridges (X0_0 → X1_0 → X2_0 → X3_0)
    /// and a path X3_0 → X3_3 inside block 3: `R3_3` directly, or
    /// `R3_0`, `R3_1`, `R3_2` in turn.
    fn in_chain(&self, m: u32) -> bool {
        m & self.chain_bridges == self.chain_bridges
            && (m & self.chain_short != 0 || m & self.chain_long == self.chain_long)
    }

    fn set(&mut self, e: u32, m: u32) {
        let old = self.masks[e as usize];
        self.bridge = self.bridge + self.in_bridge(m) as usize - self.in_bridge(old) as usize;
        self.chain = self.chain + self.in_chain(m) as usize - self.in_chain(old) as usize;
        self.masks[e as usize] = m;
    }

    pub fn insert(&mut self, e: u32, rel: u8) {
        let slot = e as usize * RELS + rel as usize;
        assert_eq!(self.pos[slot], u32::MAX, "fragment inserted twice");
        let list = &mut self.list[rel as usize];
        self.pos[slot] = list.len() as u32;
        list.push(e);
        self.tuples += 1;
        self.set(e, self.masks[e as usize] | 1 << rel);
    }

    pub fn delete(&mut self, e: u32, rel: u8) {
        let slot = e as usize * RELS + rel as usize;
        let p = std::mem::replace(&mut self.pos[slot], u32::MAX) as usize;
        let list = &mut self.list[rel as usize];
        list.swap_remove(p);
        if let Some(&moved) = list.get(p) {
            self.pos[moved as usize * RELS + rel as usize] = p as u32;
        }
        self.tuples -= 1;
        self.set(e, self.masks[e as usize] & !(1 << rel));
    }

    /// A uniformly chosen entity whose fragment of `rel` is live.
    pub fn pick(&self, rel: u8, rng: &mut SplitMix64) -> u32 {
        let list = &self.list[rel as usize];
        list[rng.gen_range(0, list.len())]
    }
}

/// All fragments of entities `first..first + count`, shuffled by `rng`
/// and cut to `take`.
pub fn segment(first: u32, count: u32, take: usize, rng: &mut SplitMix64) -> Vec<(u32, u8)> {
    let mut out: Vec<(u32, u8)> = (first..first + count)
        .flat_map(|e| (0..RELS as u8).map(move |r| (e, r)))
        .collect();
    rng.shuffle(&mut out);
    assert!(take <= out.len(), "segment too small");
    out.truncate(take);
    out
}

/// Entities needed to supply `tuples` fragments.
pub fn entities_for(tuples: usize) -> u32 {
    tuples.div_ceil(RELS) as u32
}

/// What a client op must be answered with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Accepted,
    Rejected,
    Removed,
    /// A query answer of exactly this many tuples.
    Tuples(usize),
}

/// The op kinds the latency metrics are split by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Reject,
    Delete,
    /// A query; `true` for the four-block `[X0_0 X3_3]` probe.
    Query {
        chain: bool,
    },
}

/// One pre-rendered client op of a per-op stream.
pub struct Op {
    pub kind: Kind,
    /// The full stdin line, verb included, without the newline.
    pub line: String,
    pub expect: Expect,
    /// Live tuples once this op has been applied.
    pub live_after: usize,
}

/// Sizes of the three workloads (fixed; the seed only reorders).
pub const INGEST_BASE: usize = 100_000;
pub const INGEST_GROUP: usize = 1000;
pub const INGEST_GROUPS: usize = 200;
pub const MIXED_BASE: usize = 50_000;
pub const MIXED_TAIL: usize = 10_000;
pub const MIXED_OPS: usize = 60_000;
pub const REPL_JOURNAL: usize = 20_000;
pub const REPL_INSERTS: usize = 100;

/// Writes between two query bursts in `mixed`, and the burst length.
pub const MIXED_WRITE_RUN: usize = 27;
pub const MIXED_BURST: usize = 3;

/// `ingest`: a complete-entity snapshot plus framed groups of fresh
/// fragments.
pub struct Ingest {
    pub snapshot: Vec<(u32, u8)>,
    pub groups: Vec<Vec<(u32, u8)>>,
}

pub fn ingest(seed: u64) -> Ingest {
    let mut rng = SplitMix64::new(seed ^ 0x001A_6E57);
    let base_e = entities_for(INGEST_BASE);
    let snapshot = segment(0, base_e, base_e as usize * RELS, &mut rng);
    let n = INGEST_GROUP * INGEST_GROUPS;
    let stream = segment(base_e, entities_for(n), n, &mut rng);
    Ingest {
        snapshot,
        groups: stream.chunks(INGEST_GROUP).map(<[_]>::to_vec).collect(),
    }
}

/// `mixed`: snapshot + WAL tail + a per-op stream of inserts, key
/// violations, deletes and query bursts.
pub struct Mixed {
    pub snapshot: Vec<(u32, u8)>,
    pub tail: Vec<(u32, u8)>,
    pub ops: Vec<Op>,
}

pub fn mixed(s: &Scheme, seed: u64) -> Mixed {
    let mut rng = SplitMix64::new(seed ^ 0x0031_4159);
    let base_e = entities_for(MIXED_BASE);
    let tail_e = entities_for(MIXED_TAIL);
    let fresh_e = entities_for(MIXED_OPS);
    let snapshot = segment(0, base_e, base_e as usize * RELS, &mut rng);
    let tail = segment(base_e, tail_e, MIXED_TAIL, &mut rng);
    let mut fresh = segment(base_e + tail_e, fresh_e, MIXED_OPS, &mut rng).into_iter();
    let mut live = Live::new(s, (base_e + tail_e + fresh_e) as usize);
    for &(e, r) in snapshot.iter().chain(&tail) {
        live.insert(e, r);
    }
    let mut ops = Vec::with_capacity(MIXED_OPS);
    let (mut bursts, mut z, mut deletes) = (0usize, 0u32, 0usize);
    while ops.len() < MIXED_OPS {
        // Key violations and deletes end a run of writes, right before
        // the burst: 3 of each per 5 bursts (150 ops) is 2% each. Any
        // op that keeps the server busy for tens of ms slows the insert
        // after it; grouping them with the bursts keeps those slow
        // inserts to one per burst (3.9% of inserts), so the write
        // percentiles printed for `mixed` stay inside the fast mode.
        let heavy: &[Kind] = match bursts % 5 {
            0 | 2 => &[Kind::Reject],
            1 | 3 => &[Kind::Delete],
            _ => &[Kind::Reject, Kind::Delete],
        };
        let kinds = std::iter::repeat_n(Kind::Insert, MIXED_WRITE_RUN - heavy.len())
            .chain(heavy.iter().copied());
        for kind in kinds {
            let (line, expect) = match kind {
                // Targets cycle through the relations, so every run has
                // the same mix of blocks to rebuild; the seed picks the
                // entity.
                Kind::Reject => {
                    let r = (z as usize % RELS) as u8;
                    let e = live.pick(r, &mut rng);
                    z += 1;
                    (format!("insert {}", s.violation(e, r, z)), Expect::Rejected)
                }
                Kind::Delete => {
                    let r = ((deletes + RELS / 2) % RELS) as u8;
                    let e = live.pick(r, &mut rng);
                    deletes += 1;
                    live.delete(e, r);
                    (format!("delete {}", s.fragment(e, r)), Expect::Removed)
                }
                _ => {
                    let (e, r) = fresh.next().expect("fresh fragments cover the stream");
                    live.insert(e, r);
                    (format!("insert {}", s.fragment(e, r)), Expect::Accepted)
                }
            };
            ops.push(Op {
                kind,
                line,
                expect,
                live_after: live.tuples(),
            });
        }
        // Each burst is chain, bridge, chain: the first read re-publishes
        // the snapshot and the next two reuse it. That makes three modes
        // of one third each (bridge hits, chain hits, chain re-publishes)
        // whose costs stay apart, so p50 and p90 each fall mid-mode. A
        // re-publishing bridge read would cost about what a chain hit
        // does, and p50 would sit on the seam between them.
        for q in 0..MIXED_BURST {
            let chain = q % 2 == 0;
            let attrs = if chain { CHAIN_ATTRS } else { BRIDGE_ATTRS };
            ops.push(Op {
                kind: Kind::Query { chain },
                line: format!("query {}", attrs.join(" ")),
                expect: Expect::Tuples(if chain { live.chain } else { live.bridge }),
                live_after: live.tuples(),
            });
        }
        bursts += 1;
    }
    Mixed {
        snapshot,
        tail,
        ops,
    }
}

/// `replicate`: peer A's prepared origin-0 journal plus the client
/// inserts it takes before peer B bootstraps.
pub struct Replicate {
    pub journal: Vec<(u32, u8)>,
    pub inserts: Vec<(u32, u8)>,
}

pub fn replicate(seed: u64) -> Replicate {
    let mut rng = SplitMix64::new(seed ^ 0x005E_EDAB);
    let base_e = entities_for(REPL_JOURNAL);
    let journal = segment(0, base_e, REPL_JOURNAL, &mut rng);
    let inserts = segment(base_e, entities_for(REPL_INSERTS), REPL_INSERTS, &mut rng);
    Replicate { journal, inserts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_mix_and_determinism() {
        let s = Scheme::new();
        let a = mixed(&s, 7);
        let b = mixed(&s, 7);
        let c = mixed(&s, 8);
        assert!(a.ops.iter().zip(&b.ops).all(|(x, y)| x.line == y.line));
        assert!(a.ops.iter().zip(&c.ops).any(|(x, y)| x.line != y.line));
        let share = |k: fn(&Kind) -> bool| {
            a.ops.iter().filter(|o| k(&o.kind)).count() as f64 / a.ops.len() as f64
        };
        assert!((share(|k| *k == Kind::Insert) - 0.86).abs() < 0.005);
        assert!((share(|k| *k == Kind::Reject) - 0.02).abs() < 0.005);
        assert!((share(|k| *k == Kind::Delete) - 0.02).abs() < 0.005);
        assert!((share(|k| matches!(k, Kind::Query { .. })) - 0.10).abs() < 0.005);
    }

    #[test]
    fn live_counts_follow_masks() {
        let s = Scheme::new();
        let mut live = Live::new(&s, 2);
        for r in 0..RELS as u8 {
            live.insert(0, r);
        }
        assert_eq!((live.bridge, live.chain), (1, 1));
        let idx = |n: &str| (0..RELS).find(|&i| s.db.scheme(i).name() == n).unwrap() as u8;
        live.delete(0, idx("R3_3"));
        assert_eq!(live.chain, 1, "R3_0..R3_2 still reach X3_3");
        live.delete(0, idx("R3_1"));
        assert_eq!(live.chain, 0);
        live.delete(0, idx("B0"));
        assert_eq!((live.bridge, live.tuples()), (0, 16));
    }
}
