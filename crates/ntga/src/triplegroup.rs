//! The triplegroup data model of the Nested TripleGroup Algebra (NTGA).
//!
//! A [`TripleGroup`] is a set of triples sharing a subject; an [`AnnTg`]
//! ("annotated triplegroup") is the join product of triplegroups matching
//! the star subpatterns of a (composite) graph pattern, each component
//! tagged with its star index.
//!
//! [`TgRef`] is the borrowed counterpart of a triplegroup: a view over an
//! encoded record that parses the header eagerly (no owned `Vec`) and
//! iterates pairs lazily over the raw bytes. Because the record codec is
//! canonical (minimal-LEB128 varints, pairs stored sorted), a view's raw
//! byte span *is* its re-encoding — operators can copy component spans
//! instead of decode→encode round trips.
//!
//! [`StarDir`] is the borrowed counterpart of an annotated triplegroup: one
//! validating walk records where each star's component sits, so every
//! later lookup, α test and merge is an offset lookup handing out
//! [`TgRef`]s ([`Stars`]) instead of another walk from byte 0.

use rapida_mapred::codec::{read_varint, write_varint};
use std::collections::BTreeSet;

/// A subject triplegroup: `subject` plus `(property, object)` id pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TripleGroup {
    /// Subject term id (raw).
    pub subject: u64,
    /// `(property, object)` pairs, in sorted order.
    pub triples: Vec<(u64, u64)>,
}

impl TripleGroup {
    /// Construct, normalizing pair order.
    pub fn new(subject: u64, mut triples: Vec<(u64, u64)>) -> Self {
        triples.sort_unstable();
        TripleGroup { subject, triples }
    }

    /// `props(tg)` — the distinct property set.
    pub fn props(&self) -> BTreeSet<u64> {
        self.triples.iter().map(|(p, _)| *p).collect()
    }

    /// Does the group contain any triple with property `p`?
    pub fn has_prop(&self, p: u64) -> bool {
        self.triples.iter().any(|(q, _)| *q == p)
    }

    /// Does the group contain the exact triple `(p, o)`?
    pub fn has_triple(&self, p: u64, o: u64) -> bool {
        self.triples.binary_search(&(p, o)).is_ok()
    }

    /// All objects of property `p` (multi-valued properties yield several).
    pub fn objects_of(&self, p: u64) -> impl Iterator<Item = u64> + '_ {
        self.triples
            .iter()
            .filter(move |(q, _)| *q == p)
            .map(|(_, o)| *o)
    }

    /// Encode as the canonical DFS record (see `rapida-storage`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        rapida_storage::encode_tg(self.subject, &self.triples, out);
    }

    /// Decode from the canonical DFS record.
    pub fn decode(rec: &[u8]) -> Option<TripleGroup> {
        let (subject, triples) = rapida_storage::decode_tg(rec)?;
        Some(TripleGroup { subject, triples })
    }
}

/// An annotated (possibly joined) triplegroup: one component triplegroup per
/// matched star subpattern, tagged with the star index within the
/// (composite) graph pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnTg {
    /// `(star index, component)` pairs, sorted by star index.
    pub groups: Vec<(u8, TripleGroup)>,
}

impl AnnTg {
    /// A single-star annotated triplegroup.
    pub fn single(star: u8, tg: TripleGroup) -> Self {
        AnnTg {
            groups: vec![(star, tg)],
        }
    }

    /// The component for star `star`, if present.
    pub fn star(&self, star: u8) -> Option<&TripleGroup> {
        self.groups
            .iter()
            .find(|(s, _)| *s == star)
            .map(|(_, tg)| tg)
    }

    /// Star indexes present in this group, in sorted order. Returned as an
    /// iterator — this sits on the join hot path, where an owned `Vec<u8>`
    /// per call was pure allocation tax.
    pub fn stars(&self) -> impl Iterator<Item = u8> + '_ {
        self.groups.iter().map(|(s, _)| *s)
    }

    /// Merge two annotated triplegroups (join product). Star sets must be
    /// disjoint; result is sorted by star index.
    pub fn merge(&self, other: &AnnTg) -> AnnTg {
        let mut groups = self.groups.clone();
        groups.extend(other.groups.iter().cloned());
        // sort_unstable is safe on this join-product hot path: the star
        // sets are disjoint, so star indices are unique and stability
        // cannot affect the result.
        groups.sort_unstable_by_key(|(s, _)| *s);
        AnnTg { groups }
    }

    /// Encode: `n, (star, tg) * n`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.groups.len() as u64);
        for (star, tg) in &self.groups {
            write_varint(out, u64::from(*star));
            tg.encode(out);
        }
    }

    /// Encoded byte size helper (allocates; use sparingly).
    pub fn encoded(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decode from [`AnnTg::encode`] output.
    pub fn decode(mut rec: &[u8]) -> Option<AnnTg> {
        let n = read_varint(&mut rec)? as usize;
        let mut groups = Vec::with_capacity(n.min(16));
        for _ in 0..n {
            let star = read_star(&mut rec)?;
            let subject = read_varint(&mut rec)?;
            let cnt = read_varint(&mut rec)? as usize;
            let mut triples = Vec::with_capacity(cnt.min(1 << 16));
            for _ in 0..cnt {
                let p = read_varint(&mut rec)?;
                let o = read_varint(&mut rec)?;
                triples.push((p, o));
            }
            groups.push((star, TripleGroup { subject, triples }));
        }
        Some(AnnTg { groups })
    }
}

/// A borrowed triplegroup view over a canonical record
/// (`subject, n, (p, o) * n` varints). Parsing scans the pairs once to
/// validate and find the span; all accessors then iterate the raw bytes.
#[derive(Debug, Clone, Copy)]
pub struct TgRef<'a> {
    subject: u64,
    len: usize,
    /// The `(p, o)` varint region.
    pairs: &'a [u8],
    /// The full canonical encoding (header + pairs).
    raw: &'a [u8],
}

impl<'a> TgRef<'a> {
    /// Parse a view from the front of `rec`, advancing past the group.
    /// Used for nested parsing inside annotated records.
    pub fn parse_prefix(rec: &mut &'a [u8]) -> Option<TgRef<'a>> {
        let start = *rec;
        let subject = read_varint(rec)?;
        let len = read_varint(rec)? as usize;
        let body = *rec;
        for _ in 0..len {
            read_varint(rec)?;
            read_varint(rec)?;
        }
        let pairs_len = body.len() - rec.len();
        let raw_len = start.len() - rec.len();
        Some(TgRef {
            subject,
            len,
            pairs: &body[..pairs_len],
            raw: &start[..raw_len],
        })
    }

    /// Parse a whole record. Trailing bytes are ignored, matching
    /// [`TripleGroup::decode`].
    pub fn parse(mut rec: &'a [u8]) -> Option<TgRef<'a>> {
        Self::parse_prefix(&mut rec)
    }

    /// Parse a span known to frame exactly one canonical record (a
    /// `RecordIter` record, a shuffle value, a just-encoded buffer): reads
    /// the header and trusts the framing for the pair region instead of
    /// walking it — the hot-path constructor. On corrupt input the
    /// accessors yield whatever the bytes decode to (always bounded by the
    /// span) instead of failing the parse; use [`Self::parse`] when the
    /// span may carry trailing bytes or come from outside the engine.
    pub fn parse_framed(rec: &'a [u8]) -> Option<TgRef<'a>> {
        let mut cur = rec;
        let subject = read_varint(&mut cur)?;
        let len = read_varint(&mut cur)? as usize;
        Some(TgRef {
            subject,
            len,
            pairs: cur,
            raw: rec,
        })
    }

    /// Subject term id.
    pub fn subject(&self) -> u64 {
        self.subject
    }

    /// Number of `(property, object)` pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the group empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The full canonical encoding of this group (re-encoding = copying
    /// this span).
    pub fn raw_bytes(&self) -> &'a [u8] {
        self.raw
    }

    /// The raw `(p, o)` varint region, for walks that need byte spans.
    pub(crate) fn pair_bytes(&self) -> &'a [u8] {
        self.pairs
    }

    /// Iterate the `(property, object)` pairs in stored (sorted) order.
    pub fn pairs(&self) -> PairIter<'a> {
        PairIter { rest: self.pairs }
    }

    /// Does the group contain any triple with property `p`?
    pub fn has_prop(&self, p: u64) -> bool {
        self.pairs().any(|(q, _)| q == p)
    }

    /// Does the group contain the exact triple `(p, o)`?
    pub fn has_triple(&self, p: u64, o: u64) -> bool {
        self.pairs().any(|(q, v)| q == p && v == o)
    }

    /// All objects of property `p`, in stored order.
    pub fn objects_of(&self, p: u64) -> impl Iterator<Item = u64> + 'a {
        self.pairs().filter(move |(q, _)| *q == p).map(|(_, o)| o)
    }

    /// Append the canonical encoding to `out` (byte-identical to
    /// [`TripleGroup::encode`] of the decoded group).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.raw);
    }

    /// Materialize an owned [`TripleGroup`].
    pub fn to_owned(&self) -> TripleGroup {
        TripleGroup {
            subject: self.subject,
            triples: self.pairs().collect(),
        }
    }
}

/// Iterator over the raw pair bytes of a [`TgRef`].
#[derive(Debug, Clone, Copy)]
pub struct PairIter<'a> {
    rest: &'a [u8],
}

impl Iterator for PairIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.rest.is_empty() {
            return None;
        }
        // The span was validated at parse time; a decode failure here can
        // only mean corruption, which ends the iteration.
        let p = read_varint(&mut self.rest)?;
        let o = read_varint(&mut self.rest)?;
        Some((p, o))
    }
}

/// Read a star tag. Star ids are `u8`: a wider tag is a damaged record, not
/// star `tag mod 256`.
fn read_star(rec: &mut &[u8]) -> Option<u8> {
    u8::try_from(read_varint(rec)?).ok()
}

/// Where one star's component sits in an annotated record (byte offsets).
#[derive(Debug, Clone, Copy)]
struct DirEnt {
    star: u8,
    subject: u64,
    len: usize,
    /// Offset of the group's canonical encoding (its subject varint).
    start: usize,
    /// Offset of the group's `(p, o)` region.
    pairs: usize,
    /// Offset one past the group.
    end: usize,
}

/// The **star directory**: task-owned scratch holding, for each annotated
/// record pushed into it, one entry per component — found by a single
/// validating walk. Entries are offsets, not borrows, so the directory
/// outlives any one record and is reused (cleared, never reallocated) by
/// the operator that owns it; [`Stars`] pairs a span of entries with the
/// record they index. Any `u8` star id is allowed; lookup is a scan of the
/// record's few entries.
#[derive(Debug, Default)]
pub struct StarDir {
    ents: Vec<DirEnt>,
}

impl StarDir {
    /// Forget every record (capacity is kept).
    pub fn clear(&mut self) {
        self.ents.clear();
    }

    /// Walk `rec` (`n, (star, tg) * n`) once and append its entries,
    /// returning their span for [`Self::stars`]. `None`, with nothing
    /// appended, exactly when [`AnnTg::decode`] would fail: a truncated
    /// record or a star tag above 255. Trailing bytes are ignored.
    pub fn push(&mut self, rec: &[u8]) -> Option<(usize, usize)> {
        let first = self.ents.len();
        let walked = self.walk(rec);
        if walked.is_none() {
            self.ents.truncate(first);
        }
        walked.map(|()| (first, self.ents.len()))
    }

    fn walk(&mut self, rec: &[u8]) -> Option<()> {
        let mut cur = rec;
        let n = read_varint(&mut cur)?;
        for _ in 0..n {
            let star = read_star(&mut cur)?;
            let start = rec.len() - cur.len();
            let tg = TgRef::parse_prefix(&mut cur)?;
            let end = rec.len() - cur.len();
            self.ents.push(DirEnt {
                star,
                subject: tg.subject,
                len: tg.len,
                start,
                pairs: end - tg.pairs.len(),
                end,
            });
        }
        Some(())
    }

    /// The entries of `span` (from [`Self::push`]) over the record they
    /// were pushed from.
    pub fn stars<'d, 'a>(&'d self, span: (usize, usize), rec: &'a [u8]) -> Stars<'d, 'a> {
        Stars {
            ents: &self.ents[span.0..span.1],
            rec,
        }
    }

    /// The directory of the single record `rec`: clear, push, view.
    pub fn fill<'d, 'a>(&'d mut self, rec: &'a [u8]) -> Option<Stars<'d, 'a>> {
        self.clear();
        let span = self.push(rec)?;
        Some(self.stars(span, rec))
    }

    /// The one-entry directory of `AnnTg::single(star, tg)`, built from
    /// the group view itself — nothing is walked.
    pub fn single<'d, 'a>(&'d mut self, star: u8, tg: &TgRef<'a>) -> Stars<'d, 'a> {
        self.clear();
        self.ents.push(DirEnt {
            star,
            subject: tg.subject,
            len: tg.len,
            start: 0,
            pairs: tg.raw.len() - tg.pairs.len(),
            end: tg.raw.len(),
        });
        self.stars((0, 1), tg.raw)
    }
}

/// One record's slice of a [`StarDir`], with the record: star lookups
/// without re-walking the record.
#[derive(Debug, Clone, Copy)]
pub struct Stars<'d, 'a> {
    ents: &'d [DirEnt],
    rec: &'a [u8],
}

impl<'a> Stars<'_, 'a> {
    fn view(&self, e: &DirEnt) -> Option<TgRef<'a>> {
        // Checked slicing: a span paired with the wrong record yields
        // `None`, never a panic.
        Some(TgRef {
            subject: e.subject,
            len: e.len,
            pairs: self.rec.get(e.pairs..e.end)?,
            raw: self.rec.get(e.start..e.end)?,
        })
    }

    /// Number of component groups.
    pub fn len(&self) -> usize {
        self.ents.len()
    }

    /// Is the record empty?
    pub fn is_empty(&self) -> bool {
        self.ents.is_empty()
    }

    /// The component view for star `star` (the first, as
    /// [`AnnTg::star`]), if present.
    pub fn get(&self, star: u8) -> Option<TgRef<'a>> {
        self.view(self.ents.iter().find(|e| e.star == star)?)
    }

    /// Encode the join product of two records directly into `out` by
    /// interleaving their components' raw spans by star index. Star sets
    /// must be disjoint (the α-join contract). Byte-identical to the owned
    /// `l.merge(&r)` re-encoded.
    pub fn merge_into(&self, other: &Stars<'_, '_>, out: &mut Vec<u8>) {
        write_varint(out, (self.len() + other.len()) as u64);
        let (mut l, mut r) = (self.ents, other.ents);
        loop {
            let (side, e) = match (l.split_first(), r.split_first()) {
                (Some((le, rest)), Some((re, _))) if le.star <= re.star => {
                    l = rest;
                    (self, le)
                }
                (_, Some((re, rest))) => {
                    r = rest;
                    (other, re)
                }
                (Some((le, rest)), None) => {
                    l = rest;
                    (self, le)
                }
                (None, None) => return,
            };
            write_varint(out, u64::from(e.star));
            out.extend_from_slice(side.rec.get(e.start..e.end).unwrap_or_default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tg(s: u64, pairs: &[(u64, u64)]) -> TripleGroup {
        TripleGroup::new(s, pairs.to_vec())
    }

    #[test]
    fn props_and_lookup() {
        let g = tg(1, &[(10, 100), (11, 101), (10, 102)]);
        assert_eq!(g.props().len(), 2);
        assert!(g.has_prop(10));
        assert!(!g.has_prop(12));
        assert!(g.has_triple(10, 102));
        assert!(!g.has_triple(10, 103));
        let objs: Vec<u64> = g.objects_of(10).collect();
        assert_eq!(objs, vec![100, 102]);
    }

    #[test]
    fn tg_codec_roundtrip() {
        let g = tg(42, &[(1, 2), (3, 4)]);
        let mut buf = Vec::new();
        g.encode(&mut buf);
        assert_eq!(TripleGroup::decode(&buf), Some(g));
    }

    #[test]
    fn anntg_merge_sorts_by_star() {
        let a = AnnTg::single(2, tg(1, &[(5, 6)]));
        let b = AnnTg::single(0, tg(2, &[(7, 8)]));
        let m = a.merge(&b);
        assert_eq!(m.stars().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(m.star(0).unwrap().subject, 2);
        assert_eq!(m.star(2).unwrap().subject, 1);
        assert!(m.star(1).is_none());
    }

    #[test]
    fn anntg_codec_roundtrip() {
        let m = AnnTg {
            groups: vec![
                (0, tg(1, &[(10, 100), (11, 110)])),
                (1, tg(2, &[(20, 200)])),
                (2, tg(3, &[])),
            ],
        };
        assert_eq!(AnnTg::decode(&m.encoded()), Some(m));
    }

    #[test]
    fn tgref_agrees_with_owned_decode() {
        let g = tg(300, &[(1, 2), (1, 9), (3, 4), (7, 0)]);
        let mut buf = Vec::new();
        g.encode(&mut buf);
        let v = TgRef::parse(&buf).unwrap();
        assert_eq!(v.subject(), g.subject);
        assert_eq!(v.len(), g.triples.len());
        assert_eq!(v.pairs().collect::<Vec<_>>(), g.triples);
        assert!(v.has_prop(3) && !v.has_prop(4));
        assert!(v.has_triple(1, 9) && !v.has_triple(1, 3));
        assert_eq!(v.objects_of(1).collect::<Vec<_>>(), vec![2, 9]);
        assert_eq!(v.to_owned(), g);
        // Raw span is the canonical re-encoding.
        let mut re = Vec::new();
        v.encode_into(&mut re);
        assert_eq!(re, buf);
    }

    #[test]
    fn tgref_ignores_trailing_bytes() {
        let g = tg(5, &[(6, 7)]);
        let mut buf = Vec::new();
        g.encode(&mut buf);
        let clean_len = buf.len();
        buf.extend_from_slice(&[0xFF, 0xFF]);
        let v = TgRef::parse(&buf).unwrap();
        assert_eq!(v.raw_bytes().len(), clean_len);
        assert_eq!(v.to_owned(), g);
        // Truncated records fail to parse.
        assert!(TgRef::parse(&buf[..clean_len - 1]).is_none());
    }

    #[test]
    fn directory_merge_matches_owned_merge() {
        let a = AnnTg {
            groups: vec![(0, tg(1, &[(5, 6)])), (3, tg(4, &[(9, 9)]))],
        };
        let b = AnnTg {
            groups: vec![(1, tg(2, &[(7, 8), (7, 9)])), (200, tg(3, &[]))],
        };
        let (ab, bb) = (a.encoded(), b.encoded());
        let (mut da, mut db) = (StarDir::default(), StarDir::default());
        let (va, vb) = (da.fill(&ab).unwrap(), db.fill(&bb).unwrap());
        let mut out = Vec::new();
        va.merge_into(&vb, &mut out);
        assert_eq!(out, a.merge(&b).encoded());
        out.clear();
        vb.merge_into(&va, &mut out);
        assert_eq!(out, b.merge(&a).encoded());
    }

    #[test]
    fn directory_lookup_agrees_with_owned() {
        let m = AnnTg {
            groups: vec![
                (0, tg(1, &[(10, 100), (11, 110)])),
                (7, tg(2, &[(20, 200)])),
                (255, tg(3, &[])),
            ],
        };
        let buf = m.encoded();
        let mut dir = StarDir::default();
        let stars = dir.fill(&buf).unwrap();
        assert_eq!(stars.len(), 3);
        for (s, g) in &m.groups {
            assert_eq!(&stars.get(*s).unwrap().to_owned(), g);
        }
        assert!(stars.get(1).is_none());
        // A truncated record is corrupt and leaves nothing behind.
        assert!(dir.fill(&buf[..buf.len() - 1]).is_none());
        assert_eq!(dir.push(&buf), Some((0, 3)));
        // The single-group directory indexes the group view itself.
        let g = tg(9, &[(1, 2), (3, 4)]);
        let mut rec = Vec::new();
        g.encode(&mut rec);
        let v = TgRef::parse_framed(&rec).unwrap();
        let one = dir.single(200, &v);
        assert_eq!(one.get(200).unwrap().to_owned(), g);
        assert!(one.get(0).is_none());
    }

    /// A star tag is a `u8`; 256 must not alias star 0 in either decoder.
    #[test]
    fn star_tag_above_255_is_corrupt() {
        let g = tg(1, &[(5, 6)]);
        let mut rec = Vec::new();
        write_varint(&mut rec, 1);
        write_varint(&mut rec, 256);
        g.encode(&mut rec);
        assert_eq!(AnnTg::decode(&rec), None);
        assert!(StarDir::default().fill(&rec).is_none());
        // 255 is a star like any other.
        let ok = AnnTg::single(255, g).encoded();
        assert!(AnnTg::decode(&ok).is_some());
        assert!(StarDir::default().fill(&ok).unwrap().get(255).is_some());
    }
}
