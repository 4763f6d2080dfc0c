//! Property tests for the borrowed triplegroup views ([`TgRef`], and the
//! star directory [`StarDir`] over annotated records): because the codecs
//! are canonical (one byte string per logical group), a view parsed from an
//! encoded record must re-encode byte-identically, agree field-by-field
//! with the owned decode, and merge exactly like the owned join product.

use rapida_ntga::{
    any_alpha_partial, any_alpha_partial_merged, AlphaCond, AlphaTerm, AnnTg, JoinKey,
    StarDir, TgRef, TripleGroup,
};
use rapida_testkit::prelude::*;

fn arb_tg() -> impl Strategy<Value = TripleGroup> {
    (
        any::<u32>(),
        proptest::collection::vec((1u64..8, 0u64..12), 0..10),
    )
        .prop_map(|(s, pairs)| TripleGroup::new(u64::from(s), pairs))
}

/// Annotated triplegroups with sorted, unique star indices (the codec
/// invariant maintained by `AnnTg::single` / `merge`).
fn arb_ann() -> impl Strategy<Value = AnnTg> {
    proptest::collection::vec((0u8..5, arb_tg()), 1..4).prop_map(|mut groups| {
        groups.sort_by_key(|(s, _)| *s);
        groups.dedup_by_key(|(s, _)| *s);
        AnnTg { groups }
    })
}

proptest! {
    /// encode -> `TgRef::parse` -> `encode_into` is the identity on bytes,
    /// and every view accessor agrees with the owned group.
    #[test]
    fn tg_view_roundtrip(tg in arb_tg()) {
        let mut rec = Vec::new();
        tg.encode(&mut rec);
        let v = TgRef::parse(&rec).expect("canonical record parses");

        let mut back = Vec::new();
        v.encode_into(&mut back);
        prop_assert_eq!(&back, &rec, "re-encode must be byte-identical");
        prop_assert_eq!(v.raw_bytes(), &rec[..], "view span is the record");

        prop_assert_eq!(v.subject(), tg.subject);
        prop_assert_eq!(v.len(), tg.triples.len());
        let pairs: Vec<(u64, u64)> = v.pairs().collect();
        prop_assert_eq!(&pairs, &tg.triples);
        prop_assert_eq!(v.to_owned(), tg.clone());
        for p in 0u64..8 {
            prop_assert_eq!(v.has_prop(p), tg.has_prop(p));
            let vo: Vec<u64> = v.objects_of(p).collect();
            let to: Vec<u64> = tg.objects_of(p).collect();
            prop_assert_eq!(vo, to);
        }
    }

    /// Same laws for annotated groups behind a star directory: star lookup
    /// and owned-decode agreement, and the directory accepts exactly the
    /// prefixes of a record that `AnnTg::decode` accepts.
    #[test]
    fn ann_directory_roundtrip(ann in arb_ann()) {
        let rec = ann.encoded();
        let mut dir = StarDir::default();
        let v = dir.fill(&rec).expect("canonical record parses");
        prop_assert_eq!(v.len(), ann.groups.len());
        for (s, tg) in &ann.groups {
            let comp = v.get(*s).expect("star present in directory");
            prop_assert_eq!(comp.to_owned(), tg.clone());
        }
        prop_assert!(v.get(200).is_none(), "absent star yields None");
        for cut in 0..rec.len() {
            let owned = AnnTg::decode(&rec[..cut]);
            prop_assert_eq!(dir.fill(&rec[..cut]).is_some(), owned.is_some(), "cut at {}", cut);
        }
    }

    /// Two records behind their star directories — star ids anywhere in
    /// `u8` — look up, key, α-test and merge exactly like the owned groups:
    /// `merge_into` produces the bytes of the owned `AnnTg::merge` product
    /// (the α-join materialization path).
    #[test]
    fn directories_match_owned(
        stars in proptest::collection::btree_set(0u8..=255, 2..8),
        tgs in proptest::collection::vec(arb_tg(), 8..9),
        split in any::<u8>(),
        terms in proptest::collection::vec((0usize..8, 1u64..8, any::<bool>()), 0..3),
        key_prop in 1u64..8,
    ) {
        // Deal the (disjoint) star ids onto the two sides by the bits of
        // `split`, keeping one on each.
        let stars: Vec<u8> = stars.into_iter().collect();
        let (mut l, mut r) = (AnnTg { groups: vec![] }, AnnTg { groups: vec![] });
        for (i, (star, tg)) in stars.iter().zip(&tgs).enumerate() {
            let left = if i < 2 { i == 0 } else { split >> i & 1 == 1 };
            let side = if left { &mut l } else { &mut r };
            side.groups.push((*star, tg.clone()));
        }
        let (lrec, rrec) = (l.encoded(), r.encoded());
        // One shared directory, as the α-join reducer keeps its right side.
        let mut dir = StarDir::default();
        let lspan = dir.push(&lrec).expect("left parses");
        let rspan = dir.push(&rrec).expect("right parses");
        let (lv, rv) = (dir.stars(lspan, &lrec), dir.stars(rspan, &rrec));

        let mut got = Vec::new();
        lv.merge_into(&rv, &mut got);
        let merged = l.merge(&r);
        prop_assert_eq!(&got, &merged.encoded());
        got.clear();
        rv.merge_into(&lv, &mut got);
        prop_assert_eq!(&got, &merged.encoded());

        for star in 0..=255u8 {
            prop_assert_eq!(lv.get(star).map(|g| g.to_owned()), l.star(star).cloned());
            for key in [JoinKey::Subject { star }, JoinKey::ObjectOf { star, prop: key_prop }] {
                let mut keys = Vec::new();
                key.extract_ref(&rv, |k| keys.push(k));
                prop_assert_eq!(keys, key.extract(&r));
            }
        }
        let conds = vec![AlphaCond {
            terms: terms
                .iter()
                .map(|&(i, prop, required)| AlphaTerm { star: stars[i % stars.len()], prop, required })
                .collect(),
        }];
        prop_assert_eq!(
            any_alpha_partial_merged(&conds, &lv, &rv),
            any_alpha_partial(&conds, &merged)
        );
    }
}
