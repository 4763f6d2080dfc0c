//! The shuffle's one ordering kernel: a stable LSD radix sort over 16-byte
//! sort entries. Its one caller is [`crate::merge::merge_key_groups`] — per
//! reduce merge unit, and per map task with a combiner; nothing else in the
//! crate orders keys. DESIGN.md §2c has the order proof.

/// Sort entry: what decides almost every key comparison, without touching
/// the payload arena.
#[derive(Clone, Copy, Default)]
pub(crate) struct SortEnt {
    /// The 8 key bytes after the shared prefix, big-endian, zero-padded on
    /// the right.
    pub(crate) prefix: u64,
    /// Key length in bytes, not counting the shared prefix.
    pub(crate) len: u32,
    /// Input position: gather order, which is `(run, emit)` order.
    pub(crate) idx: u32,
}

/// Digits per entry: the clamped key length, then the 8 prefix bytes.
const DIGITS: usize = 9;

impl SortEnt {
    /// The entry of the key whose bytes past the shared prefix are `rest`.
    #[inline]
    pub(crate) fn new(rest: &[u8], idx: usize) -> SortEnt {
        // Byte by byte below 8: a variable-length copy is a `memcpy` call.
        let prefix = match rest.first_chunk::<8>() {
            Some(head) => u64::from_be_bytes(*head),
            None => {
                (rest.iter().enumerate()).fold(0, |p, (i, &b)| p | u64::from(b) << (56 - 8 * i))
            }
        };
        SortEnt {
            prefix,
            len: rest.len() as u32,
            idx: idx as u32,
        }
    }

    /// Radix digit `d`, least significant first: `d = 0` is the key length
    /// clamped to 9, `d = 1..=8` the prefix bytes from last to first.
    #[inline]
    fn digit(&self, d: usize) -> usize {
        if d == 0 {
            self.len.min(9) as usize
        } else {
            (self.prefix >> (8 * (d - 1))) as u8 as usize
        }
    }

    /// Do the two entries' keys differ? Exact whenever a key is at most 8
    /// bytes; longer keys with equal prefix and length need `rest`.
    #[inline]
    pub(crate) fn differs<'k>(&self, other: &SortEnt, rest: impl Fn(u32) -> &'k [u8]) -> bool {
        self.prefix != other.prefix
            || self.len != other.len
            || (self.len > 8 && rest(self.idx) != rest(other.idx))
    }
}

/// Length of the prefix every key of `keys` shares: bytes that decide no comparison.
pub(crate) fn shared_prefix<'k>(mut keys: impl Iterator<Item = &'k [u8]>) -> usize {
    let Some(first) = keys.next() else { return 0 };
    keys.fold(first.len(), |lcp, k| extend_shared_prefix(first, lcp, k))
}

/// The shared prefix once `key` joins keys sharing `first[..lcp]`; most keep it whole.
#[inline]
pub(crate) fn extend_shared_prefix(first: &[u8], lcp: usize, key: &[u8]) -> usize {
    match key.get(..lcp) == Some(&first[..lcp]) {
        true => lcp,
        false => first[..lcp].iter().zip(key).take_while(|(x, y)| x == y).count(),
    }
}

/// Below this many entries an integer comparison sort on the same digits
/// beats the passes, whose fixed cost — 9 × 256 counters to clear, a
/// 256-slot prefix sum per scattered digit — is ≈ 0.3–0.7 µs per call
/// (DESIGN.md §2c has the measurement).
const RADIX_MIN: usize = 512;

/// Sort `ents`, which arrive in increasing `idx` order, by `(key, idx)`;
/// `rest(idx)` is the key of entry `idx` past the shared prefix.
///
/// Entries are first ordered by `(prefix, clamped len)`, stably: equal
/// keys, except runs of keys longer than 8 bytes with equal prefixes,
/// which the tail compare finishes.
pub(crate) fn sort<'k>(ents: &mut Vec<SortEnt>, rest: impl Fn(u32) -> &'k [u8]) {
    if ents.len() < RADIX_MIN {
        // `idx` is unique, so the unstable sort orders like a stable one.
        ents.sort_unstable_by_key(|e| (e.prefix, e.digit(0), e.idx));
    } else {
        scatter_digits(ents);
    }
    // Tie fix-up, stable the same way.
    let n = ents.len();
    let mut i = 0;
    while i < n {
        let head = ents[i];
        let mut j = i + 1;
        while head.len > 8 && j < n && ents[j].len > 8 && ents[j].prefix == head.prefix {
            j += 1;
        }
        if j - i > 1 {
            ents[i..j].sort_unstable_by(|a, b| {
                rest(a.idx)[8..]
                    .cmp(&rest(b.idx)[8..])
                    .then(a.idx.cmp(&b.idx))
            });
        }
        i = j;
    }
}

/// The LSD passes: one pass fills all nine digit histograms; every digit
/// whose histogram has a single bucket is skipped, the rest are scattered
/// least significant first. Each scatter is stable.
fn scatter_digits(ents: &mut Vec<SortEnt>) {
    let n = ents.len();
    let mut hist = [[0u32; 256]; DIGITS];
    for e in ents.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[e.digit(d)] += 1;
        }
    }
    let mut scratch: Vec<SortEnt> = Vec::new();
    for (d, h) in hist.iter_mut().enumerate() {
        if h[ents[0].digit(d)] as usize == n {
            continue;
        }
        let mut next = 0u32;
        for slot in h.iter_mut() {
            (*slot, next) = (next, next + *slot);
        }
        scratch.resize(n, SortEnt::default());
        for e in ents.iter() {
            let slot = &mut h[e.digit(d)];
            scratch[*slot as usize] = *e;
            *slot += 1;
        }
        std::mem::swap(ents, &mut scratch);
    }
}
