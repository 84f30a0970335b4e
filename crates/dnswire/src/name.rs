//! Domain names: text parsing, wire encoding with compression, decoding with
//! pointer chasing, and the hierarchy operations the resolver and guard need.

use crate::error::{WireError, WireResult};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label in bytes (RFC 1035 section 2.3.4).
pub const MAX_LABEL_LEN: usize = 63;

/// Maximum length of a name on the wire, including length octets.
pub const MAX_NAME_LEN: usize = 255;

/// Maximum number of labels a name can have: every label takes at least two
/// wire bytes, and the root octet takes one.
const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;

/// Maximum number of compression-pointer jumps tolerated while decoding one
/// name. Real names never need more than a handful; this bounds malicious
/// pointer chains.
const MAX_POINTER_JUMPS: usize = 64;

/// A fully-qualified domain name, stored as its uncompressed wire form in
/// one buffer: each label as a length octet followed by its bytes, leftmost
/// label first, without the trailing root octet (which is implicit).
///
/// Comparison and hashing are ASCII case-insensitive, per RFC 1035 /
/// RFC 4343, but the original label bytes are preserved: a resolver doing
/// 0x20 case randomization needs its MiXeD-cAsE query name echoed back
/// byte-for-byte, which [`Name::eq_case_sensitive`] checks.
///
/// # Examples
///
/// ```
/// use dnswire::name::Name;
///
/// let name: Name = "www.Foo.COM".parse()?;
/// assert_eq!(name.to_string(), "www.Foo.COM.");
/// assert_eq!(name, "WWW.foo.com".parse()?);
/// assert!(!name.eq_case_sensitive(&"www.foo.com".parse()?));
/// assert_eq!(name.label_count(), 3);
/// assert!(name.is_subdomain_of(&"com".parse()?));
/// # Ok::<(), dnswire::error::WireError>(())
/// ```
#[derive(Clone, Default)]
pub struct Name {
    /// Length-prefixed labels in query order, case preserved, no root
    /// octet; empty for the root. Every length octet is in
    /// `1..=MAX_LABEL_LEN` and the buffer is at most `MAX_NAME_LEN - 1`
    /// bytes. Length octets are never ASCII letters, so folding case over
    /// the whole buffer folds exactly the label bytes.
    wire: Vec<u8>,
}

/// Offsets of each label's length octet in a flat name buffer.
fn label_offsets(wire: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let at = pos;
        pos += 1 + *wire.get(at)? as usize;
        Some(at)
    })
}

/// Checks one label against the RFC 1035 limits.
fn check_label(label: &[u8]) -> WireResult<()> {
    if label.is_empty() {
        return Err(WireError::InvalidText("empty label".into()));
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(WireError::LabelTooLong(label.len()));
    }
    Ok(())
}

/// Appends one (already checked) label with its length octet.
fn push_label(wire: &mut Vec<u8>, label: &[u8]) {
    wire.push(label.len() as u8);
    wire.extend_from_slice(label);
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name { wire: Vec::new() }
    }

    /// Wraps a flat label buffer after checking the 255-byte name limit.
    fn from_wire(wire: Vec<u8>) -> WireResult<Self> {
        let len = wire.len() + 1;
        if len > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(len));
        }
        Ok(Name { wire })
    }

    /// Builds a name from label byte-slices.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LabelTooLong`] / [`WireError::NameTooLong`] when
    /// RFC 1035 limits are violated, and [`WireError::InvalidText`] for empty
    /// labels.
    pub fn from_labels<I, L>(labels: I) -> WireResult<Self>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut wire = Vec::new();
        for l in labels {
            let l = l.as_ref();
            check_label(l)?;
            push_label(&mut wire, l);
        }
        Name::from_wire(wire)
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Number of labels (the root name has zero).
    pub fn label_count(&self) -> usize {
        label_offsets(&self.wire).count()
    }

    /// Iterates over the labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = self.wire.as_slice();
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (label, next) = tail.split_at_checked(len as usize)?;
            rest = next;
            Some(label)
        })
    }

    /// The leftmost label, if any.
    pub fn first_label(&self) -> Option<&[u8]> {
        self.labels().next()
    }

    /// The leftmost label as UTF-8 text, if it is valid UTF-8.
    pub fn first_label_str(&self) -> Option<&str> {
        self.first_label().and_then(|l| std::str::from_utf8(l).ok())
    }

    /// Length of this name on the wire (length octets + labels + root octet).
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// The flat labels left after dropping the `skip` leftmost ones.
    fn tail(&self, skip: usize) -> &[u8] {
        let at = label_offsets(&self.wire)
            .nth(skip)
            .unwrap_or(self.wire.len());
        self.wire.get(at..).unwrap_or_default()
    }

    /// The labels right to left, each viewed through case folding; `starts`
    /// is scratch space for the label offsets.
    fn reversed_labels<'a>(
        &'a self,
        starts: &'a mut [u8; MAX_LABELS],
    ) -> impl Iterator<Item = Fold<'a>> + 'a {
        let mut count = 0;
        for (slot, at) in starts.iter_mut().zip(label_offsets(&self.wire)) {
            *slot = at as u8; // offsets stay below MAX_NAME_LEN
            count += 1;
        }
        starts.iter().take(count).rev().map(move |&at| {
            let at = at as usize;
            let len = self.wire.get(at).copied().unwrap_or(0) as usize;
            Fold(self.wire.get(at + 1..at + 1 + len).unwrap_or_default())
        })
    }

    /// The parent name (this name minus its leftmost label). The parent of
    /// the root is the root.
    pub fn parent(&self) -> Name {
        Name {
            wire: self.tail(1).to_vec(),
        }
    }

    /// Returns the suffix of this name with `count` labels (e.g. for
    /// `www.foo.com`, `suffix(2)` is `foo.com`). `count` larger than the
    /// label count returns the whole name.
    pub fn suffix(&self, count: usize) -> Name {
        Name {
            wire: self.tail(self.label_count().saturating_sub(count)).to_vec(),
        }
    }

    /// True when `self` is `other` or a descendant of `other`, comparing
    /// labels case-insensitively. Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        let Some(start) = self.wire.len().checked_sub(other.wire.len()) else {
            return false;
        };
        // The byte suffix must begin on a label boundary: the bytes of
        // `foo.com` also end `a\x03foo.com`, starting inside its first label.
        let on_boundary = start == self.wire.len()
            || label_offsets(&self.wire)
                .take_while(|&at| at <= start)
                .any(|at| at == start);
        on_boundary
            && self
                .wire
                .get(start..)
                .is_some_and(|tail| tail.eq_ignore_ascii_case(&other.wire))
    }

    /// Byte-exact equality, including ASCII case — the check a 0x20
    /// resolver runs on the echoed question name. Regular `==` stays
    /// case-insensitive per RFC 1035.
    pub fn eq_case_sensitive(&self, other: &Name) -> bool {
        self.wire == other.wire
    }

    /// Returns a copy with each ASCII letter's case chosen by `coin`
    /// (`true` = uppercase), called once per letter in wire order — the
    /// 0x20 query-name encoding. Non-letter bytes pass through.
    pub fn with_case<F: FnMut() -> bool>(&self, mut coin: F) -> Name {
        let mut wire = Vec::with_capacity(self.wire.len());
        for label in self.labels() {
            wire.push(label.len() as u8);
            wire.extend(label.iter().map(|&b| {
                if !b.is_ascii_alphabetic() {
                    b
                } else if coin() {
                    b.to_ascii_uppercase()
                } else {
                    b.to_ascii_lowercase()
                }
            }));
        }
        Name { wire }
    }

    /// Creates a child name by prepending `label`.
    ///
    /// # Errors
    ///
    /// Fails when the label or the resulting name exceeds RFC limits.
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        Name::prepend(label.as_ref(), &self.wire)
    }

    /// `label` followed by the flat labels `rest`.
    fn prepend(label: &[u8], rest: &[u8]) -> WireResult<Name> {
        check_label(label)?;
        let mut wire = Vec::with_capacity(1 + label.len() + rest.len());
        push_label(&mut wire, label);
        wire.extend_from_slice(rest);
        Name::from_wire(wire)
    }

    /// Concatenates `self` with `suffix` (self's labels first).
    ///
    /// # Errors
    ///
    /// Fails when the combined name exceeds the 255-byte wire limit.
    pub fn concat(&self, suffix: &Name) -> WireResult<Name> {
        Name::from_wire([self.wire.as_slice(), &suffix.wire].concat())
    }

    /// Replaces the leftmost label with `label` (used by the guard to swap a
    /// real NS label for a fabricated cookie label and back).
    ///
    /// # Errors
    ///
    /// Fails on RFC limit violations; on the root name this is equivalent to
    /// [`Name::child`].
    pub fn with_first_label<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        Name::prepend(label.as_ref(), self.tail(1))
    }

    /// Encodes the name without compression, appending to `buf`.
    pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.wire);
        buf.push(0);
    }

    /// The flat labels (wire form without the root octet), for the
    /// message encoder's compressor.
    pub(crate) fn flat(&self) -> &[u8] {
        &self.wire
    }

    /// Decodes a name starting at `offset` in `msg`, following compression
    /// pointers. Returns the name and the offset just past the name's
    /// in-place encoding (pointers do not advance past their two bytes).
    ///
    /// The labels are gathered on the stack, so a decoded name costs one
    /// allocation (none for the root).
    ///
    /// # Errors
    ///
    /// Rejects forward-pointing or looping pointers, reserved label types,
    /// over-long labels/names and truncated input.
    pub fn decode(msg: &[u8], offset: usize) -> WireResult<(Name, usize)> {
        let mut flat = [0u8; MAX_NAME_LEN];
        let mut used = 0usize;
        let mut pos = offset;
        let mut end_after: Option<usize> = None;
        let mut jumps = 0usize;

        loop {
            let len_octet = *msg.get(pos).ok_or(WireError::UnexpectedEnd { offset: pos })?;
            match len_octet {
                0 => {
                    let end = end_after.unwrap_or(pos + 1);
                    let wire = flat.get(..used).unwrap_or_default().to_vec();
                    return Ok((Name { wire }, end));
                }
                l if l & 0xC0 == 0xC0 => {
                    let next = *msg
                        .get(pos + 1)
                        .ok_or(WireError::UnexpectedEnd { offset: pos + 1 })?;
                    let target = (((l & 0x3F) as usize) << 8) | next as usize;
                    if target >= pos {
                        return Err(WireError::BadPointer { target, at: pos });
                    }
                    jumps += 1;
                    if jumps > MAX_POINTER_JUMPS {
                        return Err(WireError::PointerLoop);
                    }
                    if end_after.is_none() {
                        end_after = Some(pos + 2);
                    }
                    pos = target;
                }
                l if l & 0xC0 != 0 => return Err(WireError::BadLabelType(l)),
                l => {
                    let len = l as usize;
                    let end = pos + 1 + len;
                    let label = msg
                        .get(pos..end)
                        .ok_or(WireError::UnexpectedEnd { offset: end })?;
                    let wire_len = used + len + 2; // + this length octet + root octet
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(wire_len));
                    }
                    // `label` is the length octet and its bytes, copied as is.
                    flat.get_mut(used..used + 1 + len)
                        .ok_or(WireError::NameTooLong(wire_len))?
                        .copy_from_slice(label);
                    used += 1 + len;
                    pos = end;
                }
            }
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    /// Hashes the case-folded wire form, root octet included, in one write
    /// so `Hash` stays consistent with the case-insensitive `Eq` (folded on
    /// the stack, no allocation).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut folded = [0u8; MAX_NAME_LEN];
        for (dst, b) in folded.iter_mut().zip(&self.wire) {
            *dst = b.to_ascii_lowercase();
        }
        state.write(folded.get(..self.wire.len() + 1).unwrap_or(&folded));
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering: compare label sequences right-to-left
    /// (hierarchical order) with ASCII case folded, so a zone sorts before
    /// its children and ordering agrees with the case-insensitive `Eq`.
    fn cmp(&self, other: &Self) -> Ordering {
        let (mut a, mut b) = ([0u8; MAX_LABELS], [0u8; MAX_LABELS]);
        let a = self.reversed_labels(&mut a);
        let b = other.reversed_labels(&mut b);
        a.cmp(b)
    }
}

/// A label viewed through ASCII case folding, for ordering.
struct Fold<'a>(&'a [u8]);

impl PartialEq for Fold<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}
impl Eq for Fold<'_> {}
impl PartialOrd for Fold<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Fold<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let a = self.0.iter().map(u8::to_ascii_lowercase);
        let b = other.0.iter().map(u8::to_ascii_lowercase);
        a.cmp(b)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in self.labels() {
            for &b in l {
                // Escape dots and non-printables inside labels per RFC 4343.
                match b {
                    b'.' => f.write_str("\\.")?,
                    b'\\' => f.write_str("\\\\")?,
                    0x21..=0x7E => write!(f, "{}", b as char)?,
                    other => write!(f, "\\{:03}", other)?,
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl FromStr for Name {
    type Err = WireError;

    /// Parses dotted text (`www.foo.com`, trailing dot optional, `.` or empty
    /// string for the root). Supports `\.`/`\\`/`\DDD` escapes.
    fn from_str(s: &str) -> WireResult<Self> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        let mut labels: Vec<Vec<u8>> = Vec::new();
        let mut current: Vec<u8> = Vec::new();
        let mut chars = s.bytes().peekable();
        while let Some(b) = chars.next() {
            match b {
                b'\\' => match chars.next() {
                    Some(d @ b'0'..=b'9') => {
                        let d2 = chars
                            .next()
                            .filter(u8::is_ascii_digit)
                            .ok_or_else(|| WireError::InvalidText(s.into()))?;
                        let d3 = chars
                            .next()
                            .filter(u8::is_ascii_digit)
                            .ok_or_else(|| WireError::InvalidText(s.into()))?;
                        let value = (d - b'0') as u16 * 100 + (d2 - b'0') as u16 * 10 + (d3 - b'0') as u16;
                        if value > 255 {
                            return Err(WireError::InvalidText(s.into()));
                        }
                        current.push(value as u8);
                    }
                    Some(escaped) => current.push(escaped),
                    None => return Err(WireError::InvalidText(s.into())),
                },
                b'.' => {
                    labels.push(std::mem::take(&mut current));
                    // Empty labels (consecutive dots) are invalid; caught by
                    // from_labels below.
                }
                other => current.push(other),
            }
        }
        labels.push(current);
        Name::from_labels(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.foo.com").to_string(), "www.foo.com.");
        assert_eq!(n("www.foo.com.").to_string(), "www.foo.com.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
        assert_eq!(n("COM").to_string(), "COM.", "case is preserved for display");
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("WWW.Foo.Com"), n("www.foo.com"));
        let mut set = std::collections::HashSet::new();
        set.insert(n("Example.ORG"));
        assert!(set.contains(&n("example.org")));
    }

    #[test]
    fn case_sensitive_compare_and_0x20() {
        assert!(n("www.foo.com").eq_case_sensitive(&n("www.foo.com")));
        assert!(!n("wWw.foo.com").eq_case_sensitive(&n("www.foo.com")));
        // 0x20: flip every other letter; round-trips through the wire.
        let mut i = 0u32;
        let mixed = n("www.foo.com").with_case(|| {
            i += 1;
            i.is_multiple_of(2)
        });
        assert_eq!(mixed, n("www.foo.com"), "still equal case-insensitively");
        assert!(!mixed.eq_case_sensitive(&n("www.foo.com")));
        let mut buf = Vec::new();
        mixed.encode_uncompressed(&mut buf);
        let (decoded, _) = Name::decode(&buf, 0).unwrap();
        assert!(decoded.eq_case_sensitive(&mixed), "wire preserves case");
        assert!(n("WWW.FOO.COM").is_subdomain_of(&n("foo.com")));
    }

    #[test]
    fn hash_and_ord_fold_case() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |name: &Name| {
            let mut s = DefaultHasher::new();
            name.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&n("WWW.Foo.Com")), h(&n("www.foo.com")));
        assert_eq!(n("A.COM").cmp(&n("a.com")), std::cmp::Ordering::Equal);
        assert!(n("A.com") < n("b.COM"));
    }

    #[test]
    fn rejects_empty_label() {
        assert!("a..b".parse::<Name>().is_err());
        assert!(Name::from_labels(["a", "", "b"]).is_err());
    }

    #[test]
    fn rejects_long_label_and_name() {
        let long_label = "x".repeat(64);
        assert!(long_label.parse::<Name>().is_err());
        let ok_label = "x".repeat(63);
        assert!(ok_label.parse::<Name>().is_ok());

        let long_name = (0..32).map(|_| "abcdefg").collect::<Vec<_>>().join(".");
        assert!(long_name.parse::<Name>().is_err());
    }

    #[test]
    fn hierarchy_ops() {
        let name = n("www.foo.com");
        assert_eq!(name.parent(), n("foo.com"));
        assert_eq!(name.parent().parent(), n("com"));
        assert_eq!(name.parent().parent().parent(), Name::root());
        assert_eq!(Name::root().parent(), Name::root());

        assert!(name.is_subdomain_of(&n("foo.com")));
        assert!(name.is_subdomain_of(&n("com")));
        assert!(name.is_subdomain_of(&Name::root()));
        assert!(name.is_subdomain_of(&name));
        assert!(!n("foo.com").is_subdomain_of(&name));
        assert!(!n("barfoo.com").is_subdomain_of(&n("foo.com")));

        assert_eq!(name.suffix(2), n("foo.com"));
        assert_eq!(name.suffix(0), Name::root());
        assert_eq!(name.suffix(99), name);
    }

    #[test]
    fn child_and_concat() {
        assert_eq!(n("foo.com").child("www").unwrap(), n("www.foo.com"));
        assert_eq!(Name::root().child("com").unwrap(), n("com"));
        assert_eq!(n("www").concat(&n("foo.com")).unwrap(), n("www.foo.com"));
        assert_eq!(n("a.b").concat(&Name::root()).unwrap(), n("a.b"));
    }

    #[test]
    fn with_first_label_swaps() {
        let original = n("ns1.foo.com");
        let fabricated = original.with_first_label("PRdeadbeef").unwrap();
        assert_eq!(fabricated, n("PRdeadbeef.foo.com"));
        assert_eq!(fabricated.with_first_label("ns1").unwrap(), original);
        assert_eq!(Name::root().with_first_label("x").unwrap(), n("x"));
    }

    #[test]
    fn wire_round_trip_uncompressed() {
        for s in ["www.foo.com", "a", ".", "x.y.z.w.v.u"] {
            let name = n(s);
            let mut buf = Vec::new();
            name.encode_uncompressed(&mut buf);
            let (decoded, used) = Name::decode(&buf, 0).unwrap();
            assert_eq!(decoded, name);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn wire_len_matches_encoding() {
        for s in ["www.foo.com", "a", "."] {
            let name = n(s);
            let mut buf = Vec::new();
            name.encode_uncompressed(&mut buf);
            assert_eq!(buf.len(), name.wire_len());
        }
    }

    #[test]
    fn decode_follows_pointer() {
        // "foo.com" at offset 0; "www" + pointer to offset 0 at offset 9.
        let mut buf = Vec::new();
        n("foo.com").encode_uncompressed(&mut buf);
        let ptr_at = buf.len();
        buf.push(3);
        buf.extend_from_slice(b"www");
        buf.push(0xC0);
        buf.push(0);
        let (decoded, used) = Name::decode(&buf, ptr_at).unwrap();
        assert_eq!(decoded, n("www.foo.com"));
        assert_eq!(used, buf.len());
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        let buf = [0xC0u8, 0x02, 0x00];
        assert!(matches!(
            Name::decode(&buf, 0),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_self_pointer() {
        let buf = [0xC0u8, 0x00];
        assert!(matches!(
            Name::decode(&buf, 0),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        assert!(matches!(Name::decode(&[0x40, 0x00], 0), Err(WireError::BadLabelType(_))));
        assert!(matches!(Name::decode(&[0x80, 0x00], 0), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn decode_rejects_truncation() {
        assert!(matches!(Name::decode(&[], 0), Err(WireError::UnexpectedEnd { .. })));
        assert!(matches!(Name::decode(&[3, b'w'], 0), Err(WireError::UnexpectedEnd { .. })));
        assert!(matches!(Name::decode(&[0xC0], 0), Err(WireError::UnexpectedEnd { .. })));
    }

    #[test]
    fn escapes_in_display_and_parse() {
        let name = Name::from_labels([b"a.b".as_slice(), b"c".as_slice()]).unwrap();
        let text = name.to_string();
        assert_eq!(text, "a\\.b.c.");
        assert_eq!(text.parse::<Name>().unwrap(), name);

        let weird = Name::from_labels([&[0x07u8, b'x'][..]]).unwrap();
        let round = weird.to_string().parse::<Name>().unwrap();
        assert_eq!(round, weird);
    }

    #[test]
    fn canonical_ordering_groups_zones() {
        let mut names = vec![n("b.com"), n("a.com"), n("com"), n("www.a.com"), n("org")];
        names.sort();
        assert_eq!(
            names,
            vec![n("com"), n("a.com"), n("www.a.com"), n("b.com"), n("org")]
        );
    }

    #[test]
    fn max_pointer_jumps_bounded() {
        // Build a chain of pointers each pointing 2 bytes back; 100 jumps.
        let mut buf = vec![0u8]; // root name at offset 0
        for i in 0..100u16 {
            // Each pointer points to the previous pointer (or the root).
            let target = if i == 0 { 0 } else { 1 + (i - 1) * 2 };
            buf.push(0xC0 | ((target >> 8) as u8));
            buf.push((target & 0xFF) as u8);
        }
        let start = buf.len() - 2;
        assert!(matches!(Name::decode(&buf, start), Err(WireError::PointerLoop)));
    }
}

/// `Name` checked against the label-vector representation it replaced: a
/// `Vec<Vec<u8>>` reference carrying the old semantics of every operation.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::Mix;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// The old representation, with the old semantics.
    #[derive(Clone, Debug)]
    struct RefName(Vec<Vec<u8>>);

    impl RefName {
        fn valid(&self) -> WireResult<()> {
            for l in &self.0 {
                check_label(l)?;
            }
            let wire = 1 + self.0.iter().map(|l| l.len() + 1).sum::<usize>();
            if wire > MAX_NAME_LEN {
                return Err(WireError::NameTooLong(wire));
            }
            Ok(())
        }

        fn checked(self) -> WireResult<RefName> {
            self.valid().map(|()| self)
        }

        fn eq(&self, other: &RefName) -> bool {
            self.0.len() == other.0.len()
                && self
                    .0
                    .iter()
                    .zip(&other.0)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b))
        }

        fn cmp(&self, other: &RefName) -> Ordering {
            let a = self.0.iter().rev().map(|l| Fold(l));
            let b = other.0.iter().rev().map(|l| Fold(l));
            a.cmp(b)
        }

        fn is_subdomain_of(&self, other: &RefName) -> bool {
            if other.0.len() > self.0.len() {
                return false;
            }
            let tail = &self.0[self.0.len() - other.0.len()..];
            tail.iter()
                .zip(&other.0)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        }

        fn suffix(&self, count: usize) -> RefName {
            let skip = self.0.len().saturating_sub(count);
            RefName(self.0[skip..].to_vec())
        }

        fn parent(&self) -> RefName {
            RefName(self.0.get(1..).unwrap_or_default().to_vec())
        }

        fn child(&self, label: &[u8]) -> WireResult<RefName> {
            let mut labels = vec![label.to_vec()];
            labels.extend(self.0.iter().cloned());
            RefName(labels).checked()
        }

        fn concat(&self, suffix: &RefName) -> WireResult<RefName> {
            RefName(self.0.iter().chain(&suffix.0).cloned().collect()).checked()
        }

        fn with_first_label(&self, label: &[u8]) -> WireResult<RefName> {
            if self.0.is_empty() {
                return self.child(label);
            }
            let mut labels = self.0.clone();
            labels[0] = label.to_vec();
            RefName(labels).checked()
        }

        fn display(&self) -> String {
            if self.0.is_empty() {
                return ".".into();
            }
            let mut out = String::new();
            for l in &self.0 {
                for &b in l {
                    match b {
                        b'.' => out.push_str("\\."),
                        b'\\' => out.push_str("\\\\"),
                        0x21..=0x7E => out.push(b as char),
                        other => out.push_str(&format!("\\{other:03}")),
                    }
                }
                out.push('.');
            }
            out
        }
    }

    /// Whether `name` holds exactly the reference's labels, case included.
    fn same(name: &Name, r: &RefName) -> bool {
        name.labels().map(<[u8]>::to_vec).collect::<Vec<_>>() == r.0
    }

    fn same_result(got: WireResult<Name>, want: WireResult<RefName>) -> bool {
        match (got, want) {
            (Ok(g), Ok(w)) => same(&g, &w),
            (Err(g), Err(w)) => g == w,
            _ => false,
        }
    }

    fn hash_of(name: &Name) -> u64 {
        let mut s = DefaultHasher::new();
        name.hash(&mut s);
        s.finish()
    }

    /// A label: mostly from a small pool that shares suffixes and
    /// near-misses (`foo`/`xfoo`), sometimes up to 63 random bytes
    /// including dots, escapes and bytes that look like length octets.
    fn random_label(rng: &mut Mix) -> Vec<u8> {
        const POOL: [&str; 10] = [
            "www", "foo", "xfoo", "com", "a", "b", "ns1", "org", "x-1", "_tcp",
        ];
        let mut label = if rng.chance(6) {
            let len = 1 + rng.below(63) as usize;
            (0..len).map(|_| rng.next() as u8).collect()
        } else {
            POOL[rng.below(POOL.len() as u64) as usize]
                .as_bytes()
                .to_vec()
        };
        flip_case(rng, &mut label);
        label
    }

    fn flip_case(rng: &mut Mix, label: &mut [u8]) {
        if rng.chance(2) {
            for b in label.iter_mut() {
                if rng.chance(2) {
                    *b = b.to_ascii_uppercase();
                }
            }
        }
    }

    fn random_labels(rng: &mut Mix) -> Vec<Vec<u8>> {
        if rng.chance(10) {
            // Right at or just past the 255-byte limit.
            let last = 60 + rng.below(3) as usize;
            return vec![
                vec![b'm'; 63],
                vec![b'M'; 63],
                vec![b'x'; 63],
                vec![b'q'; last],
            ];
        }
        (0..rng.below(6)).map(|_| random_label(rng)).collect()
    }

    /// A second name related to `a`: independent, a case variant, a suffix,
    /// or a mimic whose first label ends in bytes that read as a length
    /// octet plus the first label of a suffix (`x\x03foo.com` vs
    /// `foo.com`): the suffix's bytes then end the mimic off a label
    /// boundary.
    fn related(rng: &mut Mix, a: &RefName) -> RefName {
        let mut labels = match rng.below(4) {
            0 => random_labels(rng),
            1 => a.0.clone(),
            2 => a.suffix(rng.below(a.0.len() as u64 + 1) as usize).0,
            _ => {
                let count = if rng.chance(2) {
                    a.0.len()
                } else {
                    rng.below(a.0.len() as u64 + 1) as usize
                };
                let mut s = a.suffix(count).0;
                match s.first_mut() {
                    Some(first) if first.len() + 2 <= MAX_LABEL_LEN => {
                        first.splice(0..0, [b'x', first.len() as u8]);
                    }
                    _ => s.insert(0, b"x".to_vec()),
                }
                s
            }
        };
        for l in &mut labels {
            flip_case(rng, l);
        }
        RefName(labels)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        /// Every `Name` operation agrees with the label-vector reference.
        #[test]
        fn name_matches_label_vector_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Mix(seed);
            let ra = RefName(random_labels(&mut rng));
            let built = Name::from_labels(&ra.0);
            proptest::prop_assert!(same_result(built.clone(), ra.clone().checked()), "seed {}", seed);
            let Ok(a) = built else { return Ok(()) };
            let rb = related(&mut rng, &ra);
            let Ok(b) = Name::from_labels(&rb.0) else { return Ok(()) };

            proptest::prop_assert_eq!(a.label_count(), ra.0.len());
            proptest::prop_assert_eq!(a.is_root(), ra.0.is_empty());
            proptest::prop_assert_eq!(a.wire_len(), 1 + ra.0.iter().map(|l| l.len() + 1).sum::<usize>());
            proptest::prop_assert_eq!(a.first_label(), ra.0.first().map(Vec::as_slice));

            proptest::prop_assert_eq!(a == b, ra.eq(&rb), "seed {}", seed);
            if a == b {
                proptest::prop_assert_eq!(hash_of(&a), hash_of(&b), "seed {}", seed);
            }
            proptest::prop_assert_eq!(a.cmp(&b), ra.cmp(&rb), "seed {}", seed);
            proptest::prop_assert_eq!(a.is_subdomain_of(&b), ra.is_subdomain_of(&rb), "seed {}", seed);
            proptest::prop_assert_eq!(b.is_subdomain_of(&a), rb.is_subdomain_of(&ra), "seed {}", seed);
            proptest::prop_assert_eq!(a.eq_case_sensitive(&b), ra.0 == rb.0);

            for count in 0..=ra.0.len() + 1 {
                proptest::prop_assert!(same(&a.suffix(count), &ra.suffix(count)), "seed {}", seed);
            }
            proptest::prop_assert!(same(&a.parent(), &ra.parent()), "seed {}", seed);
            let label = random_label(&mut rng);
            for label in [label.as_slice(), b"", &[b'z'; 64]] {
                proptest::prop_assert!(same_result(a.child(label), ra.child(label)), "seed {}", seed);
                proptest::prop_assert!(
                    same_result(a.with_first_label(label), ra.with_first_label(label)),
                    "seed {}", seed
                );
            }
            proptest::prop_assert!(same_result(a.concat(&b), ra.concat(&rb)), "seed {}", seed);

            let text = a.to_string();
            proptest::prop_assert_eq!(&text, &ra.display());
            proptest::prop_assert!(text.parse::<Name>().is_ok_and(|p| p.eq_case_sensitive(&a)), "seed {}", seed);

            let mut wire = Vec::new();
            a.encode_uncompressed(&mut wire);
            proptest::prop_assert!(
                Name::decode(&wire, 0).is_ok_and(|(d, end)| d.eq_case_sensitive(&a) && end == wire.len()),
                "seed {}", seed
            );

            let (mut calls, flips) = (0usize, rng.next());
            let cased = a.with_case(|| {
                calls += 1;
                flips >> (calls % 64) & 1 == 1
            });
            let letters = ra.0.iter().flatten().filter(|b| b.is_ascii_alphabetic()).count();
            proptest::prop_assert_eq!(calls, letters, "seed {}", seed);
            let mut replay = 0usize;
            let want = RefName(ra.0.iter().map(|l| l.iter().map(|&b| {
                if !b.is_ascii_alphabetic() {
                    return b;
                }
                replay += 1;
                if flips >> (replay % 64) & 1 == 1 { b.to_ascii_uppercase() } else { b.to_ascii_lowercase() }
            }).collect()).collect());
            proptest::prop_assert!(same(&cased, &want), "seed {}", seed);
        }
    }

    #[test]
    fn root_name_edge_cases() {
        let root = Name::root();
        let r = RefName(Vec::new());
        assert_eq!(root.label_count(), 0);
        assert_eq!(root.wire_len(), 1);
        assert_eq!(root.to_string(), r.display());
        assert!(same(&root.parent(), &r) && same(&root.suffix(3), &r));
        assert!(root.is_subdomain_of(&Name::root()));
        assert!(!root.is_subdomain_of(&"com".parse().unwrap()));
        assert!("com".parse::<Name>().unwrap().is_subdomain_of(&root));
        assert!(root < "com".parse().unwrap());
        assert_eq!(hash_of(&root), hash_of(&"".parse().unwrap()));
        assert_eq!(root.first_label(), None);
        assert!(same(
            &root.with_first_label("x").unwrap(),
            &RefName(vec![b"x".to_vec()])
        ));
    }

    #[test]
    fn longest_labels_and_names() {
        let labels = [
            vec![b'a'; 63],
            vec![b'b'; 63],
            vec![b'c'; 63],
            vec![b'd'; 61],
        ];
        let name = Name::from_labels(&labels).unwrap();
        assert_eq!(name.wire_len(), MAX_NAME_LEN);
        let mut wire = Vec::new();
        name.encode_uncompressed(&mut wire);
        assert_eq!(wire.len(), MAX_NAME_LEN);
        let (decoded, end) = Name::decode(&wire, 0).unwrap();
        assert!(decoded.eq_case_sensitive(&name) && end == MAX_NAME_LEN);
        assert_eq!(name.child("e"), Err(WireError::NameTooLong(257)));
        assert_eq!(name.concat(&name), Err(WireError::NameTooLong(509)));

        let mut over = labels.clone();
        over[3].push(b'd');
        assert_eq!(Name::from_labels(&over), Err(WireError::NameTooLong(256)));
        let mut wire = Vec::new();
        for l in &over {
            wire.push(l.len() as u8);
            wire.extend_from_slice(l);
        }
        wire.push(0);
        assert_eq!(
            Name::decode(&wire, 0).map(|_| ()),
            Err(WireError::NameTooLong(256))
        );
    }

    #[test]
    fn byte_suffix_off_a_label_boundary_is_not_a_subdomain() {
        let foo: Name = "foo.com".parse().unwrap();
        assert!(!"xfoo.com".parse::<Name>().unwrap().is_subdomain_of(&foo));
        assert!(!"a.xfoo.com".parse::<Name>().unwrap().is_subdomain_of(&foo));
        assert!("x.FOO.com".parse::<Name>().unwrap().is_subdomain_of(&foo));
        // The label bytes `a\x03foo` end with what reads as a length octet
        // and `foo`: the flat form of `foo.com` is then a byte suffix
        // starting inside the first label.
        let mimic = Name::from_labels([&b"a\x03foo"[..], b"com"]).unwrap();
        assert!(!mimic.is_subdomain_of(&foo));
        assert!(mimic.is_subdomain_of(&"com".parse().unwrap()));
    }

    #[test]
    fn with_case_flips_letters_only() {
        // Letters around digits, hyphens and a label whose length octet
        // (0x3f) sits next to letters.
        let labels = [
            b"a1-B".to_vec(),
            vec![b'z'; 63],
            b"9".to_vec(),
            b"Com".to_vec(),
        ];
        let name = Name::from_labels(&labels).unwrap();
        let mut calls = 0;
        let upper = name.with_case(|| {
            calls += 1;
            true
        });
        assert_eq!(calls, 2 + 63 + 3);
        assert_eq!(upper.to_string(), format!("A1-B.{}.9.COM.", "Z".repeat(63)));
        let lengths: Vec<usize> = upper.labels().map(<[u8]>::len).collect();
        assert_eq!(lengths, [4, 63, 1, 3]);
    }
}
