//! Minimal vendored shim of the [`bytes`](https://docs.rs/bytes) crate.
//!
//! Implements exactly the API surface this workspace uses — a
//! cheaply-cloneable immutable byte buffer ([`Bytes`]), a growable
//! builder ([`BytesMut`]) and the [`Buf`]/[`BufMut`] cursor traits —
//! so the workspace builds without network access.
//!
//! A [`Bytes`] is a 24-byte handle with two representations:
//!
//! * **Inline**: a buffer of at most 22 bytes lives in the handle
//!   itself. Making one allocates nothing and cloning one copies the
//!   handle. Every constructor inlines a short buffer: `From<Vec<u8>>`,
//!   [`BytesMut::freeze`], [`Bytes::copy_from_slice`],
//!   [`Bytes::from_static`], `From<&'static str>`,
//!   `From<&'static [u8]>` and [`Bytes::new`]. The ≤ 22 bytes are
//!   copied into the handle and a `Vec` they came in is freed. 22 is
//!   what the handle has left beside the variant's tag and a length
//!   byte, so it is not a setting.
//! * **Shared**: a longer buffer is an `Arc<Vec<u8>>` plus a sub-range.
//!   The `Vec` moves behind the `Arc` uncopied, so freezing stays O(1).
//!   `clone`, `slice`, `split_to`, `split_off`, `advance` and
//!   `copy_to_bytes` on a shared buffer return views of the same
//!   allocation, however short the view: a decoded payload aliases the
//!   frame it was read from. A slice of an inline buffer is an inline
//!   copy.
//!
//! The sub-range is two `u32` offsets. No buffer in this workspace
//! comes near 4 GiB: frames stop at `MAX_FRAME` (64 MiB), codec lengths
//! at `MAX_LEN` (1 GiB), and WAL segments rotate at 64 MiB. Sharing a
//! larger `Vec` panics; that guard is untested, since a test would have
//! to allocate 4 GiB. Longer buffers stay behind an `Arc` because
//! holding them allocation-free too would take the real crate's vtable,
//! and every crate here forbids `unsafe`. A 32-byte handle with 30
//! inline bytes would also hold a 30-byte key, but it would grow every
//! struct that holds a `Bytes` (an MRP-Store entry from 64 to 80
//! bytes).

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The most bytes a [`Bytes`] holds inside its own handle.
const INLINE_CAP: usize = 22;

/// A cheaply cloneable, immutable, contiguous slice of memory: inline
/// up to 22 bytes, a view of a shared allocation beyond (see the crate
/// documentation).
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    /// `data[..len]`, held in the handle.
    Inline { len: u8, data: [u8; INLINE_CAP] },
    /// `buf[start..end]`, shared with every other view of `buf`.
    Shared {
        buf: Arc<Vec<u8>>,
        start: u32,
        end: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Bytes>() == 24);

/// `n` as an offset into a shared buffer.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect(
        "a shared Bytes buffer is below 4 GiB: frames stop at MAX_FRAME (64 MiB), \
         codec lengths at MAX_LEN (1 GiB) and WAL segments at 64 MiB",
    )
}

impl Bytes {
    /// An empty buffer; allocates nothing.
    pub fn new() -> Self {
        Self::inline(&[])
    }

    /// A buffer with the contents of a static slice: inline if it is
    /// at most 22 bytes long, copied once into a shared allocation
    /// otherwise (the real crate borrows, which this shim does not
    /// need).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::copy_from_slice(bytes)
    }

    /// Copies `data` into a new buffer: into the handle if it is at
    /// most 22 bytes long, into one shared allocation otherwise.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.len() <= INLINE_CAP {
            Self::inline(data)
        } else {
            Self::from_vec_at(data.to_vec(), 0)
        }
    }

    /// `data`, at most [`INLINE_CAP`] bytes, copied into the handle.
    fn inline(data: &[u8]) -> Self {
        let mut inline = [0; INLINE_CAP];
        inline[..data.len()].copy_from_slice(data);
        Self(Repr::Inline {
            len: data.len() as u8,
            data: inline,
        })
    }

    /// `buf[start..]`: copied into the handle if it is short enough,
    /// otherwise a view of `buf`, moved behind an `Arc` uncopied.
    fn from_vec_at(buf: Vec<u8>, start: usize) -> Self {
        if buf.len() - start <= INLINE_CAP {
            return Self::inline(&buf[start..]);
        }
        Self(Repr::Shared {
            start: offset(start),
            end: offset(buf.len()),
            buf: Arc::new(buf),
        })
    }

    /// `self[begin..end]`: a view of the same allocation if `self` is
    /// shared, an inline copy if it is inline. Each arm checks the range
    /// against its own length, so a decoder's field read matches on the
    /// representation once.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    fn view(&self, begin: usize, end: usize) -> Self {
        match &self.0 {
            Repr::Inline { len, data } => {
                assert!(
                    begin <= end && end <= usize::from(*len),
                    "slice out of bounds"
                );
                Self::inline(&data[begin..end])
            }
            Repr::Shared {
                buf,
                start,
                end: stop,
            } => {
                assert!(
                    begin <= end && end <= (stop - start) as usize,
                    "slice out of bounds"
                );
                // Both lie within `start..stop`, so they fit a `u32`.
                Self(Repr::Shared {
                    buf: Arc::clone(buf),
                    start: start + begin as u32,
                    end: start + end as u32,
                })
            }
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Shared { start, end, .. } => (end - start) as usize,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-range: a zero-copy view of a shared buffer, a copy of an
    /// inline one.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        self.view(begin, end)
    }

    /// Splits the buffer into two at `at`: returns `[0, at)` and
    /// leaves `[at, len)` in `self`. Both halves of a shared buffer
    /// share its allocation — no bytes are copied (matches the real
    /// crate).
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.view(0, at);
        self.advance(at);
        head
    }

    /// Splits the buffer into two at `at`: returns `[at, len)` and
    /// leaves `[0, at)` in `self`. Zero-copy, like [`Bytes::split_to`].
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = self.view(at, self.len());
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = at as u8,
            Repr::Shared { start, end, .. } => *end = *start + at as u32,
        }
        tail
    }

    /// The buffer contents as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..usize::from(*len)],
            Repr::Shared { buf, start, end } => &buf[*start as usize..*end as usize],
        }
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A `Vec` of at most 22 bytes is copied into the handle and freed; a
/// longer one moves behind the shared `Arc` uncopied.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec_at(v, 0)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Self::from(b.into_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    inner: Vec<u8>,
    /// Read cursor for the `Buf` impl (bytes before it are consumed).
    read: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            inner: Vec::with_capacity(cap),
            read: 0,
        }
    }

    /// Unconsumed length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len() - self.read
    }

    /// Whether no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ensures space for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.inner.reserve(additional);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.inner.extend_from_slice(other);
    }

    /// Removes and returns the first `at` unconsumed bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.inner[self.read..self.read + at].to_vec();
        self.inner.drain(..self.read + at);
        self.read = 0;
        BytesMut {
            inner: head,
            read: 0,
        }
    }

    /// Freezes the unconsumed bytes into an immutable [`Bytes`].
    ///
    /// If at most 22 bytes remain after the read cursor, they are
    /// copied into the handle and the backing `Vec` is freed.
    /// Otherwise it is O(1): the backing `Vec` moves behind the shared
    /// `Arc` untouched — no bytes are copied — and a non-zero read
    /// cursor becomes the view's start offset.
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec_at(self.inner, self.read)
    }

    /// The unconsumed contents as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.inner[self.read..]
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.inner.clear();
        self.read = 0;
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let read = self.read;
        &mut self.inner[read..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(self.as_slice()), f)
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.inner.extend(iter);
    }
}

/// Read cursor over a contiguous byte source.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes (always the full remainder here: every
    /// implementation in this shim is contiguous).
    fn chunk(&self) -> &[u8];

    /// Consumes `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// All `get_*` methods panic on underflow; protocol code checks
    /// `remaining()` first.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(raw)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    /// Consumes `len` bytes into an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        match &mut self.0 {
            Repr::Inline { len, data } => {
                assert!(cnt <= usize::from(*len), "advance past end");
                data.copy_within(cnt..usize::from(*len), 0);
                *len -= cnt as u8;
            }
            Repr::Shared { start, end, .. } => {
                assert!(cnt <= (*end - *start) as usize, "advance past end");
                *start += cnt as u32;
            }
        }
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        // Zero-copy on a shared buffer: narrow the view.
        let out = self.view(0, len);
        self.advance(len);
        out
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.read += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor over a growable byte sink.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_is_zero_copy_view() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
    }

    #[test]
    fn buf_cursor_roundtrip() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u16_le(258);
        m.put_u32_le(70_000);
        m.put_u64_le(u64::MAX - 1);
        m.put_slice(b"xyz");
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 258);
        assert_eq!(b.get_u32_le(), 70_000);
        assert_eq!(b.get_u64_le(), u64::MAX - 1);
        assert_eq!(b.copy_to_bytes(3), Bytes::from_static(b"xyz"));
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn bytesmut_split_to_and_advance() {
        let mut m = BytesMut::new();
        m.put_slice(b"headtail");
        m.advance(2);
        let head = m.split_to(2);
        assert_eq!(&head[..], b"ad");
        assert_eq!(&m[..], b"tail");
    }

    #[test]
    fn bytes_split_to_matches_real_crate_semantics() {
        // Mirrors the real crate's doc example: `a.split_to(5)` leaves
        // the tail in place and returns the head, both aliasing the
        // original allocation.
        // Longer than the inline limit, so the buffer is shared.
        let mut a = Bytes::from(&b"hello world, shared past the inline limit"[..]);
        let base = a.as_slice().as_ptr();
        let b = a.split_to(5);
        assert_eq!(&a[..], b" world, shared past the inline limit");
        assert_eq!(&b[..], b"hello");
        // Zero-copy: both halves point into the original storage.
        assert_eq!(b.as_slice().as_ptr(), base);
        assert_eq!(a.as_slice().as_ptr(), unsafe_free_ptr_add(base, 5));
        // Boundary cases.
        let empty = a.split_to(0);
        assert!(empty.is_empty());
        let rest = a.split_to(a.len());
        assert_eq!(&rest[..], b" world, shared past the inline limit");
        assert!(a.is_empty());
    }

    #[test]
    fn bytes_split_off_matches_real_crate_semantics() {
        let mut a = Bytes::from(&b"hello world, shared past the inline limit"[..]);
        let base = a.as_slice().as_ptr();
        let b = a.split_off(5);
        assert_eq!(&a[..], b"hello");
        assert_eq!(&b[..], b" world, shared past the inline limit");
        assert_eq!(a.as_slice().as_ptr(), base);
        assert_eq!(b.as_slice().as_ptr(), unsafe_free_ptr_add(base, 5));
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn bytes_split_to_panics_past_end() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        let _ = a.split_to(4);
    }

    #[test]
    fn freeze_with_read_cursor_keeps_single_allocation() {
        let mut m = BytesMut::new();
        m.put_slice(b"prefix-payload past the inline limit");
        m.advance(7);
        let frozen = m.freeze();
        assert_eq!(&frozen[..], b"payload past the inline limit");
        // A slice of the frozen view still aliases the same storage.
        let view = frozen.slice(..3);
        assert_eq!(view.as_slice().as_ptr(), frozen.as_slice().as_ptr());
    }

    #[test]
    fn freeze_moves_the_backing_vec_without_copying() {
        let mut m = BytesMut::with_capacity(32);
        m.put_slice(b"zero-copy freeze, 32 bytes long.");
        let heap = m.inner.as_ptr();
        let frozen = m.freeze();
        assert_eq!(
            frozen.as_slice().as_ptr(),
            heap,
            "freeze must reuse the builder's heap buffer"
        );
    }

    /// Pointer offset helper for the aliasing assertions (no unsafe:
    /// computed via `wrapping_add`, only ever compared for equality).
    fn unsafe_free_ptr_add(p: *const u8, n: usize) -> *const u8 {
        p.wrapping_add(n)
    }

    /// Whether `b`'s data lies inside its own 24-byte handle.
    fn held_in_handle(b: &Bytes) -> bool {
        let handle = std::ptr::from_ref(b) as usize;
        let data = b.as_slice().as_ptr() as usize;
        data >= handle && data + b.len() <= handle + std::mem::size_of::<Bytes>()
    }

    fn is_inline(b: &Bytes) -> bool {
        matches!(b.0, Repr::Inline { .. })
    }

    #[test]
    fn a_short_buffer_lives_in_its_handle_and_a_longer_one_does_not() {
        let text = [7u8; 64];
        for len in 0..=INLINE_CAP + 1 {
            let mut cursor = BytesMut::new();
            cursor.put_slice(b"header");
            cursor.put_slice(&text[..len]);
            cursor.advance(6);
            let built = [
                Bytes::from(text[..len].to_vec()),
                Bytes::copy_from_slice(&text[..len]),
                Bytes::from_static(&[7u8; 64][..len]),
                cursor.freeze(),
            ];
            for b in &built {
                assert_eq!(b.as_slice(), &text[..len]);
                assert_eq!(held_in_handle(b), len <= INLINE_CAP, "{len} bytes");
                assert_eq!(is_inline(b), len <= INLINE_CAP, "{len} bytes");
            }
        }
        assert!(held_in_handle(&Bytes::new()));
        assert!(held_in_handle(&Bytes::default()));
        assert!(held_in_handle(&Bytes::from("twenty-two bytes, max.")));
        assert!(!held_in_handle(&Bytes::from("twenty-three bytes long")));
    }

    #[test]
    fn a_short_view_of_a_shared_buffer_stays_shared() {
        let frame = Bytes::from(vec![3u8; 64]);
        let mut rest = frame.clone();
        let views = [frame.slice(1..3), rest.split_to(16), rest.split_off(40)];
        for view in &views {
            assert!(!is_inline(view));
            let p = view.as_slice().as_ptr() as usize;
            let base = frame.as_slice().as_ptr() as usize;
            assert!(p >= base && p + view.len() <= base + frame.len());
        }
        rest.advance(2);
        let copied = rest.copy_to_bytes(4);
        assert!(!is_inline(&copied));
        assert_eq!(copied.as_slice().as_ptr(), frame[18..].as_ptr());
    }

    /// The hash a `HashMap` would use for `b`.
    fn hash_of(b: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_and_shared_buffers_with_equal_bytes_are_one_key() {
        // Sixteen-byte keys as MRP-Store holds them, inline.
        let key = |i: u32| format!("user{i:012}").into_bytes();
        let map: std::collections::BTreeMap<Bytes, u32> =
            (0..8).map(|i| (Bytes::from(key(i)), i)).collect();
        // One frame carrying the keys in reverse order, each behind a
        // one-byte tag: every key read from it is a view of the frame.
        let mut frame = BytesMut::new();
        for i in (0..8).rev() {
            frame.put_u8(0xA5);
            frame.put_slice(&key(i));
        }
        let mut frame = frame.freeze();
        for i in (0..8).rev() {
            assert_eq!(frame.get_u8(), 0xA5);
            let sliced = frame.split_to(16);
            assert!(!is_inline(&sliced));
            let inline = Bytes::from(key(i));
            assert!(is_inline(&inline));
            assert_eq!(map.get(&sliced), Some(&i));
            assert_eq!(sliced, inline);
            assert_eq!(sliced.cmp(&inline), std::cmp::Ordering::Equal);
            assert_eq!(hash_of(&sliced), hash_of(&inline));
            assert_eq!(format!("{sliced:?}"), format!("{inline:?}"));
        }
        // Order is by content across the two representations.
        let long = Bytes::from(vec![b'a'; 40]);
        let short = Bytes::from(vec![b'b'; 3]);
        assert!(long < short && long.slice(..3) < short);
        assert!(Bytes::new() < long.slice(..1));
    }

    proptest::proptest! {
        /// Every way of cutting a buffer on either side of the inline
        /// limit agrees with the same cut of a plain `Vec`.
        #[test]
        fn prop_cuts_agree_with_a_vec(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..49),
            read in 0usize..8,
            ops in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..12),
        ) {
            let read = read.min(data.len());
            let mut builder = BytesMut::new();
            builder.put_slice(&data);
            builder.advance(read);
            let mut model = data[read..].to_vec();
            let mut b = builder.freeze();
            proptest::prop_assert_eq!(is_inline(&b), model.len() <= INLINE_CAP);
            for op in ops {
                let len = model.len();
                let at = (op >> 8) as usize % (len + 1);
                let to = at + (op >> 24) as usize % (len - at + 1);
                let shared = !is_inline(&b);
                let cut = match op % 5 {
                    0 => {
                        let view = b.slice(at..to);
                        proptest::prop_assert_eq!(&view[..], &model[at..to]);
                        view
                    }
                    1 => {
                        let head = b.split_to(at);
                        proptest::prop_assert_eq!(&head[..], &model[..at]);
                        model.drain(..at);
                        head
                    }
                    2 => {
                        let tail = b.split_off(at);
                        proptest::prop_assert_eq!(&tail[..], &model[at..]);
                        model.truncate(at);
                        tail
                    }
                    3 => {
                        b.advance(at);
                        model.drain(..at);
                        b.clone()
                    }
                    _ => {
                        let copied = b.copy_to_bytes(at);
                        proptest::prop_assert_eq!(&copied[..], &model[..at]);
                        model.drain(..at);
                        copied
                    }
                };
                // A cut of a shared buffer is a view of it; a cut of
                // an inline one is inline.
                proptest::prop_assert_eq!(is_inline(&cut), !shared);
                proptest::prop_assert_eq!(is_inline(&b), !shared);
                proptest::prop_assert_eq!(&b[..], &model[..]);
                proptest::prop_assert_eq!(b.len(), model.len());
                proptest::prop_assert_eq!(b.is_empty(), model.is_empty());
            }
        }
    }

    #[test]
    fn slice_buf_impl() {
        let mut s: &[u8] = &[9, 1, 0];
        assert_eq!(s.get_u8(), 9);
        assert_eq!(s.get_u16_le(), 1);
        assert_eq!(s.remaining(), 0);
    }
}
