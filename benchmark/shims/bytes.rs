//! Minimal stand-in for the `bytes` crate sufficient for vira-extract
//! and vira-comm: contiguous byte buffers with little-endian accessors.

use std::ops::Deref;
use std::sync::Arc;

#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::default()
    }

    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn slice(&self, r: std::ops::Range<usize>) -> Bytes {
        assert!(r.start <= r.end && self.start + r.end <= self.end);
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + r.start,
            end: self.start + r.end,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { data: v.to_vec() }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

pub trait Buf {
    fn remaining(&self) -> usize;
    fn advance(&mut self, n: usize);
    fn chunk_bytes(&self) -> &[u8];

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk_bytes()[0];
        self.advance(1);
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let c = self.chunk_bytes();
        let v = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let c = self.chunk_bytes();
        let v = u64::from_le_bytes(c[..8].try_into().unwrap());
        self.advance(8);
        v
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len());
        self.start += n;
    }

    fn chunk_bytes(&self) -> &[u8] {
        self
    }
}

pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}
