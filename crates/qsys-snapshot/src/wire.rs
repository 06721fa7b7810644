//! Hand-rolled binary encoding for snapshot sections.
//!
//! The workspace carries no serialization dependency, and the snapshot
//! loader must survive arbitrary byte corruption, so the wire layer is a
//! small fixed-width little-endian encoding with a bounds-checked reader:
//! every read returns `Result`, counts are sanity-checked against the
//! remaining buffer before allocating, and no input can panic the decoder.
//! Compactness is a non-goal — snapshots are tens of kilobytes and the
//! value of a format a debugger can eyeball exceeds a varint's savings.

use qsys_query::{SigId, SubExprSig};
use qsys_types::{RelId, Selection, Value};

/// Checksum used for per-section framing: CRC-32 (IEEE 802.3 polynomial,
/// reflected), computed bitwise — the table would be larger than the code.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit — the catalog fingerprint hash. `DefaultHasher` is
/// explicitly unstable across Rust releases; a snapshot fingerprint must
/// hash identically on whatever toolchain reloads it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only encoder over a byte vector.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn sig_id(&mut self, id: SigId) {
        self.u32(id.0);
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.u64(*i as u64);
            }
            Value::Float(f) => {
                self.u8(2);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(3);
                self.str(s);
            }
        }
    }

    pub fn selection(&mut self, s: &Selection) {
        self.u64(s.column as u64);
        self.value(&s.value);
    }

    pub fn sub_expr_sig(&mut self, sig: &SubExprSig) {
        self.u32(sig.atoms.len() as u32);
        for (rel, sel) in &sig.atoms {
            self.u32(rel.0);
            match sel {
                None => self.u8(0),
                Some(s) => {
                    self.u8(1);
                    self.selection(s);
                }
            }
        }
        self.u32(sig.joins.len() as u32);
        for &(l, lc, r, rc) in &sig.joins {
            self.u32(l.0);
            self.u64(lc as u64);
            self.u32(r.0);
            self.u64(rc as u64);
        }
    }

    pub fn sig_ids(&mut self, ids: &[SigId]) {
        self.u32(ids.len() as u32);
        for &id in ids {
            self.sig_id(id);
        }
    }
}

/// Bounds-checked reader; every method fails soft so corrupt bytes can
/// never panic the loader.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn done(&self) -> bool {
        self.remaining() == 0
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "short section: wanted {n} bytes, {} remain",
                self.remaining()
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Exactly `N` bytes as an array. `bytes(N)` already errors on a
    /// short section, so the slice-to-array conversion is checked once
    /// here instead of unwrapped at every scalar reader.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| format!("short read for {N}-byte scalar"))
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "count exceeds usize".to_string())
    }

    /// An element count, validated against the bytes actually present
    /// (`min_elem_bytes` each) so a corrupt length cannot provoke a huge
    /// allocation before the decode fails.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(format!("count {n} exceeds section size"));
        }
        Ok(n)
    }

    pub fn str(&mut self) -> Result<String, String> {
        let n = self.count(1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in string".to_string())
    }

    pub fn sig_id(&mut self) -> Result<SigId, String> {
        Ok(SigId(self.u32()?))
    }

    pub fn value(&mut self) -> Result<Value, String> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.u64()? as i64)),
            2 => Ok(Value::Float(self.f64()?)),
            3 => Ok(Value::str(self.str()?)),
            t => Err(format!("unknown value tag {t}")),
        }
    }

    pub fn selection(&mut self) -> Result<Selection, String> {
        let column = self.usize()?;
        let value = self.value()?;
        Ok(Selection { column, value })
    }

    pub fn sub_expr_sig(&mut self) -> Result<SubExprSig, String> {
        let n_atoms = self.count(5)?;
        let mut atoms = Vec::with_capacity(n_atoms);
        for _ in 0..n_atoms {
            let rel = RelId::new(self.u32()?);
            let sel = match self.u8()? {
                0 => None,
                1 => Some(self.selection()?),
                t => return Err(format!("unknown selection tag {t}")),
            };
            atoms.push((rel, sel));
        }
        let n_joins = self.count(24)?;
        let mut joins = Vec::with_capacity(n_joins);
        for _ in 0..n_joins {
            let l = RelId::new(self.u32()?);
            let lc = self.usize()?;
            let r = RelId::new(self.u32()?);
            let rc = self.usize()?;
            joins.push((l, lc, r, rc));
        }
        Ok(SubExprSig { atoms, joins })
    }

    pub fn sig_ids(&mut self) -> Result<Vec<SigId>, String> {
        let n = self.count(4)?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(self.sig_id()?);
        }
        Ok(ids)
    }

    /// The decode consumed exactly the section body.
    pub fn finish(self) -> Result<(), String> {
        if self.done() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in section", self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(70_000);
        e.u64(1 << 40);
        e.f64(-2.5);
        e.str("héllo");
        e.sig_id(SigId(42));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.f64().unwrap(), -2.5);
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.sig_id().unwrap(), SigId(42));
        assert!(d.finish().is_ok());
    }

    #[test]
    fn composites_round_trip() {
        let sig = SubExprSig {
            atoms: vec![
                (RelId::new(1), None),
                (RelId::new(2), Some(Selection::eq(3, Value::str("kw")))),
            ],
            joins: vec![(RelId::new(1), 0, RelId::new(2), 1)],
        };
        let mut e = Enc::new();
        e.sub_expr_sig(&sig);
        e.value(&Value::Null);
        e.value(&Value::Int(-9));
        e.value(&Value::Float(f64::NEG_INFINITY));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.sub_expr_sig().unwrap(), sig);
        assert_eq!(d.value().unwrap(), Value::Null);
        assert_eq!(d.value().unwrap(), Value::Int(-9));
        assert_eq!(d.value().unwrap(), Value::Float(f64::NEG_INFINITY));
        assert!(d.finish().is_ok());
    }

    #[test]
    fn corrupt_counts_fail_soft() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // an absurd element count with no bytes behind it
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).sig_ids().is_err());
        assert!(Dec::new(&bytes).str().is_err());
        assert!(Dec::new(&[]).u32().is_err());
        assert!(Dec::new(&[9]).value().is_err(), "unknown tag rejected");
    }
}
