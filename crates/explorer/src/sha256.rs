// Minimal SHA-256 (FIPS 180-4), dependency-free.
//
// The explorer keys its point cache on content hashes of canonical
// descriptors and on a build-time source fingerprint; both need a
// stable cryptographic digest with no external crate. This file is
// `include!`d by `build.rs` as well, so it must stay free of any
// `crate::` references — and of `//!` inner doc comments, which cannot
// survive the `include!` into a `mod` block.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A running SHA-256 computation fed incrementally.
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    /// The partial block not yet compressed: `buf[..fill]`.
    buf: [u8; 64],
    fill: usize,
    len: u64,
}

impl Sha256 {
    /// Starts a fresh digest.
    pub fn new() -> Self {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            fill: 0,
            len: 0,
        }
    }

    /// Absorbs bytes. Whole blocks compress straight from `data`; only
    /// a partial block is copied into the buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.fill > 0 {
            let take = data.len().min(64 - self.fill);
            self.buf[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < 64 {
                return;
            }
            compress(&mut self.h, &self.buf);
            self.fill = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.h, block.try_into().unwrap());
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
    }

    /// Finishes the digest, yielding the 64-char lowercase hex form.
    pub fn finish_hex(mut self) -> String {
        let bit_len = self.len * 8;
        // Padding: 0x80, zeros up to 56 bytes mod 64, then the length;
        // the 0x80 and the length may spill into a second block.
        let mut tail = [0u8; 128];
        tail[..self.fill].copy_from_slice(&self.buf[..self.fill]);
        tail[self.fill] = 0x80;
        let end = if self.fill < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        for block in tail[..end].chunks_exact(64) {
            compress(&mut self.h, block.try_into().unwrap());
        }
        // Digits written one by one: no formatting machinery, and no
        // import, so build.rs can still include this file.
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(64);
        for v in self.h {
            for shift in (0..8).rev() {
                out.push(DIGITS[(v >> (4 * shift)) as usize & 0xf] as char);
            }
        }
        out
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *slot = slot.wrapping_add(v);
    }
}

/// SHA-256 of `data` as 64 lowercase hex chars.
pub fn hex(data: &[u8]) -> String {
    let mut s = Sha256::new();
    s.update(data);
    s.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // FIPS 180-4 / RFC 6234 test vectors.
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        for step in [1, 17, 63, 64, 65, 200] {
            let mut s = Sha256::new();
            for chunk in data.chunks(step) {
                s.update(chunk);
            }
            assert_eq!(s.finish_hex(), hex(&data), "chunks of {step}");
        }
    }

    /// Every message length around the one- and two-block padding
    /// boundaries hashes as a one-shot and a byte-at-a-time digest
    /// agree, and the lengths the padding splits on match known sums.
    #[test]
    fn padding_boundaries_agree() {
        let data = [b'a'; 130];
        for n in 0..data.len() {
            let mut s = Sha256::new();
            for b in &data[..n] {
                s.update(std::slice::from_ref(b));
            }
            assert_eq!(s.finish_hex(), hex(&data[..n]), "length {n}");
        }
        // 55, 56 and 64 bytes: the last length that pads in one block,
        // the first that spills, and one whole block.
        assert_eq!(
            hex(&data[..55]),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"
        );
        assert_eq!(
            hex(&data[..56]),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
        );
        assert_eq!(
            hex(&data[..64]),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }
}
