//! MPI wire protocol headers.
//!
//! Every control/eager message starts with a fixed 28-byte header; the
//! rendezvous payload itself travels headerless via RDMA write-with-imm.

use cord_core::prelude::PayloadSeg;

/// Message kinds on the eager path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small message: payload follows the header.
    Eager = 0,
    /// Rendezvous request-to-send (header only).
    Rts = 1,
    /// Clear-to-send: carries the receiver's landing address and rkey.
    Cts = 2,
}

impl Kind {
    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            0 => Some(Kind::Eager),
            1 => Some(Kind::Rts),
            2 => Some(Kind::Cts),
            _ => None,
        }
    }
}

/// Encoded header length in bytes (every eager-path frame starts with one).
pub const HDR_LEN: usize = 28;

/// Decoded header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Which protocol message this frame carries.
    pub kind: Kind,
    /// MPI tag (0 for CTS, which matches on `msg_id` instead).
    pub tag: u32,
    /// Per-sender sequential message id.
    pub msg_id: u32,
    /// Eager: payload length. RTS: full message length. CTS: echo.
    pub len: u32,
    /// CTS: landing address. Otherwise 0.
    pub raddr: u64,
    /// CTS: landing rkey. Otherwise 0.
    pub rkey: u32,
}

impl Header {
    /// Serialize to the fixed wire layout.
    pub fn encode(&self) -> [u8; HDR_LEN] {
        let mut b = [0u8; HDR_LEN];
        b[0] = self.kind as u8;
        b[1..5].copy_from_slice(&self.tag.to_le_bytes());
        b[5..9].copy_from_slice(&self.msg_id.to_le_bytes());
        b[9..13].copy_from_slice(&self.len.to_le_bytes());
        b[13..21].copy_from_slice(&self.raddr.to_le_bytes());
        b[21..25].copy_from_slice(&self.rkey.to_le_bytes());
        b
    }

    /// Parse a header from the front of `b`; `None` if short or malformed.
    pub fn decode(b: &[u8]) -> Option<Header> {
        if b.len() < HDR_LEN {
            return None;
        }
        Some(Header {
            kind: Kind::from_u8(b[0])?,
            tag: u32::from_le_bytes(b[1..5].try_into().ok()?),
            msg_id: u32::from_le_bytes(b[5..9].try_into().ok()?),
            len: u32::from_le_bytes(b[9..13].try_into().ok()?),
            raddr: u64::from_le_bytes(b[13..21].try_into().ok()?),
            rkey: u32::from_le_bytes(b[21..25].try_into().ok()?),
        })
    }

    /// Header for an eager message of `len` payload bytes.
    pub fn eager(tag: u32, msg_id: u32, len: usize) -> Header {
        Header {
            kind: Kind::Eager,
            tag,
            msg_id,
            len: len as u32,
            raddr: 0,
            rkey: 0,
        }
    }

    /// Rendezvous request-to-send announcing a `len`-byte message.
    pub fn rts(tag: u32, msg_id: u32, len: usize) -> Header {
        Header {
            kind: Kind::Rts,
            tag,
            msg_id,
            len: len as u32,
            raddr: 0,
            rkey: 0,
        }
    }

    /// Clear-to-send carrying the receiver's landing zone for `msg_id`.
    pub fn cts(msg_id: u32, len: usize, raddr: u64, rkey: u32) -> Header {
        Header {
            kind: Kind::Cts,
            tag: 0,
            msg_id,
            len: len as u32,
            raddr,
            rkey,
        }
    }
}

/// Extract the header and payload slice from an eager-path frame.
pub fn split_frame(frame: &PayloadSeg) -> Option<(Header, PayloadSeg)> {
    let hdr = Header::decode(frame)?;
    let len = if hdr.kind == Kind::Eager {
        hdr.len as usize
    } else {
        0
    };
    (frame.len() >= HDR_LEN + len).then(|| (hdr, frame.slice(HDR_LEN, len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            kind: Kind::Cts,
            tag: 0xDEAD,
            msg_id: 42,
            len: 1 << 20,
            raddr: 0xAB_CDEF,
            rkey: 77,
        };
        let enc = h.encode();
        assert_eq!(Header::decode(&enc), Some(h));
    }

    #[test]
    fn decode_rejects_short_and_bad_kind() {
        assert!(Header::decode(&[0u8; 10]).is_none());
        let mut b = [0u8; HDR_LEN];
        b[0] = 9;
        assert!(Header::decode(&b).is_none());
    }

    #[test]
    fn split_frame_extracts_payload() {
        let h = Header::eager(5, 1, 3);
        let mut v = h.encode().to_vec();
        v.extend_from_slice(b"abc");
        let (hdr, payload) = split_frame(&PayloadSeg::from(v)).unwrap();
        assert_eq!(hdr.tag, 5);
        assert_eq!(&payload[..], b"abc");
    }

    #[test]
    fn split_frame_rejects_truncated_eager() {
        let h = Header::eager(5, 1, 10);
        let v = h.encode().to_vec(); // no payload
        assert!(split_frame(&PayloadSeg::from(v)).is_none());
    }

    #[test]
    fn control_frames_have_empty_payload() {
        let h = Header::rts(1, 2, 4096);
        let v = h.encode().to_vec();
        let (hdr, payload) = split_frame(&PayloadSeg::from(v)).unwrap();
        assert_eq!(hdr.kind, Kind::Rts);
        assert!(payload.is_empty());
    }
}
