//! The dLog command set (Table 2 of the paper) and its wire encoding.

use bytes::Bytes;
use multiring_paxos::codec::{wire_tags, Short, Wire};

/// Identifies one log.
pub type LogId = u16;

/// One dLog operation (Table 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DLogCommand {
    /// `append(l, v)`: append `v` to log `l`; returns the position.
    Append {
        /// Target log.
        log: LogId,
        /// Data.
        data: Bytes,
    },
    /// `multi-append(L, v)`: append `v` to every log in `L` atomically;
    /// returns one position per log.
    MultiAppend {
        /// Target logs.
        logs: Vec<LogId>,
        /// Data.
        data: Bytes,
    },
    /// `read(l, p)`: return the value at position `p` of log `l`.
    Read {
        /// Log.
        log: LogId,
        /// Position.
        pos: u64,
    },
    /// `trim(l, p)`: trim log `l` up to position `p`.
    Trim {
        /// Log.
        log: LogId,
        /// Position (entries strictly below are dropped).
        pos: u64,
    },
}

/// The response to a [`DLogCommand`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DLogResponse {
    /// Position assigned by an append.
    Pos(u64),
    /// Positions assigned by a multi-append, in log order.
    MultiPos(Vec<(LogId, u64)>),
    /// Value returned by a read (`None` if unknown position or trimmed
    /// out of the cache).
    Value(Option<Bytes>),
    /// Trim acknowledged.
    Ok,
}

wire_tags! {
    /// The byte a [`DLogCommand`] opens with, one per variant.
    enum CommandTag for DLogCommand {
        Append = 1 { log, data },
        MultiAppend = 2 { logs: Short, data },
        Read = 3 { log, pos },
        Trim = 4 { log, pos },
    }
}

wire_tags! {
    /// The byte a [`DLogResponse`] opens with: one per variant, two for
    /// the two arms of `Value`.
    enum ResponseTag for DLogResponse {
        Pos = 1 (pos),
        MultiPos = 2 (positions: Short),
        ValueNone = 3 => Value(None),
        ValueSome = 4 => Value(Some(value)),
        Ok = 5,
    }
}

impl DLogCommand {
    /// Encodes the command.
    pub fn encode(&self) -> Bytes {
        self.to_bytes()
    }

    /// Decodes a command; `None` on malformed input.
    pub fn decode(buf: &mut Bytes) -> Option<DLogCommand> {
        Self::get(buf).ok()
    }
}

impl DLogResponse {
    /// Encodes the response.
    pub fn encode(&self) -> Bytes {
        self.to_bytes()
    }

    /// Decodes a response; `None` on malformed input.
    pub fn decode(buf: &mut Bytes) -> Option<DLogResponse> {
        Self::get(buf).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;
    use proptest::prelude::*;

    const C_APPEND: u8 = CommandTag::Append as u8;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every byte the reader takes for a tag opens a pinned encoding: a
    /// tag nobody writes and a variant nobody pinned end here (and one
    /// written under another's tag fails its golden).
    #[test]
    fn every_tag_opens_a_golden() {
        for tag in (0..=u8::MAX).filter_map(|byte| CommandTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(_, pinned): &(DLogCommand, &str)| pinned.starts_with(&opens);
            assert!(golden_commands().iter().any(pins), "no golden for {tag:?}");
        }
        for tag in (0..=u8::MAX).filter_map(|byte| ResponseTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(_, pinned): &(DLogResponse, &str)| pinned.starts_with(&opens);
            assert!(golden_responses().iter().any(pins), "no golden for {tag:?}");
        }
    }

    fn golden_commands() -> Vec<(DLogCommand, &'static str)> {
        vec![
            (
                DLogCommand::Append {
                    log: 3,
                    data: Bytes::from_static(b"entry"),
                },
                "01030005000000656e747279",
            ),
            (
                DLogCommand::MultiAppend {
                    logs: vec![0, 2, 5],
                    data: Bytes::from_static(b"multi"),
                },
                "020300000002000500050000006d756c7469",
            ),
            (
                DLogCommand::Read { log: 1, pos: 42 },
                "0301002a00000000000000",
            ),
            (
                DLogCommand::Trim { log: 1, pos: 40 },
                "0401002800000000000000",
            ),
        ]
    }

    fn golden_responses() -> Vec<(DLogResponse, &'static str)> {
        vec![
            (DLogResponse::Pos(9), "010900000000000000"),
            (
                DLogResponse::MultiPos(vec![(0, 1), (1, 7)]),
                "0202000000010000000000000001000700000000000000",
            ),
            (DLogResponse::Value(None), "03"),
            (
                DLogResponse::Value(Some(Bytes::from_static(b"v"))),
                "040100000076",
            ),
            (DLogResponse::Ok, "05"),
        ]
    }

    /// Every variant with the bytes clients and servers exchange,
    /// pinned before the codec rewrite: a moved byte is a format
    /// change, not a refactor.
    #[test]
    fn commands_and_responses_encode_to_the_pinned_bytes() {
        for (cmd, pinned) in golden_commands() {
            assert_eq!(hex(&cmd.encode()), pinned, "{cmd:?}");
        }
        for (response, pinned) in golden_responses() {
            assert_eq!(hex(&response.encode()), pinned, "{response:?}");
        }
    }

    #[test]
    fn command_roundtrips() {
        for cmd in [
            DLogCommand::Append {
                log: 3,
                data: Bytes::from_static(b"entry"),
            },
            DLogCommand::MultiAppend {
                logs: vec![0, 2, 5],
                data: Bytes::from_static(b"multi"),
            },
            DLogCommand::Read { log: 1, pos: 42 },
            DLogCommand::Trim { log: 1, pos: 40 },
        ] {
            let mut enc = cmd.encode();
            assert_eq!(DLogCommand::decode(&mut enc).unwrap(), cmd);
            assert_eq!(enc.remaining(), 0);
        }
    }

    #[test]
    fn response_roundtrips() {
        for r in [
            DLogResponse::Pos(9),
            DLogResponse::MultiPos(vec![(0, 1), (1, 7)]),
            DLogResponse::Value(None),
            DLogResponse::Value(Some(Bytes::from_static(b"v"))),
            DLogResponse::Ok,
        ] {
            let mut enc = r.encode();
            assert_eq!(DLogResponse::decode(&mut enc).unwrap(), r);
        }
    }

    #[test]
    fn malformed_rejected() {
        let mut bad = Bytes::from_static(&[C_APPEND, 0]);
        assert!(DLogCommand::decode(&mut bad).is_none());
        let mut empty = Bytes::new();
        assert!(DLogResponse::decode(&mut empty).is_none());
    }

    /// Every field is fixed-size or length-prefixed, so no valid
    /// encoding has a valid encoding as a strict prefix.
    #[test]
    fn every_strict_prefix_of_a_valid_encoding_is_rejected() {
        for (cmd, _) in golden_commands() {
            let full = cmd.encode();
            for cut in 0..full.len() {
                let prefix = DLogCommand::decode(&mut full.slice(..cut));
                assert_eq!(prefix, None, "{cmd:?} cut at {cut}");
            }
        }
        for (response, _) in golden_responses() {
            let full = response.encode();
            for cut in 0..full.len() {
                let prefix = DLogResponse::decode(&mut full.slice(..cut));
                assert_eq!(prefix, None, "{response:?} cut at {cut}");
            }
        }
    }

    /// `valid` with one byte in four overwritten from `noise`, by a
    /// value below 64 — a tag, a small count or length. Unlike uniform
    /// noise, which dies at the first tag, this reaches the fields.
    fn damaged(valid: &[u8], noise: &[u8]) -> Bytes {
        let mut bytes = valid.to_vec();
        for (b, n) in bytes.iter_mut().zip(noise) {
            if n % 4 == 0 {
                *b = n / 4;
            }
        }
        Bytes::from(bytes)
    }

    proptest! {
        /// Uniform noise, and the same noise laid over a valid command
        /// and a valid response.
        #[test]
        fn prop_decoding_arbitrary_bytes_never_panics(
            noise in proptest::collection::vec(any::<u8>(), 0..512),
            pick in any::<u64>(),
        ) {
            let _ = DLogCommand::decode(&mut Bytes::from(noise.clone()));
            let _ = DLogResponse::decode(&mut Bytes::from(noise.clone()));
            let (commands, responses) = (golden_commands(), golden_responses());
            let (cmd, _) = &commands[pick as usize % commands.len()];
            let _ = DLogCommand::decode(&mut damaged(&cmd.encode(), &noise));
            let (response, _) = &responses[pick as usize % responses.len()];
            let _ = DLogResponse::decode(&mut damaged(&response.encode(), &noise));
        }
    }
}
