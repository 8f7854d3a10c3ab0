//! The dLog command set (Table 2 of the paper) and its wire encoding.

use bytes::{BufMut, Bytes, BytesMut};
use multiring_paxos::codec::{
    get_bytes, get_seq, get_u16, get_u64, get_u8, put_bytes, wire_tags, CodecError,
};

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
    enum CommandTag {
        Append = 1,
        MultiAppend = 2,
        Read = 3,
        Trim = 4,
    }
}

wire_tags! {
    /// The byte a [`DLogResponse`] opens with: one per variant, two for
    /// the two arms of `Value`.
    enum ResponseTag {
        Pos = 1,
        MultiPos = 2,
        ValueNone = 3,
        ValueSome = 4,
        Ok = 5,
    }
}

impl DLogCommand {
    /// Encodes the command.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            DLogCommand::Append { log, data } => {
                buf.put_u8(CommandTag::Append as u8);
                buf.put_u16_le(*log);
                put_bytes(&mut buf, data);
            }
            DLogCommand::MultiAppend { logs, data } => {
                buf.put_u8(CommandTag::MultiAppend as u8);
                buf.put_u16_le(logs.len() as u16);
                for l in logs {
                    buf.put_u16_le(*l);
                }
                put_bytes(&mut buf, data);
            }
            DLogCommand::Read { log, pos } => {
                buf.put_u8(CommandTag::Read as u8);
                buf.put_u16_le(*log);
                buf.put_u64_le(*pos);
            }
            DLogCommand::Trim { log, pos } => {
                buf.put_u8(CommandTag::Trim as u8);
                buf.put_u16_le(*log);
                buf.put_u64_le(*pos);
            }
        }
        buf.freeze()
    }

    /// Decodes a command; `None` on malformed input.
    pub fn decode(buf: &mut Bytes) -> Option<DLogCommand> {
        Self::read(buf).ok()
    }

    fn read(buf: &mut Bytes) -> Result<DLogCommand, CodecError> {
        match CommandTag::from_u8(get_u8(buf)?)? {
            CommandTag::Append => Ok(DLogCommand::Append {
                log: get_u16(buf)?,
                data: get_bytes(buf)?,
            }),
            CommandTag::MultiAppend => Ok(DLogCommand::MultiAppend {
                logs: get_seq(get_u16(buf)?.into(), buf, get_u16)?,
                data: get_bytes(buf)?,
            }),
            CommandTag::Read => Ok(DLogCommand::Read {
                log: get_u16(buf)?,
                pos: get_u64(buf)?,
            }),
            CommandTag::Trim => Ok(DLogCommand::Trim {
                log: get_u16(buf)?,
                pos: get_u64(buf)?,
            }),
        }
    }
}

impl DLogResponse {
    /// Encodes the response.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            DLogResponse::Pos(p) => {
                buf.put_u8(ResponseTag::Pos as u8);
                buf.put_u64_le(*p);
            }
            DLogResponse::MultiPos(ps) => {
                buf.put_u8(ResponseTag::MultiPos as u8);
                buf.put_u16_le(ps.len() as u16);
                for (l, p) in ps {
                    buf.put_u16_le(*l);
                    buf.put_u64_le(*p);
                }
            }
            DLogResponse::Value(None) => buf.put_u8(ResponseTag::ValueNone as u8),
            DLogResponse::Value(Some(v)) => {
                buf.put_u8(ResponseTag::ValueSome as u8);
                put_bytes(&mut buf, v);
            }
            DLogResponse::Ok => buf.put_u8(ResponseTag::Ok as u8),
        }
        buf.freeze()
    }

    /// Decodes a response; `None` on malformed input.
    pub fn decode(buf: &mut Bytes) -> Option<DLogResponse> {
        Self::read(buf).ok()
    }

    fn read(buf: &mut Bytes) -> Result<DLogResponse, CodecError> {
        match ResponseTag::from_u8(get_u8(buf)?)? {
            ResponseTag::Pos => Ok(DLogResponse::Pos(get_u64(buf)?)),
            ResponseTag::MultiPos => Ok(DLogResponse::MultiPos(get_seq(
                get_u16(buf)?.into(),
                buf,
                |buf| Ok((get_u16(buf)?, get_u64(buf)?)),
            )?)),
            ResponseTag::ValueNone => Ok(DLogResponse::Value(None)),
            ResponseTag::ValueSome => Ok(DLogResponse::Value(Some(get_bytes(buf)?))),
            ResponseTag::Ok => Ok(DLogResponse::Ok),
        }
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

    /// Exhaustive on purpose: a new variant does not compile here until
    /// it names its tag, and then [`every_tag_opens_a_golden`] wants
    /// its bytes pinned.
    fn command_tag_of(cmd: &DLogCommand) -> CommandTag {
        match cmd {
            DLogCommand::Append { .. } => CommandTag::Append,
            DLogCommand::MultiAppend { .. } => CommandTag::MultiAppend,
            DLogCommand::Read { .. } => CommandTag::Read,
            DLogCommand::Trim { .. } => CommandTag::Trim,
        }
    }

    fn response_tag_of(response: &DLogResponse) -> ResponseTag {
        match response {
            DLogResponse::Pos(_) => ResponseTag::Pos,
            DLogResponse::MultiPos(_) => ResponseTag::MultiPos,
            DLogResponse::Value(None) => ResponseTag::ValueNone,
            DLogResponse::Value(Some(_)) => ResponseTag::ValueSome,
            DLogResponse::Ok => ResponseTag::Ok,
        }
    }

    /// Every byte the reader takes for a tag opens a pinned encoding of
    /// the variant it stands for: a tag nobody writes, a variant nobody
    /// pinned and a variant written under another's tag all end here.
    #[test]
    fn every_tag_opens_a_golden() {
        for tag in (0..=u8::MAX).filter_map(|byte| CommandTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(cmd, pinned): &(DLogCommand, &str)| {
                command_tag_of(cmd) == tag && pinned.starts_with(&opens)
            };
            assert!(golden_commands().iter().any(pins), "no golden for {tag:?}");
        }
        for tag in (0..=u8::MAX).filter_map(|byte| ResponseTag::from_u8(byte).ok()) {
            let opens = format!("{:02x}", tag as u8);
            let pins = |(response, pinned): &(DLogResponse, &str)| {
                response_tag_of(response) == tag && pinned.starts_with(&opens)
            };
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
