//! The checked-in `net_frame` fuzz corpus must speak the current wire
//! version. If `WIRE_VERSION` moves on without the corpus being
//! regenerated (`cargo run --release -p plasma-fuzz --bin net_frame --
//! gen-corpus`), every mutated input fails at the version byte and the
//! fuzz run never reaches the payload decoders.

use plasma_net::{Frame, WIRE_VERSION};

#[test]
fn conversation_seed_decodes_at_current_wire_version() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fuzz/corpus/net_frame/conversation.bin"
    );
    let bytes = std::fs::read(path).expect("read the net_frame conversation seed");
    let mut rest = &bytes[..];
    let mut frames = 0;
    while !rest.is_empty() {
        match Frame::decode_prefix(rest) {
            Ok(Some((_, consumed))) => {
                rest = &rest[consumed..];
                frames += 1;
            }
            Ok(None) => panic!("torn frame after {frames} frames"),
            Err(e) => panic!(
                "frame {frames} fails to decode at wire v{WIRE_VERSION}: {e:?}; \
                 regenerate the corpus"
            ),
        }
    }
    assert!(frames > 0, "the conversation seed holds no frames");
}
