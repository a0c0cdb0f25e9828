//! Property-based tests of the core data structures and protocols.

use dopencl::coherence::{BufferDirectory, CoherenceMode, CoherenceState};
use dopencl::protocol::{BatchCommand, BatchEntry, Request, Response, WireValue};
use gcf::wire::{Decode, Encode};
use oclc::{Scalar, ScalarType, Value};
use proptest::prelude::*;

fn arbitrary_scalar_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(|v| Value::int(v as i64)),
        any::<u32>().prop_map(|v| Value::uint(v as u64)),
        any::<u64>().prop_map(Value::size_t),
        any::<f32>().prop_map(Value::float),
        any::<f64>().prop_map(Value::double),
        any::<bool>().prop_map(Value::boolean),
        proptest::collection::vec(any::<f32>(), 2..=4).prop_map(|lanes| Value::Vector(
            ScalarType::Float,
            lanes.into_iter().map(|v| Scalar::F(v as f64)).collect()
        )),
    ]
}

proptest! {
    /// Every wire value survives an encode/decode round trip.
    #[test]
    fn wire_values_roundtrip(value in arbitrary_scalar_value()) {
        let wire = WireValue(value);
        let bytes = wire.to_bytes();
        let back = WireValue::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, wire);
    }

    /// Requests survive an encode/decode round trip for arbitrary ids,
    /// sizes and wait lists (a write riding a one-entry batch).
    #[test]
    fn requests_roundtrip(
        queue in any::<u64>(),
        buffer in any::<u64>(),
        offset in any::<u32>(),
        size in any::<u32>(),
        event in any::<u64>(),
        stream in any::<u64>(),
        wait in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let command = BatchCommand::WriteBuffer {
            buffer_id: buffer,
            offset: offset as u64,
            size: size as u64,
            stream_id: stream,
        };
        let request = Request::EnqueueBatch {
            entries: vec![BatchEntry {
                command_id: 1,
                queue_id: queue,
                event_id: event,
                wait_events: wait,
                command,
            }],
        };
        let bytes = request.to_bytes();
        prop_assert_eq!(Request::from_bytes(&bytes).unwrap(), request);
    }

    /// Arbitrary byte garbage never panics the decoders; it either decodes
    /// to a valid message or reports a codec error.
    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Request::from_bytes(&bytes);
        let _ = Response::from_bytes(&bytes);
        let _ = gcf::Envelope::from_bytes(&bytes);
    }

    /// Scalar load/store through the interpreter's memory helpers is an
    /// identity for every scalar type and aligned offset.
    #[test]
    fn scalar_load_store_roundtrip(
        value in any::<i32>(),
        offset in 0usize..8,
        type_index in 0usize..8,
    ) {
        let types = [
            ScalarType::Char, ScalarType::UChar, ScalarType::Short, ScalarType::UShort,
            ScalarType::Int, ScalarType::UInt, ScalarType::Long, ScalarType::ULong,
        ];
        let ty = types[type_index];
        let mut bytes = vec![0u8; 24];
        oclc::value::store_scalar(&mut bytes, offset, ty, Scalar::I(value as i64)).unwrap();
        let loaded = oclc::value::load_scalar(&bytes, offset, ty).unwrap();
        let expected = oclc::value::convert_scalar(Scalar::I(value as i64), ty);
        prop_assert_eq!(loaded.as_i64(), expected.as_i64());
    }

    /// MSI invariant: after any sequence of operations there is at most one
    /// modified copy, and if one exists every other copy (including the
    /// client's) is invalid.  Holds under both coherence policies.
    #[test]
    fn msi_directory_invariants(
        whole in any::<bool>(),
        ops in proptest::collection::vec((0usize..4, 0usize..3), 1..40),
    ) {
        let servers = [0usize, 1, 2];
        let mode = if whole { CoherenceMode::Whole } else { CoherenceMode::Range };
        let mut dir = BufferDirectory::new_with_mode(servers, 64, mode);
        for (op, server) in ops {
            match op {
                0 => dir.record_host_write(server, 0, &[1u8; 64]),
                1 => dir.record_device_write(server),
                2 => {
                    // Run the validation plan the client driver would run.
                    let plan = dir.plan_delta(server);
                    if let Some(fetch) = plan.fetches.first() {
                        let data = dir.client_data();
                        dir.record_client_fetch(fetch.source, data);
                    }
                    if !plan.is_noop() {
                        dir.record_upload(server);
                    }
                }
                _ => dir.record_host_read(server, 0, &[0u8; 64]),
            }
            let modified: Vec<usize> = servers
                .iter()
                .copied()
                .filter(|s| dir.server_state(*s) == CoherenceState::Modified)
                .collect();
            prop_assert!(modified.len() <= 1, "more than one modified copy: {modified:?}");
            if let Some(owner) = modified.first() {
                prop_assert_eq!(dir.client_state(), CoherenceState::Invalid);
                for s in servers {
                    if s != *owner {
                        prop_assert_eq!(dir.server_state(s), CoherenceState::Invalid);
                    }
                }
            }
            // After running a validation plan for a server, that server must
            // hold a valid copy.
            if op == 2 {
                prop_assert_ne!(dir.server_state(server), CoherenceState::Invalid);
            }
        }
    }

    /// The OpenCL C front end never panics on arbitrary printable input —
    /// it either builds (which now includes lowering to bytecode) or reports
    /// diagnostics.
    #[test]
    fn compiler_never_panics_on_arbitrary_source(source in "[ -~\\n]{0,200}") {
        let _ = oclc::Program::build(&source);
    }

    /// The lexer never panics on arbitrary input — including non-ASCII
    /// characters and unterminated constructs — and whatever token stream it
    /// does produce never panics the parser.
    #[test]
    fn lexer_and_parser_never_panic(source in "[ -~\\n\\tα-ω°-¿]{0,300}") {
        if let Ok(tokens) = oclc::lexer::lex(&source) {
            let _ = oclc::parser::parse(&tokens);
        }
    }

    /// Token-soup fuzz: gluing together valid OpenCL C fragments reaches far
    /// deeper into the parser and semantic checker than character noise
    /// does.  No combination may panic; the ones that build must also lower
    /// to bytecode without panicking (lowering runs inside `build`).
    #[test]
    fn parser_never_panics_on_token_soup(
        indices in proptest::collection::vec(0usize..39, 0..60)
    ) {
        const PIECES: [&str; 39] = [
            "__kernel", "void", "float", "int", "uint", "__global", "__local", "*", "(", ")",
            "{", "}", ";", ",", "=", "+", "k", "x", "1", "2.0f", "if", "else", "for", "while",
            "return", "break", "continue", "barrier", "get_global_id", "float4", ".", "xy",
            "[", "]", "<", "?", ":", "++", "&&",
        ];
        let words: Vec<&str> = indices.iter().map(|&i| PIECES[i]).collect();
        let source = words.join(" ");
        let _ = oclc::Program::build(&source);
    }

    /// Phase breakdowns combine like durations: serial merge adds totals,
    /// parallel merge never exceeds the serial one.
    #[test]
    fn phase_breakdown_merge_laws(
        a in proptest::collection::vec(0u64..1_000_000, 3),
        b in proptest::collection::vec(0u64..1_000_000, 3),
    ) {
        use gcf::simtime::PhaseBreakdown;
        use std::time::Duration;
        let mk = |v: &[u64]| PhaseBreakdown {
            initialization: Duration::from_micros(v[0]),
            execution: Duration::from_micros(v[1]),
            data_transfer: Duration::from_micros(v[2]),
        };
        let (x, y) = (mk(&a), mk(&b));
        let serial = x.merge_serial(&y);
        let parallel = x.merge_parallel(&y);
        prop_assert_eq!(serial.total(), x.total() + y.total());
        prop_assert!(parallel.total() <= serial.total());
        prop_assert!(parallel.execution >= x.execution.max(y.execution) - Duration::from_nanos(1));
    }
}
