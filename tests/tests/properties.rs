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
                1 => dir.record_device_write(server, dir.full_range()),
                2 => {
                    // Run the validation plan the client driver would run.
                    let plan = dir.plan_delta(server, dir.full_range());
                    for fetch in &plan.fetches {
                        let len = fetch.ranges.iter().map(|r| r.len()).sum();
                        dir.record_received(fetch.source, &fetch.ranges, &vec![0u8; len]);
                    }
                    for upload in &plan.uploads {
                        dir.record_upload(server, *upload);
                    }
                }
                _ => {
                    dir.record_received(server, &[dir.full_range()], &[0u8; 64]);
                }
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

// ---------------------------------------------------------------------------
// Completion reports: every command's status reaches the client exactly once
// ---------------------------------------------------------------------------

mod completions {
    use dopencl::protocol::{
        BatchCommand, BatchEntry, BatchEntryStatus, ClientNotification, EventCompletion,
        Notification, ObjectId, Request, Response, WireNdRange,
    };
    use dopencl::{LinkModel, LocalCluster, NdRange};
    use gcf::rpc::{Endpoint, EndpointHandler};
    use gcf::transport::Transport;
    use gcf::wire::{Decode, Encode};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::{Duration, Instant};
    use vocl::{CommandQueue, Context, Event, Platform, QueueProperties};

    const INC: &str = "__kernel void inc(__global int* a) { a[get_global_id(0)] += 1; }";
    const QUEUE: ObjectId = 2;
    const GOOD_KERNEL: ObjectId = 5;
    /// Its buffer argument is never set, so it fails when it runs.
    const BAD_KERNEL: ObjectId = 6;

    /// One command of a random event graph: a launch, or a small read of
    /// the launches' buffer, which the daemon may run inline.
    #[derive(Debug, Clone)]
    pub struct Node {
        pub server: usize,
        pub reads: bool,
        /// A launch whose kernel fails when it runs.
        pub fails: bool,
        /// Indices of earlier nodes it waits on.
        pub waits: Vec<usize>,
        /// The batch it rides ends after it.
        pub ends_batch: bool,
    }

    /// A small client that reports what it hears and forwards statuses to
    /// the replacements, as the client driver does.
    #[derive(Default)]
    struct MiniClient {
        endpoints: OnceLock<Vec<Arc<Endpoint>>>,
        /// Every completion heard, in a frame or a response, in order.
        heard: Mutex<Vec<(ObjectId, i32)>>,
        state: Mutex<Replication>,
    }

    #[derive(Default)]
    struct Replication {
        /// Statuses heard so far.
        statuses: HashMap<ObjectId, i32>,
        /// Servers holding a replacement that still waits for its status.
        waiting: HashMap<ObjectId, Vec<usize>>,
    }

    impl MiniClient {
        fn hear(&self, completions: &[EventCompletion]) {
            for c in completions {
                self.heard.lock().unwrap().push((c.event_id, c.status));
                let mut state = self.state.lock().unwrap();
                state.statuses.insert(c.event_id, c.status);
                for server in state.waiting.remove(&c.event_id).unwrap_or_default() {
                    let forward =
                        ClientNotification::EventStatus { event_id: c.event_id, status: c.status };
                    self.endpoints.get().unwrap()[server].notify(forward.to_bytes()).unwrap();
                }
            }
        }

        /// The replacement entry for `event_id` on `server`: created with
        /// the status if it is known, else forwarded later.
        fn replicate(&self, event_id: ObjectId, server: usize) -> BatchEntry {
            let mut state = self.state.lock().unwrap();
            let status = state.statuses.get(&event_id).copied();
            if status.is_none() {
                state.waiting.entry(event_id).or_default().push(server);
            }
            let command = BatchCommand::Replacement { status };
            BatchEntry { command_id: 0, queue_id: 0, event_id, wait_events: vec![], command }
        }
    }

    struct Handler(Arc<MiniClient>);

    impl EndpointHandler for Handler {
        fn handle_request(&self, _payload: &[u8]) -> Vec<u8> {
            Vec::new()
        }
        fn handle_notification(&self, payload: &[u8]) {
            let Notification::EventsCompleted { events } =
                Notification::from_bytes(payload).unwrap();
            self.0.hear(&events);
        }
    }

    fn call(endpoint: &Endpoint, request: Request) -> Response {
        Response::from_bytes(&endpoint.call(request.to_bytes()).unwrap()).unwrap()
    }

    fn event_id(node: usize) -> ObjectId {
        1000 + node as ObjectId
    }

    /// Two daemons, shared by every case; each case is a session of its own.
    fn cluster() -> &'static LocalCluster {
        static CLUSTER: OnceLock<LocalCluster> = OnceLock::new();
        CLUSTER.get_or_init(|| {
            let mut cluster = LocalCluster::new(LinkModel::gigabit_ethernet());
            for s in 0..2 {
                cluster.add_node(&format!("node{s}"), &Platform::test_platform(1)).unwrap();
            }
            cluster
        })
    }

    /// Run `nodes` on the first `servers` daemons (one queue each) as client
    /// `case`; return every completion the client heard.
    pub fn run_remote(servers: usize, case: u32, nodes: &[Node]) -> Vec<(ObjectId, i32)> {
        let cluster = cluster();
        let client = Arc::new(MiniClient::default());
        let transport = cluster.transport();
        let endpoints: Vec<Arc<Endpoint>> = cluster.daemons()[..servers]
            .iter()
            .map(|daemon| {
                let conn = transport.connect(daemon.address()).unwrap();
                let endpoint = Endpoint::new(conn, Arc::new(Handler(Arc::clone(&client))), "mini");
                let hello = Request::Hello {
                    client_name: format!("mini-{case}"),
                    auth_id: None,
                    epoch: 0,
                    session_start: 0,
                };
                call(&endpoint, hello);
                let Response::DeviceList { devices } = call(&endpoint, Request::GetDeviceList)
                else {
                    panic!("expected a device list")
                };
                let device = devices[0].remote_id;
                for request in [
                    Request::CreateContext { context_id: 1, devices: vec![device] },
                    Request::CreateCommandQueue { queue_id: QUEUE, context_id: 1, device },
                    Request::CreateBuffer {
                        buffer_id: 3,
                        context_id: 1,
                        size: 64,
                        readable: true,
                        writable: true,
                    },
                    Request::CreateProgramWithSource {
                        program_id: 4,
                        context_id: 1,
                        source: INC.into(),
                    },
                    Request::BuildProgram { program_id: 4 },
                    Request::CreateKernel {
                        kernel_id: GOOD_KERNEL,
                        program_id: 4,
                        name: "inc".into(),
                    },
                    Request::CreateKernel {
                        kernel_id: BAD_KERNEL,
                        program_id: 4,
                        name: "inc".into(),
                    },
                    Request::SetKernelArgBuffer { kernel_id: GOOD_KERNEL, index: 0, buffer_id: 3 },
                ] {
                    assert!(!matches!(call(&endpoint, request), Response::Error { .. }));
                }
                endpoint
            })
            .collect();
        assert!(client.endpoints.set(endpoints).is_ok());
        let endpoints = client.endpoints.get().unwrap();

        // Ship consecutive nodes of one server as one batch, up to a node
        // that ends its batch.
        let mut start = 0;
        while start < nodes.len() {
            let server = nodes[start].server;
            let mut end = start + 1;
            while end < nodes.len() && nodes[end].server == server && !nodes[end - 1].ends_batch {
                end += 1;
            }
            let mut entries = Vec::new();
            for node in &nodes[start..end] {
                for &wait in &node.waits {
                    if nodes[wait].server != server {
                        entries.push(client.replicate(event_id(wait), server));
                    }
                }
            }
            for (index, node) in nodes.iter().enumerate().take(end).skip(start) {
                let kernel_id = if node.fails { BAD_KERNEL } else { GOOD_KERNEL };
                let command = if node.reads {
                    let stream_id = event_id(index);
                    BatchCommand::ReadBuffer { buffer_id: 3, offset: 0, size: 4, stream_id }
                } else {
                    BatchCommand::NdRange { kernel_id, range: WireNdRange(NdRange::linear(4)) }
                };
                entries.push(BatchEntry {
                    command_id: 1 + index as u64,
                    queue_id: QUEUE,
                    event_id: event_id(index),
                    wait_events: node.waits.iter().map(|&w| event_id(w)).collect(),
                    command,
                });
            }
            let attempted = entries.len();
            let response = call(&endpoints[server], Request::EnqueueBatch { entries });
            let Response::BatchEnqueued { statuses, completed } = response else {
                panic!("expected a batch response, got {response:?}")
            };
            assert_eq!(statuses, vec![BatchEntryStatus::ok(); attempted]);
            client.hear(&completed);
            start = end;
        }

        let deadline = Instant::now() + Duration::from_secs(20);
        while client.state.lock().unwrap().statuses.len() < nodes.len() {
            assert!(
                Instant::now() < deadline,
                "statuses missing: {:?}",
                client.heard.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // A round trip to every server: whatever was sent before its answer
        // has been heard.
        for endpoint in endpoints {
            call(endpoint, Request::GetSessionInfo);
        }
        let heard = client.heard.lock().unwrap().clone();
        heard
    }

    /// The terminal status of every node when the same graph runs straight
    /// on `vocl`, with the daemon's in-batch chaining.
    pub fn run_direct(servers: usize, nodes: &[Node]) -> Vec<i32> {
        let platform = Platform::test_platform(servers);
        let context = Context::new(platform.devices().to_vec()).unwrap();
        let queues: Vec<Arc<CommandQueue>> = platform
            .devices()
            .iter()
            .map(|d| {
                CommandQueue::new(Arc::clone(&context), Arc::clone(d), QueueProperties::default())
                    .unwrap()
            })
            .collect();
        let program = vocl::Program::with_source(Arc::clone(&context), INC);
        program.build().unwrap();
        let buffer =
            vocl::Buffer::new(Arc::clone(&context), 64, vocl::MemFlags::READ_WRITE, None).unwrap();
        let good = program.create_kernel("inc").unwrap();
        good.set_arg(0, vocl::KernelArg::Buffer(Arc::clone(&buffer))).unwrap();
        let bad = program.create_kernel("inc").unwrap();
        let mut events: Vec<Arc<Event>> = Vec::new();
        for (index, node) in nodes.iter().enumerate() {
            let mut wait: Vec<Arc<Event>> =
                node.waits.iter().map(|&w| Arc::clone(&events[w])).collect();
            let chained =
                index > 0 && nodes[index - 1].server == node.server && !nodes[index - 1].ends_batch;
            if chained {
                wait.push(Arc::clone(&events[index - 1]));
            }
            let queue = &queues[node.server];
            let kernel = if node.fails { &bad } else { &good };
            events.push(if node.reads {
                queue.enqueue_read_buffer(&buffer, 0, 4, wait).unwrap()
            } else {
                queue.enqueue_nd_range_kernel(kernel, NdRange::linear(4), wait).unwrap()
            });
        }
        events
            .iter()
            .map(|e| {
                let _ = e.wait();
                e.status().code()
            })
            .collect()
    }
}

proptest! {
    /// Random batches of launches and small reads over one or two daemons,
    /// with wait lists that cross servers and kernels that fail (their
    /// dependants fail with -14):
    /// every command's status reaches the client exactly once, across batch
    /// responses and `EventsCompleted` frames, and it is the status the
    /// same graph ends with straight on `vocl`.
    #[test]
    fn every_completion_is_reported_exactly_once(
        servers in 1usize..=2,
        raw in proptest::collection::vec(
            (0usize..2, 0u8..5, proptest::collection::vec(any::<u16>(), 0..=2), any::<bool>()),
            1..=10,
        ),
    ) {
        use completions::{run_direct, run_remote, Node};
        use std::sync::atomic::{AtomicU32, Ordering};
        static CASE: AtomicU32 = AtomicU32::new(0);
        let nodes: Vec<Node> = raw
            .iter()
            .enumerate()
            .map(|(i, (server, kind, waits, ends_batch))| Node {
                server: server % servers,
                reads: *kind == 1,
                fails: *kind == 0,
                waits: if i == 0 { vec![] } else { waits.iter().map(|&w| w as usize % i).collect() },
                ends_batch: *ends_batch,
            })
            .collect();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let heard = run_remote(servers, case, &nodes);
        let expected = run_direct(servers, &nodes);
        let mut ids: Vec<u64> = heard.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let all: Vec<u64> = (0..nodes.len() as u64).map(|i| 1000 + i).collect();
        prop_assert_eq!(ids, all, "reports: {:?}, graph: {:?}", heard, nodes);
        for (id, status) in heard {
            prop_assert_eq!(status, expected[(id - 1000) as usize], "event {}, graph {:?}", id, nodes);
        }
    }
}
