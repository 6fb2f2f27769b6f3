//! Push-on-publish for the TCP change feed: a feed handler waits on the
//! epoch hub, not on its socket.
//!
//! * A published epoch reaches a TCP subscriber at once, even when the
//!   server's read timeout and feed poll are both seconds long — no socket
//!   tick sits between a commit and its `Feed` frame.
//! * The blocking wait never strands a handler: with no commits at all, a
//!   client half-close releases the subscriber's handler and pinned cursor,
//!   and `NetServer::shutdown` returns within a feed poll plus a read
//!   timeout.
//! * The nonblocking check between pushes still catches a stray client
//!   frame on a subscribed connection, which is answered with
//!   `Error{Malformed}` before the connection closes.

use relacc::core::rules::{Predicate, RuleSet, TupleRule};
use relacc::engine::{BatchEngine, IncrementalEngine};
use relacc::model::{CmpOp, DataType, Schema, Value};
use relacc::net::wire::{write_frame, ErrorCode, FrameReader, Poll};
use relacc::net::{Message, NetClient, NetServer, ServeOptions, PROTOCOL_VERSION};
use relacc::resolve::{BlockingStrategy, ResolveConfig};
use relacc::serve::Server;
use relacc::store::{Relation, UpdateBatch};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_engine() -> IncrementalEngine {
    let schema = Schema::builder("stat")
        .attr("name", DataType::Text)
        .attr("rnds", DataType::Int)
        .build();
    let rules = RuleSet::from_rules([TupleRule::new(
        "cur",
        vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
        schema.expect_attr("rnds"),
    )]);
    let batch = BatchEngine::new(schema.clone(), rules, vec![]).expect("rules validate");
    let seed = Relation::from_rows(schema, vec![vec![Value::text("mj"), Value::Int(16)]])
        .expect("seed rows type-check");
    IncrementalEngine::open(
        batch,
        "stat",
        &seed,
        ResolveConfig::on_attrs(vec!["name".into()]).with_strategy(BlockingStrategy::ExactKey),
    )
}

fn observation(rnds: i64) -> UpdateBatch {
    UpdateBatch::new("stat").insert(vec![Value::text("mj"), Value::Int(rnds)])
}

/// Holders of the current epoch (hub, subscription cursors, and the
/// temporary pin taken to count them): a live subscriber adds one.
fn pins_of_current(server: &Server) -> usize {
    Arc::strong_count(&server.pin())
}

/// Poll `done` until it holds or `limit` passes; returns whether it held.
fn eventually(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

#[test]
fn a_publish_is_pushed_without_waiting_for_socket_timeouts() {
    let mut engine = open_engine();
    let server = Server::new(&engine);
    let options = ServeOptions {
        read_timeout: Duration::from_secs(5),
        feed_poll: Duration::from_secs(5),
        ..ServeOptions::default()
    };
    let mut net = NetServer::spawn_with(server.clone(), "127.0.0.1:0", options)
        .expect("bind an ephemeral loopback port");
    let mut sub = NetClient::connect(net.local_addr())
        .expect("client connects")
        .subscribe()
        .expect("client subscribes");

    let committed = Instant::now();
    engine.apply(&observation(27)).expect("batch applies");
    let batch = sub
        .next_batch(Duration::from_secs(1))
        .expect("feed live")
        .expect("the commit is pushed within 1 s, not at the next 5 s socket tick");
    let latency = committed.elapsed();
    assert!(latency < Duration::from_secs(1), "push took {latency:?}");
    assert_eq!(batch.from_epoch, sub.start().epoch);
    assert_eq!(batch.to_epoch, engine.current_epoch().id());
    assert!(!batch.resync);

    // Let the handler go without waiting out its 5 s feed poll: after the
    // half-close, the next publish wakes it and it finds the FIN.
    sub.close();
    engine.apply(&observation(31)).expect("batch applies");
    net.shutdown();
}

#[test]
fn idle_feed_handlers_notice_half_close_and_shutdown() {
    let engine = open_engine();
    let server = Server::new(&engine);
    let options = ServeOptions::default();
    let bound = options.feed_poll + options.read_timeout + Duration::from_secs(1);
    let mut net = NetServer::spawn_with(server.clone(), "127.0.0.1:0", options)
        .expect("bind an ephemeral loopback port");
    let addr = net.local_addr();
    let unsubscribed = pins_of_current(&server);

    // no commits at all: the handler only ever wakes on its feed poll
    let sub = NetClient::connect(addr)
        .expect("client connects")
        .subscribe()
        .expect("client subscribes");
    assert_eq!(pins_of_current(&server), unsubscribed + 1);
    sub.close();
    assert!(
        eventually(bound, || pins_of_current(&server) == unsubscribed),
        "a half-closed idle subscriber's handler still pins its cursor"
    );

    // an idle subscriber and an idle request connection stay attached
    let _idle_sub = NetClient::connect(addr)
        .expect("client connects")
        .subscribe()
        .expect("client subscribes");
    let _idle_client = NetClient::connect(addr).expect("client connects");
    let started = Instant::now();
    net.shutdown();
    let took = started.elapsed();
    assert!(
        took < bound,
        "shutdown took {took:?} with an idle subscriber parked on the hub"
    );
    assert_eq!(
        pins_of_current(&server),
        unsubscribed,
        "shutdown joined the feed handler, releasing its cursor"
    );
}

/// Read the next frame off a raw client socket.
fn read_message(reader: &mut FrameReader, stream: &mut TcpStream) -> Option<Message> {
    match reader.poll(stream).expect("socket readable") {
        Poll::Frame(payload) => Some(Message::decode(&payload).expect("server frames decode")),
        Poll::Pending => panic!("the server did not answer within the read timeout"),
        Poll::Closed => None,
    }
}

#[test]
fn a_stray_frame_on_a_feed_is_answered_with_malformed() {
    let engine = open_engine();
    let server = Server::new(&engine);
    let mut net = NetServer::spawn(server, "127.0.0.1:0").expect("bind an ephemeral loopback port");
    let mut stream = TcpStream::connect(net.local_addr()).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    let mut reader = FrameReader::new();
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
    };
    write_frame(&mut stream, &hello).expect("send Hello");
    assert!(matches!(
        read_message(&mut reader, &mut stream),
        Some(Message::HelloOk { .. })
    ));
    write_frame(&mut stream, &Message::Subscribe).expect("send Subscribe");
    assert!(matches!(
        read_message(&mut reader, &mut stream),
        Some(Message::SubOk { .. })
    ));

    // a subscribed client must send nothing more
    write_frame(&mut stream, &Message::Pin).expect("send a stray Pin");
    match read_message(&mut reader, &mut stream) {
        Some(Message::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Error{{Malformed}}, got {other:?}"),
    }
    assert!(
        read_message(&mut reader, &mut stream).is_none(),
        "the server closes the connection after the diagnostic"
    );
    net.shutdown();
}
