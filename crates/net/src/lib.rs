//! # relacc-net
//!
//! The TCP transport of the `relacc` serving layer: a length-prefixed binary
//! frame protocol over `std::net`, a server that multiplexes any number of
//! client connections onto one [`relacc_serve::Server`], and a blocking
//! typed client exposing the same read surface as the in-process server.
//!
//! The stack, bottom to top:
//!
//! * [`wire`] — the versioned frame codec.  `docs/PROTOCOL.md` at the
//!   repository root is the normative byte-level spec; its examples are
//!   asserted by this module's unit tests so the document cannot drift.
//! * [`NetServer`] — one accept loop, one handler thread per connection,
//!   all reads answered off the engine's epoch hub.  The engine's writer
//!   thread is never on any connection's path: a slow subscriber costs one
//!   pinned cursor epoch (turned into a single exact `resync` batch once
//!   the bounded retention window is outrun), a dead client costs nothing
//!   but its handler thread, which notices the half-close within one feed
//!   poll and exits.  Feed handlers wait on the hub's publish signal, so a
//!   subscriber gets each epoch pushed as soon as it is published.
//! * [`NetClient`] / [`NetSubscription`] — `pin`, `pin_at`,
//!   `repaired_row`, `entity_result`, `changes_since` request/response plus
//!   pushed change-feed batches, mirroring [`relacc_serve::Server`] and
//!   [`relacc_serve::Subscription`] call for call.  The loopback
//!   differential test at the workspace root holds the two surfaces to
//!   bit-identical answers under concurrent writer churn.
//!
//! The `serve_tcp` binary in this crate serves a scripted Med update stream
//! for a bounded number of batches — the smallest end-to-end deployment.
//!
//! ```
//! use relacc_net::{NetClient, NetServer};
//! use relacc_serve::Server;
//! # use relacc_core::rules::{Predicate, RuleSet, TupleRule};
//! # use relacc_engine::{BatchEngine, IncrementalEngine};
//! # use relacc_model::{CmpOp, DataType, Schema, Value};
//! # use relacc_resolve::{BlockingStrategy, ResolveConfig};
//! # use relacc_store::{Generation, Relation, RowId, UpdateBatch};
//! # let schema = Schema::builder("stat")
//! #     .attr("name", DataType::Text)
//! #     .attr("rnds", DataType::Int)
//! #     .build();
//! # let rules = RuleSet::from_rules([TupleRule::new(
//! #     "cur",
//! #     vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
//! #     schema.expect_attr("rnds"),
//! # )]);
//! # let batch = BatchEngine::new(schema.clone(), rules, vec![]).unwrap();
//! # let seed = Relation::from_rows(
//! #     schema.clone(),
//! #     vec![vec![Value::text("mj"), Value::Int(16)]],
//! # )
//! # .unwrap();
//! # let mut engine = IncrementalEngine::open(
//! #     batch,
//! #     "stat",
//! #     &seed,
//! #     ResolveConfig::on_attrs(vec!["name".into()])
//! #         .with_strategy(BlockingStrategy::ExactKey),
//! # );
//! // serve the engine's epochs over loopback TCP (ephemeral port)
//! let net = NetServer::spawn(Server::new(&engine), "127.0.0.1:0").unwrap();
//! let mut client = NetClient::connect(net.local_addr()).unwrap();
//! assert_eq!(client.schema().name(), "stat");
//!
//! // the writer commits; the client point-reads the pinned generation
//! engine
//!     .apply(&UpdateBatch::new("stat").insert(vec![Value::text("mj"), Value::Int(27)]))
//!     .unwrap();
//! let pinned = client.pin().unwrap();
//! assert_eq!(pinned.generation, Generation(1));
//! let row = client.repaired_row(RowId(0), pinned.generation).unwrap();
//! assert_eq!(row.unwrap()[1], Value::Int(27));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{EpochRef, NetClient, NetError, NetSubscription};
pub use server::{NetServer, ServeOptions};
pub use wire::{Message, MsgType, WireError, PROTOCOL_VERSION};
