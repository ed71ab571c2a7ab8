//! The layered secure semantic web stack of §5.
//!
//! "For the semantic web to be secure all of its components have to be
//! secure… consider the lowest layer. One needs secure TCP/IP… Next layer
//! is XML… The next step is securing RDF… Once XML and RDF have been
//! secured the next step is to examine security for ontologies and
//! interoperation."
//!
//! [`SecureWebStack`] wires four layers around a document query:
//!
//! 1. **Channel** — the request and response transit a
//!    [`websec_services::ChannelSession`].
//! 2. **XML security** — the policy engine computes the subject's view.
//! 3. **RDF security** — document metadata (catalog triples with context
//!    labels) is consulted: a document whose effective label dominates the
//!    subject's clearance is refused entirely.
//! 4. **Flexible policy** — the enforcement-level gate decides whether the
//!    full evaluation runs (§5's "thirty percent security").
//!
//! The module is split along the read/write axis:
//!
//! * [`state`](self) (`state.rs`) — the stack's **mutable configuration**:
//!   documents, policies, labels, catalog, context, gate. Mutation happens
//!   here (and only here), so the serving layer can treat a stack value as
//!   an immutable snapshot.
//! * `eval.rs` — **read-only query evaluation**: [`SecureWebStack::execute`]
//!   takes `&self` and is safe to call from many threads at once over a
//!   shared snapshot ([`crate::server::StackServer`] does exactly that).
//!
//! Every layer is timed; [`LayerTimings`] feeds experiment E12 and
//! aggregates into [`crate::server::MetricsSnapshot`].

mod eval;
mod state;

pub use eval::LayerTimings;
pub(crate) use eval::{ResolvedView, ViewResolver};
pub use state::{vocab, SecureWebStack};
