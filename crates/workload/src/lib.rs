//! # workload — the unified client tier
//!
//! Every client of an ordered service in this workspace — the ch. 4
//! closed-loop B⁺-tree clients, the P-SMR clients with their retry
//! machinery, and the mass-session experiments of ch. 10 — now draws
//! its load-generation and session plumbing from this one crate.
//!
//! ## Open vs. closed loop
//!
//! The paper drives protocols two ways, and this tier models both:
//!
//! * **Closed loop** — a fixed number of sessions, each with exactly one
//!   command outstanding; the next command is issued when the response
//!   arrives. Offered load adapts to service latency, which is what the
//!   paper's latency/throughput curves (ch. 4) measure. Select with
//!   [`arrival::Arrival::Closed`] or use a dedicated client actor
//!   (`core::client::SmrClient`, `psmr::client::PsmrClient`) built on
//!   [`session`].
//! * **Open loop** — arrivals occur at a configured rate regardless of
//!   completions, as real user populations do. Two processes are
//!   provided: [`arrival::Poisson`], drawing exponential inter-arrival
//!   gaps from the actor's deterministic per-node RNG stream (so the
//!   arrival sequence is a pure function of the seed), and the paced
//!   burst submitter
//!   [`Pacer`] the ch. 3/5 throughput experiments already used
//!   (re-exported from `abcast`, where the ordering protocols' own
//!   drivers live below this crate).
//!
//! ## Keyed workloads
//!
//! [`keyed`] holds the key-addressed command generators: the paper's
//! three B⁺-tree workload shapes ([`keyed::WorkloadGen`], moved here
//! from `btree`), and [`keyed::KeyedWorkload`], which adds Zipfian skew
//! via [`keyed::ZipfSampler`] (rejection-inversion sampling, exact for
//! any exponent ≥ 0). Hot ranks are scattered across the key space with
//! a fixed Fibonacci hash so skew stresses contention, not just
//! partition 0.
//!
//! ## Sessions and the session table
//!
//! [`session`] generalizes what `psmr::client` pioneered: request
//! deadlines, bounded exponential backoff ([`session::RetryPolicy`] —
//! the old hard-coded constants are its defaults), and sticky
//! leader re-lookup by rotating resubmissions across ring members
//! ([`session::rotation_pick`]).
//!
//! [`table::SessionTable`] hosts N such sessions in **one** actor: a
//! slab of in-flight requests addressed by slot+generation [`MsgId`]s,
//! deadlines coalesced onto a [`simnet::wheel::TimerWheel`] driven by a
//! single periodic sim timer, and per-session latency recorded into the
//! metrics histograms (report with `Metrics::percentile` — p50/p99/p999).
//! One actor per simulated client would cost an arena slot, RNG stream,
//! and timer chain per session; the table design is what lets a single
//! run sustain 1M+ sessions.
//!
//! ## Adding a workload
//!
//! 1. Implement a generator producing your service's commands (see
//!    [`keyed::KeyedWorkload`] for the shape: draw from the `&mut
//!    SmallRng` you are handed, never an ambient RNG, so runs stay
//!    deterministic).
//! 2. Implement [`table::SessionDriver`] for your service: `submit`
//!    builds/registers/sends one request, `resubmit` re-sends it
//!    (rotating targets if the service has a leader), `on_response`
//!    maps a delivery back to the request id it completes, and `finish`
//!    drops per-request state.
//! 3. Deploy a [`table::SessionTable`] over your driver, or a
//!    one-session-per-actor client built on [`session::Session`] when
//!    the experiment needs only a handful of clients.

pub mod arrival;
pub mod keyed;
pub mod session;
pub mod table;

pub use abcast::Pacer;
pub use arrival::{Arrival, Poisson};
pub use keyed::{KeyedWorkload, WorkloadGen, WorkloadKind, ZipfSampler};
pub use session::{rotation_pick, RetryDecision, RetryPolicy, Session};
pub use table::{SessionDriver, SessionTable, SessionTableConfig};

/// Commands submitted by session tables (one per session interaction).
pub const SESSIONS_SUBMITTED: &str = "sessions.submitted";
/// Session interactions completed (response matched to request).
pub const SESSIONS_COMPLETED: &str = "sessions.completed";
/// Resubmissions after a blown deadline.
pub const SESSIONS_RETRIES: &str = "sessions.retries";
/// Requests given up after `RetryPolicy::max_attempts`.
pub const SESSIONS_ABANDONED: &str = "sessions.abandoned";
/// Arrivals shed because the in-flight slab was full (overload guard).
pub const SESSIONS_SHED: &str = "sessions.shed";
/// Sum of arrival instants, µs — with [`SESSIONS_SUBMITTED`] this pins
/// the arrival sequence for the determinism gate.
pub const SESSIONS_ARRIVAL_US: &str = "sessions.arrival_us";
/// Per-session request latency histogram (p50/p99/p999 reporting).
pub const SESSION_LATENCY: &str = "sessions.latency";
/// Inter-arrival gap histogram of the open-loop process.
pub const SESSION_ARRIVAL_GAP: &str = "sessions.arrival_gap";
