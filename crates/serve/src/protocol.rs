//! Wire protocol of the serving tier.
//!
//! All control-plane and data-plane traffic rides ordinary [`NetTuple`]s
//! on the simulator's *observed* channel ([`Ctx::send_observed`]): fixed
//! latency, zero RNG draws, so serving traffic never perturbs the
//! simulation schedule — but partitions and crash epochs still apply, so
//! chaos reaches subscribers like everyone else.
//!
//! The protocol tables are consumed by the [`ServeHost`] hook before the
//! hosted runtime sees them; they are never declared in any Overlog
//! program.
//!
//! [`NetTuple`]: boom_overlog::NetTuple
//! [`Ctx::send_observed`]: boom_simnet::Ctx::send_observed
//! [`ServeHost`]: crate::ServeHost

use boom_overlog::{Row, Value};

/// Client → server: register a standing query.
/// `[client, tag, name, keys, schema, head, body]`.
pub const SUB_TABLE: &str = "srv_sub";
/// Client → server: retire a subscription. `[client, tag]`.
pub const UNSUB_TABLE: &str = "srv_unsub";
/// Client → server: batched acknowledgments.
/// `[client, [[tag, seq], ..]]`.
pub const ACK_TABLE: &str = "srv_ack";
/// Client → server: one-shot indexed read. `[client, req, table]`.
pub const PULL_TABLE: &str = "srv_pull";
/// Server → client: batched delta records.
/// `[n, [[tag, seq, op, tick, time, [row..]], ..]]`.
pub const DELTA_TABLE: &str = "srv_delta";
/// Server → client: subscription accepted.
/// `[tag, query_table, warnings]`.
pub const SUB_OK_TABLE: &str = "srv_sub_ok";
/// Server → client: pull result. `[req, as_of, [[row..], ..]]`.
pub const PULL_OK_TABLE: &str = "srv_pull_ok";
/// Server → client: request rejected (analyzer diagnostics for an illegal
/// query, unknown pull table, ...). `[tag, message]`.
pub const ERR_TABLE: &str = "srv_err";

/// Name prefix of generated query view tables. Matches an
/// [`OBSERVATION_PREFIXES`] entry, so query views are excluded from state
/// fingerprints and durable logging — subscriptions observe, never
/// perturb.
///
/// [`OBSERVATION_PREFIXES`]: boom_overlog::OBSERVATION_PREFIXES
pub const QUERY_PREFIX: &str = "srv_q";

/// Delta record ops.
pub const OP_INSERT: i64 = 0;
pub const OP_DELETE: i64 = 1;
/// Stream reset: discard the mirror; snapshot rows follow.
pub const OP_RESET: i64 = 2;
/// A snapshot row following a reset (not counted toward propagation
/// latency — it reflects resync time, not update churn).
pub const OP_SNAP: i64 = 3;

/// A standing query, in the shape the server compiles into a view:
///
/// ```text
/// define(srv_qN, keys(<keys>), {<schema>});
/// watch(srv_qN);
/// srv_qN(<head>) :- <body>;
/// ```
///
/// The body is an ordinary Overlog rule body over any loaded table; the
/// whole thing goes through the analyzer/planner, so an illegal query is
/// rejected with olgcheck diagnostics instead of installing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SubscriptionSpec {
    /// Human-readable label (not part of the canonical identity).
    pub name: String,
    /// Key columns of the result view, e.g. `"0"` or `"0,1"`.
    pub keys: String,
    /// Column types of the result view, e.g. `"String, Int"`.
    pub schema: String,
    /// Head argument list, e.g. `"Path, FId"`.
    pub head: String,
    /// Rule body, e.g. `"fqpath(Path, FId)"`.
    pub body: String,
}

impl SubscriptionSpec {
    pub fn new(name: &str, keys: &str, schema: &str, head: &str, body: &str) -> Self {
        SubscriptionSpec {
            name: name.to_string(),
            keys: keys.to_string(),
            schema: schema.to_string(),
            head: head.to_string(),
            body: body.to_string(),
        }
    }

    /// Identity for fan-out sharing: subscriptions with equal canonical
    /// keys share one generated view.
    pub fn canonical_key(&self) -> String {
        format!("{}|{}|{}|{}", self.keys, self.schema, self.head, self.body)
    }

    /// The Overlog source installed for this query, deriving into `table`.
    /// The `watch` puts the view in the analyzer's watch list, so the
    /// stale-watch lint (W0006) checks it and the dead-column lint
    /// (W0007) treats its columns as read.
    pub fn view_source(&self, table: &str) -> String {
        format!(
            "define({table}, keys({}), {{{}}});\nwatch({table});\n{table}({}) :- {};\n",
            self.keys, self.schema, self.head, self.body
        )
    }

    /// Encode as a [`SUB_TABLE`] row.
    pub fn to_row(&self, client: &str, tag: i64) -> Vec<Value> {
        vec![
            Value::str(client),
            Value::Int(tag),
            Value::str(&self.name),
            Value::str(&self.keys),
            Value::str(&self.schema),
            Value::str(&self.head),
            Value::str(&self.body),
        ]
    }

    /// Decode a [`SUB_TABLE`] row.
    pub fn from_row(row: &Row) -> Option<(String, i64, SubscriptionSpec)> {
        let client = row.first()?.as_str()?.to_string();
        let tag = row.get(1)?.as_int()?;
        let s = |i: usize| row.get(i).and_then(Value::as_str).map(str::to_string);
        Some((
            client,
            tag,
            SubscriptionSpec {
                name: s(2)?,
                keys: s(3)?,
                schema: s(4)?,
                head: s(5)?,
                body: s(6)?,
            },
        ))
    }
}
