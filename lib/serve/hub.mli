(** The serving hub: MVCC session logic over one hot model.

    A hub owns an incremental {!Xpdl_store.Store} (the single writer's
    model of record), a tracked head {!Xpdl_query.Query} handle that
    follows its edit journal, and a table of pinned snapshots.  Sessions
    — one per connected client — pin revisions, query either the moving
    head or a pinned snapshot, push edits, and subscribe to the edit
    stream.

    MVCC semantics: {!Protocol.Pin} freezes the head handle at the
    store's current revision ({!Xpdl_query.Query.snapshot}: the head's
    arena byte image and derived indexes are shared, its attribute-edit
    overlay and memo tables are copied — no model is re-encoded) and
    registers a retention floor with the store
    ({!Xpdl_store.Store.pin}), so journal compaction never reaches past
    the oldest pin and every pinned [Query { rev; _ }] answers
    {e bit-identically} no matter how far the writer has advanced.
    Snapshot handles are shared across sessions pinning the same
    revision and reclaimed when the last pin drops.  A pinned [Fetch]
    encodes the snapshot's image once and answers every later [Fetch]
    of that revision from it; the bytes equal the head's [Fetch] bytes
    at the same revision.

    The hub is deliberately transport-free — {!handle} maps requests to
    responses and {!handle_frame} does the same over encoded payloads —
    so the differential fuzzer drives it in-process while {!Server}
    wraps it in sockets.  A hub instance is domain-confined: all calls
    for one hub must come from a single domain (the server keeps hub
    traffic on its event-loop domain). *)

open Xpdl_core

type t

(** One client's view: its pins, its subscription flag, and its queue of
    undelivered edit events. *)
type session

(** Wrap a model (fresh store with [journal_capacity], default
    {!Xpdl_store.Store.journal_capacity}).  [dedup_window] bounds the
    idempotent-replay window: the hub remembers the last that many
    distinct edit request ids (with the payload fingerprint and the
    revision they were answered with), so a client retransmitting an
    acknowledged edit after a timeout gets the original revision back
    instead of applying the edit twice; the same id reused with a
    different payload is rejected with [XPDL905].  Default 4096. *)
val create : ?journal_capacity:int -> ?dedup_window:int -> Model.element -> t

(** Serve an existing store (shares the journal and revisions) — the
    way a WAL-recovered store ({!Xpdl_store.Store.recover}) is served. *)
val of_store : ?dedup_window:int -> Xpdl_store.Store.t -> t

val store : t -> Xpdl_store.Store.t

(** Open a new session. *)
val session : t -> session

val session_id : session -> int

(** Release everything the session holds: pins (and their snapshot
    handles, when last), subscription, queued events.  Idempotent. *)
val close_session : t -> session -> unit

(** {1 Dispatch} *)

(** Answer one request on behalf of a session.  Never raises: model and
    store errors come back as [Err] responses carrying [XPDL7xx] codes
    (see docs/SERVING.md for the per-op error table). *)
val handle : t -> session -> Protocol.request -> Protocol.response

(** Answer one query-language expression (the [q] of a [Query] request:
    [cores], [static-power], [id:<ident>], [sel:<selector>], ...) on a
    handle.  Raises {!Xpdl_query.Query.Query_error} where {!handle}
    answers [XPDL704]. *)
val eval_query : Xpdl_query.Query.t -> string -> Protocol.response

(** [handle_frame t s payload] decodes, dispatches, and re-encodes; an
    undecodable payload becomes an encoded [Err] ([XPDL702]/[XPDL703]). *)
val handle_frame : t -> session -> string -> string

(** Edit events queued for a subscribed session since the last drain,
    oldest first. *)
val drain_events : session -> Protocol.event list

(** {1 Introspection} *)

(** Live snapshot handles (distinct pinned revisions with a handle). *)
val snapshot_count : t -> int

val session_count : t -> int

(** Edits actually applied to the store (idempotent replays excluded).
    [loadgen]'s acknowledged-edit counter must equal this after a run
    with request ids — the exactly-once accounting check. *)
val applied_edits : t -> int

(** Duplicate request ids answered from the dedup window. *)
val deduped : t -> int

(** The [Stats] payload: a one-line JSON object with the head revision,
    model size, journal length, pinned revisions, session and snapshot
    counts, requests served, [applied_edits]/[deduped] edit accounting,
    durability state, and the head model's [model_fnv] fingerprint (the
    crash drill's bit-identity probe). *)
val stats_json : t -> string

val pp : Format.formatter -> t -> unit
