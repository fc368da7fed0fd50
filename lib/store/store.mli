(** The revision-tracked model store.

    The paper's platform models are edited after composition:
    deployment-time microbenchmarking resolves ["?"] placeholders one by
    one, and a serving process applies client edits while readers query
    (Sec. III-D, Sec. IV).  A {!t} wraps a {!Xpdl_core.Model.element}
    behind a versioned handle: every edit produces a new immutable
    snapshot that shares all nodes off the edited spine, bumps the
    revision and appends to an edit journal.  Revision pins keep journal
    ranges replayable for MVCC readers, and an optional write-ahead log
    makes the edits durable.

    The store keeps no derived values.  Hierarchical energy attributes
    come from [Xpdl_energy.Aggregate] when computed from scratch and
    from a [Xpdl_query.Query.of_store] handle when computed
    incrementally: such a handle catches up from the journal (patching
    attribute edits in place) and falls back to a full rebuild only when
    the journal has been compacted past its revision. *)

open Xpdl_core

type t

(** Monotonic edit counter; 0 for a freshly wrapped model. *)
type revision = int

(** Positional node address; see {!Xpdl_core.Model.index_path}. *)
type index_path = Model.index_path

(** Raised on invalid edits; the diagnostic carries an [XPDL4xx] code. *)
exception Store_error of Diagnostic.t

(** {1 Construction and access} *)

(** Wrap a model.  [journal_capacity] is this store's journal retention
    floor (default {!journal_capacity}); small capacities are useful to
    exercise compaction in tests. *)
val of_model : ?journal_capacity:int -> Model.element -> t

(** The current model tree (an immutable snapshot: edits never mutate a
    returned tree). *)
val model : t -> Model.element

val revision : t -> revision
val size : t -> int

(** {1 Addressing} *)

(** The element at an index path, if in range. *)
val element_at : t -> index_path -> Model.element option

(** Index paths of all nodes satisfying the predicate (document order). *)
val find_paths : t -> (Model.element -> bool) -> index_path list

(** {1 Edits}

    Each successful edit bumps the revision and appends to the journal.
    Attribute edits are the cheap class (consumers can patch in place);
    structural edits change the tree shape. *)

val set_attr : t -> index_path -> string -> Model.attr_value -> unit

(** Elaborate a raw string through {!Xpdl_core.Elaborate.attr_delta} and
    set it; returns the elaboration diagnostics.  Raises {!Store_error}
    ([XPDL403]) if the value elaborates with errors. *)
val set_attr_raw :
  t -> index_path -> ?unit_spelling:string -> string -> string -> Diagnostic.t list

val remove_attr : t -> index_path -> string -> unit

(** Replace the whole subtree at the path (the path may be [[]]). *)
val replace_subtree : t -> index_path -> Model.element -> unit

(** Insert a child under the addressed node at position [at] (default:
    append). *)
val insert_child : t -> index_path -> ?at:int -> Model.element -> unit

(** Remove the [at]-th child of the addressed node, returning it. *)
val remove_child : t -> index_path -> int -> Model.element

(** {1 Edit journal} *)

type edit_kind =
  | Attr of string  (** attribute edit; the payload is the attribute name *)
  | Structure  (** subtree replaced / child inserted or removed *)

type edit = { e_rev : revision; e_path : index_path; e_kind : edit_kind }

(** Journal entries with revisions strictly greater than [r], oldest
    first; [None] if the journal has been compacted past [r] (the
    consumer must rebuild from {!model}). *)
val edits_since : t -> revision -> edit list option

(** Default journal retention floor: at least this many of the most
    recent edits are always replayable (compaction is amortized, so up
    to twice as many may be retained at any moment), and edits newer
    than the oldest {e pinned} revision are always retained regardless
    of capacity. *)
val journal_capacity : int

(** Journal entries currently retained. *)
val journal_length : t -> int

(** {1 Revision pinning (MVCC)}

    A pinned revision is a retention floor: as long as revision [r] is
    pinned, {!edits_since}[ t r] stays replayable ([Some]) no matter how
    many edits the writer journals — compaction never reaches past the
    oldest pin.  Readers pin, capture an immutable snapshot
    ({!model} never mutates returned trees), and later either catch up
    from the journal or {!unpin} to release the floor.  The journal
    grows unboundedly while a lagging pin is held; reclamation happens
    at the first compaction after the pin is dropped. *)

(** Pin the current revision (reentrant: pin counts nest) and return it. *)
val pin : t -> revision

(** Release one pin on [r].  Raises {!Store_error} ([XPDL404]) if [r]
    is not pinned. *)
val unpin : t -> revision -> unit

(** Currently pinned revisions, ascending, without duplicates. *)
val pinned_revisions : t -> revision list

(** {1 Durability: write-ahead journal and crash recovery}

    A durable store owns a {!Wal} directory: every accepted edit is
    appended to [wal.log] (fsync'd per the policy) {e after} it is
    applied and journaled in memory, and every [checkpoint_every] edits
    the whole model image is rolled into an atomic checkpoint and the
    journal restarted.  The checkpoint revision acts as an extra
    in-memory journal retention floor (like a pin), so consumers that
    resynchronize after a recovery can catch up without a full rebuild.

    A WAL I/O failure raises {!Store_error} ([XPDL902]) out of the edit
    call: the edit is applied in memory but must not be acknowledged as
    durable. *)

(** Open (or create) a durable store on [dir].  If a checkpoint exists
    it wins over [init]; the journal tail is then replayed record by
    record — a torn or corrupt tail is cut at the first bad length or
    checksum with a coded [XPDL901] warning, never a crash.  The
    recovered head is bit-identical to the pre-crash head built from
    the same acknowledged edits (fuzz-checked by [store-durable]).
    Recovery finishes by rolling a fresh checkpoint and restarting the
    journal, so the directory converges to its clean state.

    [read_only] inspects without touching the directory: no checkpoint
    rewrite, no journal truncation, no attached WAL (the returned store
    is not durable) — the offline [xpdltool walcheck] path.

    The returned diagnostics are non-fatal findings ([XPDL901] torn
    tail, [XPDL903] replay summary, [XPDL904] fresh directory). *)
val recover :
  ?journal_capacity:int ->
  ?policy:Wal.fsync_policy ->
  ?checkpoint_every:int ->
  ?read_only:bool ->
  dir:string ->
  Model.element ->
  (t * Diagnostic.t list, Diagnostic.t) result

(** True when a WAL is attached (edits are journaled to disk). *)
val durable : t -> bool

(** Revision covered by the last on-disk checkpoint, when durable. *)
val checkpoint_rev : t -> revision option

(** Records appended to the WAL since it was opened (telemetry). *)
val wal_appended : t -> int

(** Force buffered WAL records to disk regardless of the fsync policy. *)
val sync_wal : t -> unit

(** Sync and close the WAL; the store stays usable but non-durable. *)
val close_wal : t -> unit

(** {1 Introspection} *)

val pp : Format.formatter -> t -> unit
