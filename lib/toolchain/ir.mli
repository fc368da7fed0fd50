(** The light-weight runtime model (Sec. IV): a composed XPDL model
    flattened into a {e struct-of-arrays arena} laid out in preorder —
    a flat subtree-span column (parents and children are both derived
    from it), interned kind/attr-key/string tables and columnar
    attribute storage — whose byte image {e is} the wire format (magic
    ["XPDLRT"], version 2).

    Loading a version-2 file is read + validate + wrap: no per-node
    decoding, no index building, no string copying happens at
    {!of_file} time (experiment E15 measures this).  Node records,
    scope paths and the ident/kind/path indexes are materialized lazily
    from the arena columns on first use and cached, so steady-state
    query latency is unchanged from the pointer-y representation it
    replaces (experiment E5).

    Because the arena is in preorder, the subtree of node [i] is the
    contiguous id slice [i .. subtree_end i - 1]: subtree folds are
    array scans.  Children are not stored — the first child of [i] is
    [i+1] (if inside the span) and the next sibling of [j] is
    [subtree_end j].

    Any other version, the seed release's version-1 node stream
    included, is rejected as unsupported.  Corrupt or truncated input
    raises {!Corrupt} carrying a coded [XPDL6xx] diagnostic (or use
    {!of_bytes_result}/{!of_file_result}). *)

open Xpdl_core

type value =
  | VStr of string
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VQty of float * Xpdl_units.Units.dimension  (** SI-normalized quantity *)
  | VUnknown  (** an unresolved ["?"] that survived bootstrap *)

val pp_value : Format.formatter -> value -> unit

(** {1 Interned attribute keys}

    A global, append-only string pool: equal key strings map to the same
    id within a process.  Node attribute arrays are sorted by key id.
    The wire format does {e not} depend on this pool — each file carries
    its own key table, mapped to pool ids at load time — so serialized
    bytes are stable across processes. *)

(** Intern an attribute name (allocates an id on first sight). *)
val intern : string -> int

(** The id of an attribute name, if it was ever interned. *)
val intern_opt : string -> int option

(** The name behind a key id; raises [Invalid_argument] on unknown ids. *)
val key_name : int -> string

(** A node view, materialized (and cached) from the arena columns on
    first access.  Records are snapshots: a later {!patch_attrs} does
    not mutate records fetched earlier. *)
type node = {
  n_index : int;  (** preorder rank = node id *)
  n_kind : Schema.kind;
  n_ident : string option;  (** name or id *)
  n_type : string option;  (** retained [type] reference *)
  n_attrs : (int * value) array;  (** interned key id → value, sorted by key *)
  n_parent : int;  (** -1 for the root *)
  n_children : int array;  (** derived from the span column *)
  n_path : string;  (** scope path, e.g. ["liu_gpu_server/gpu1/SMs/SM0"] *)
  n_subtree_end : int;
      (** exclusive end of the preorder span: the subtree of this node is
          the id slice [n_index .. n_subtree_end - 1] *)
}

(** The arena.  Owns the wire-format byte image plus lazily built
    caches (node views, scope paths, ident/kind/path indexes). *)
type t

val value_of_attr : Model.attr_value -> value

(** Flatten a composed model into the runtime representation (builds
    the version-2 byte image directly; {!to_bytes} returns it without
    re-encoding). *)
val of_model : Model.element -> t

(** {1 Accessors} *)

val size : t -> int

(** The root's node id — always [0] (the arena is in preorder). *)
val root_index : t -> int

(** Materialize the view of node [i]; raises [Invalid_argument] on a
    bad index. *)
val node : t -> int -> node

(** {2 Id-level accessors}

    Column reads without materializing a {!node} view — the arena-native
    hot paths used by the query layer's folds and selectors. *)

val kind_at : t -> int -> Schema.kind
val ident_at : t -> int -> string option
val type_at : t -> int -> string option
val parent_index : t -> int -> int
val span_end_at : t -> int -> int

(** Children ids of node [i], in document order (a span walk). *)
val children_ids : t -> int -> int list

(** The [c]-th child id of node [i], or [None] if out of range. *)
val nth_child : t -> int -> int -> int option

(** Attribute of node [i] by pre-interned global key id. *)
val attr_by_key_at : t -> int -> int -> value option

(** Attribute of node [i] by name. *)
val attr_at : t -> int -> string -> value option

(** Replace node [i]'s attributes (interning keys, re-sorting) in an
    overlay over the immutable arena; spans, indexes and previously
    fetched {!node} records are untouched — the tracked query handle's
    attribute-edit fast path.  A subsequent {!to_bytes} re-encodes.
    Raises [Invalid_argument] on a bad index. *)
val patch_attrs : t -> int -> (string * Model.attr_value) list -> unit

(** An isolated copy of the arena at its current state: later
    {!patch_attrs} calls on either side are invisible to the other.
    The byte image and every lazy structure derived from it alone
    (parents, scope paths, decoded strings, the ident/kind/path indexes)
    are shared; the attribute overlay and the node-view array are
    copied.  O(patched nodes + materialized view slots) — nothing is
    re-encoded or re-validated. *)
val freeze : t -> t

val root : t -> node
val parent : t -> node -> node option
val children : t -> node -> node list

(** Attribute lookup by name: interned-id binary search (no string
    hashing beyond one pool probe). *)
val attr : node -> string -> value option

(** Attribute lookup by pre-interned key id (the fastest path; use
    {!intern} once and reuse the id). *)
val attr_by_key : node -> int -> value option

val find_by_ident : t -> string -> node option

(** O(1) lookup of a scope path (first node in document order). *)
val find_by_path : t -> string -> node option

val all_of_kind : t -> Schema.kind -> node list

(** Node ids of a kind/tag in document order, without materializing
    node views (cheap emptiness/cardinality checks, selector seeds). *)
val indexes_of_kind : t -> Schema.kind -> int list

val indexes_of_tag : t -> string -> int list

(** Depth-first (= document-order) fold over the subtree of the node: a
    scan of its contiguous preorder slice. *)
val fold_subtree : t -> ('a -> node -> 'a) -> 'a -> node -> 'a

(** {1 Binary codec}

    Version 2: the file {e is} the arena — a header checksummed with
    {!Xpdl_kernel.checksum_sub} (every single-bit flip of the payload
    changes it; images written before that checksum fail {!verify}
    until re-processed),
    interned kind/key/string tables, then little-endian column arrays.
    {!of_bytes} validates the header arithmetic, the preorder span
    structure and the table offsets in one O(n) pass and wraps the
    buffer; it does {e not} re-verify the full payload checksum on the
    hot path (use {!verify} for that, e.g. on artifacts at rest). *)

val magic : string
val format_version : int

(** Raised on malformed input; the payload is a coded [XPDL6xx]
    diagnostic (bad magic [XPDL601], unsupported version [XPDL602],
    truncation [XPDL603], checksum mismatch [XPDL604], structural
    corruption [XPDL605], bad value encoding [XPDL606], length
    overflow [XPDL607]). *)
exception Corrupt of Diagnostic.t

(** Serialize.  For an unpatched arena this returns the load-time byte
    image itself (zero-copy, byte-identical across save/load/save);
    after {!patch_attrs} it re-encodes. *)
val to_bytes : t -> string

(** Deserialize; raises {!Corrupt} on malformed input.  Version-2
    buffers are validated and wrapped without rebuilding. *)
val of_bytes : string -> t

(** Exception-free variants of {!of_bytes}/{!of_file} returning the
    coded diagnostic instead of raising. *)
val of_bytes_result : string -> (t, Diagnostic.t) result

val of_file_result : string -> (t, Diagnostic.t) result

(** Verify the full payload checksum of the arena's byte image
    ([Error] carries an [XPDL604] diagnostic).  O(file size); load
    keeps this off the init path so callers choose when to pay it. *)
val verify : t -> (unit, Diagnostic.t) result

val to_file : string -> t -> unit
val of_file : string -> t
