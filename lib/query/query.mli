(** The XPDL runtime query API (Sec. IV) — the OCaml twin of the
    generated C++ API, over the serialized runtime model.  Four function
    categories: initialization, model browsing, attribute getters, and
    model-analysis functions for derived attributes.  All operations are
    array/hash lookups; no XML is touched at run time (experiment E5).

    The IR's preorder layout makes subtree aggregations contiguous array
    scans; derived-attribute functions memoize per handle; path selectors
    are compiled once per handle and seed ["//tag"] steps from the kind
    index.

    Handles built with {!init}/{!of_ir}/{!of_model} wrap an immutable IR:
    their memos never need invalidation.  Handles built with {!of_store}
    track an incremental {!Xpdl_store.Store}: before every access the
    handle consumes the store's edit journal, patching attribute edits
    into the IR in place and evicting only the memo entries whose subtree
    spans cover an edited node — instead of being thrown away and rebuilt
    on every model change.

    Handles are safe to {e read} from several domains concurrently: the
    per-handle memo tables and journal synchronization are guarded by a
    mutex (probes and inserts serialize; the derived computations
    themselves run outside the lock over the immutable IR, so racing
    readers at worst compute a value twice and agree bit-for-bit).
    Edits to a tracked handle's store must still be ordered against
    readers of that same handle by the caller — the model-query server
    does this by keeping all head-handle traffic on one domain. *)

open Xpdl_core
module Ir = Xpdl_toolchain.Ir

type t

(** A handle into the runtime model tree. *)
type element = Ir.node

exception Query_error of string

(** {1 Initialization} *)

(** Load a runtime-model file written by the toolchain — the OCaml
    [int xpdl_init(char *filename)].  Raises {!Query_error}. *)
val init : string -> t

(** Wrap an in-memory runtime model. *)
val of_ir : ?source:string -> Ir.t -> t

(** Build directly from a composed model element (tools, tests). *)
val of_model : ?source:string -> Model.element -> t

(** Follow an incremental model store.  [drop] lists attribute names
    filtered out of the runtime view (cf.
    {!Xpdl_toolchain.Analysis.filter_attributes}); edits to dropped
    attributes are invisible to the handle.  The handle synchronizes
    lazily: attribute-only edit runs are replayed as in-place IR patches
    with span-targeted memo eviction; structural edits and journal
    compaction rebuild the IR.  Element handles obtained before an edit
    are snapshots — re-fetch them after editing. *)
val of_store : ?drop:string list -> ?source:string -> Xpdl_store.Store.t -> t

(** A fixed handle frozen at the handle's current revision: a tracked
    handle is synchronized first, then its IR is {!Ir.freeze}d and its
    memo tables are copied — they are valid at exactly that revision, so
    the snapshot's first derived query is usually a memo hit.  Later
    edits to the store (or the tracked handle's in-place patches and
    rebuilds) never reach the snapshot.  Costs O(patched nodes +
    materialized views + memo entries); nothing is re-encoded. *)
val snapshot : ?source:string -> t -> t

(** The handle's current runtime IR (synchronized first). *)
val runtime_ir : t -> Ir.t

val source : t -> string
val size : t -> int

(** {1 Model browsing} *)

(** Metadata kinds (power models, ISAs, suites, software) whose contents
    are not physical hardware. *)
val is_metadata_kind : Schema.kind -> bool

val root : t -> element
val parent : t -> element -> element option
val children : t -> element -> element list
val children_of_kind : t -> element -> Schema.kind -> element list

(** Find a model element anywhere by its identifier (name or id). *)
val find_by_id : t -> string -> element option

val find_by_id_exn : t -> string -> element

(** Find by scope path, e.g. ["liu_gpu_server/gpu1/SMs/SM0"] — one hash
    lookup in the IR's path index. *)
val find_by_path : t -> string -> element option

(** All elements of one kind, in document order. *)
val all_of_kind : t -> Schema.kind -> element list

(** Physical hardware elements of one kind (no power-domain selectors),
    optionally restricted to a subtree. *)
val hardware_of_kind : ?within:element -> t -> Schema.kind -> element list

(** All elements in the subtree rooted at [e] (including [e]). *)
val subtree : t -> element -> element list

val kind : element -> Schema.kind
val ident : element -> string option
val path : element -> string

(** The retained [type] reference ("is this device a Nvidia_K20c?"). *)
val type_of : element -> string option

(** {1 Attribute getters} *)

val get : element -> string -> Ir.value option
val get_string : element -> string -> string option
val get_int : element -> string -> int option
val get_float : element -> string -> float option
val get_bool : element -> string -> bool option

(** SI-normalized quantity; raises {!Query_error} on a dimension
    mismatch. *)
val get_quantity : element -> string -> dim:Xpdl_units.Units.dimension -> float option

(** True if the attribute survived as an unresolved ["?"]. *)
val is_unknown : element -> string -> bool

(** {1 Model analysis (derived attributes)} *)

val fold : t -> element -> ('a -> element -> 'a) -> 'a -> 'a

(** Depth-first fold over the {e physical hardware} of the subtree. *)
val hardware_fold : t -> element -> ('a -> element -> 'a) -> 'a -> 'a

val count : t -> within:element -> (element -> bool) -> int

(** Number of cores — the paper's canonical synthesized attribute. *)
val count_cores : ?within:element -> t -> int

(** Devices declaring a CUDA programming model. *)
val count_cuda_devices : ?within:element -> t -> int

(** Total static power (W) over hardware components (Sec. III-D). *)
val total_static_power : ?within:element -> t -> float

(** Total memory capacity (bytes). *)
val total_memory_bytes : ?within:element -> t -> float

val core_frequencies : ?within:element -> t -> float list
val min_frequency : ?within:element -> t -> float option
val max_frequency : ?within:element -> t -> float option

(** Installed software descriptors ([<installed>], [<hostOS>],
    [<programming_model>] under [<software>]). *)
val installed_software : t -> element list

(** Is a package installed?  Conditional composition's selectability
    constraints build on this (Sec. II). *)
val has_installed : t -> string -> bool

val installed_path : t -> string -> string option

(** Free-form [<property>] lookup by name (the PDL-style escape hatch). *)
val property : t -> string -> string option

(** Effective bandwidth (B/s) of an interconnect: the static analysis'
    annotation, falling back to the declared channel bandwidth. *)
val link_bandwidth : t -> string -> float option

val devices : t -> element list

(** Entries the resilient bootstrap could not measure directly: elements
    whose [quality] provenance attribute is not ["measured"], as
    [(scope path, quality)] pairs in document order. *)
val degraded_entries : t -> (string * string) list

(** Single-node or multi-node (the paper's top-level distinction). *)
val is_multi_node : t -> bool

(** {1 Path expressions}

    The {!Xpdl_xml.Path} selector language over the runtime model, e.g.
    [select q "//cache[@level=3]"].  [@id]/[@name] predicates match the
    identifier, [@type] the type reference; other attributes compare
    against their string rendering.

    {!select} compiles and caches the selector in the handle; a
    ["//tag"] first step seeds candidates from the IR's kind index
    instead of materializing every node.  For selectors built ahead of
    time use {!Xpdl_xml.Path.compile} with {!select_compiled}. *)

(** Compile a selector, caching it in the handle by source string. *)
val compile : t -> string -> Xpdl_xml.Path.compiled

(** Evaluate a pre-compiled selector over the runtime model. *)
val select_compiled : t -> Xpdl_xml.Path.compiled -> element list

val select : t -> string -> element list
val select_one : t -> string -> element option
