(** Write-ahead journal and atomic checkpoints for the model store.

    A durable store directory holds two files:

    {ul
    {- [checkpoint.xck] — an atomic snapshot: magic, the checkpointed
       revision, and a deterministic intern-coded image of the whole
       {!Xpdl_core.Model.element} tree, protected by
       {!Xpdl_kernel.checksum} (the checksum and string table of the v2
       runtime codec and the [.xpdlidx] repository sidecar).  Written via
       tmp + fsync + rename, so a crash leaves either the old or the
       new checkpoint, never a torn one.}
    {- [wal.log] — the write-ahead journal: one self-delimiting record
       per accepted edit after the checkpoint, each framed as
       [u32 length | u64 checksum | payload] so a torn tail (partial
       write at crash) is detected by length or checksum and truncated,
       never trusted.}}

    Recovery is checkpoint + tail replay: {!load_checkpoint}, then
    {!replay} applies every intact record in order and stops (with a
    coded [XPDL901] diagnostic) at the first torn, corrupt or
    out-of-sequence record.  Recovered bytes are bit-identical to the
    pre-crash head — the float payloads travel as IEEE bit patterns and
    the model codec is deterministic, which the [store-durable] fuzz
    property checks against an uncrashed oracle.

    Fsync policy decides when appended records are forced to disk:
    [Always] (fsync on every append — an acknowledged edit can never be
    lost), [Interval s] (fsync at most every [s] seconds — bounded loss
    window, near-in-memory latency), [Never] (leave it to the OS). *)

open Xpdl_core

type fsync_policy = Always | Interval of float | Never

val pp_policy : Format.formatter -> fsync_policy -> unit

(** Parse ["always"], ["never"], ["interval"] or ["interval:S"]. *)
val policy_of_string : string -> (fsync_policy, string) result

(** One journaled edit, post-elaboration: replay never re-runs
    elaboration, it re-applies the exact store delta. *)
type op =
  | Set_attr of Model.index_path * string * Model.attr_value
  | Remove_attr of Model.index_path * string
  | Replace_subtree of Model.index_path * Model.element
  | Insert_child of Model.index_path * int * Model.element
  | Remove_child of Model.index_path * int

val pp_op : Format.formatter -> op -> unit

(** {1 Deterministic model codec}

    A standalone intern-coded image of a model tree: string table in
    first-appearance order, then the element structure referencing it.
    Encoding the same tree always yields the same bytes, so byte
    equality of two encodings is semantic equality strong enough for
    bit-identical recovery checks. *)

val encode_model : Model.element -> string

val decode_model : string -> (Model.element, Diagnostic.t) result

(** {!Xpdl_kernel.checksum} of {!encode_model} (printable with
    ["%016x"]); equal fingerprints on recovered vs. oracle heads is the
    drill's bit-identity probe. *)
val model_fingerprint : Model.element -> int

(** {1 Checkpoints} *)

val checkpoint_path : string -> string
val log_path : string -> string

(** Atomically replace the checkpoint: write to a tmp file, fsync it,
    rename over [checkpoint.xck], then best-effort fsync the directory.
    [Error] carries [XPDL902]. *)
val write_checkpoint : dir:string -> rev:int -> Model.element -> (unit, Diagnostic.t) result

(** [Ok None] when no checkpoint exists; [Error] ([XPDL900]) when one
    exists but is truncated, checksum-corrupt or undecodable. *)
val load_checkpoint : dir:string -> ((int * Model.element) option, Diagnostic.t) result

(** {1 Journal replay} *)

(** Read every intact record of [wal.log], oldest first, each as
    [(revision, op)].  The returned diagnostics are non-fatal findings:
    [XPDL901] when a torn or corrupt tail was cut (with the byte offset
    of the cut), nothing on a clean read.  [clean_prefix] is the byte
    length of the intact prefix — truncating the file there removes the
    torn tail.  A missing journal file replays as zero records. *)
val replay :
  dir:string -> ((int * op) list * Diagnostic.t list * int, Diagnostic.t) result

(** {1 Appending} *)

type t

(** Open (or create) [wal.log] for appending and truncate it to
    [truncate_at] bytes first when given (cutting a torn tail found by
    {!replay}).  [Error] carries [XPDL902]. *)
val open_log : dir:string -> policy:fsync_policy -> ?truncate_at:int -> unit -> (t, Diagnostic.t) result

(** Append one record and fsync it according to the policy.  Raises
    [Unix.Unix_error] only through {!Diagnostic} — failures surface as
    [Error] ([XPDL902]). *)
val append : t -> rev:int -> op -> (unit, Diagnostic.t) result

(** Force buffered records to disk regardless of policy. *)
val sync : t -> unit

(** Restart the journal empty (after a successful checkpoint made every
    record obsolete). *)
val reset : t -> (unit, Diagnostic.t) result

(** Records appended through this handle (telemetry). *)
val appended : t -> int

val close : t -> unit
