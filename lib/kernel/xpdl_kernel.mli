(** Idioms shared by every layer: one definition each.

    {ul
    {- the 63-bit payload checksum and the string table of every
       on-disk format ([.xrt] runtime models, [.xpdlidx] sidecars, WAL
       records and checkpoints);}
    {- the crash-safe whole-file writer and the recursive delete;}
    {- the domain pool behind parallel sweeps and validation;}
    {- JSON string and float spelling for every report.}} *)

(** {1 Checksum} *)

(** [checksum_sub s pos len] is a 63-bit FNV-1a variant over
    [s.[pos .. pos+len-1]], folding eight bytes at a time.  Bits 62–63
    of each aligned word are xored back into its low bits before the
    word is masked to the int range, so every single-bit flip of the
    input changes the result.  The result is non-negative and
    round-trips through a u64 slot. *)
val checksum_sub : string -> int -> int -> int

(** [checksum s = checksum_sub s 0 (String.length s)]. *)
val checksum : string -> int

(** {1 String tables} *)

(** The string table of the binary codecs: ids count up from 0 in the
    order strings are first interned, so an encoder that interns in a
    deterministic order writes deterministic bytes. *)
module Strtab : sig
  type t

  val create : unit -> t

  (** The id of a string, assigning the next free one on first sight. *)
  val intern : t -> string -> int

  val count : t -> int

  (** Total length of the distinct strings. *)
  val blob_length : t -> int

  (** The strings in id order. *)
  val strings : t -> string list

  (** Write [count + 1] little-endian u32 start offsets at [offsets] and
      the concatenated strings at [blob]. *)
  val write : t -> Bytes.t -> offsets:int -> blob:int -> unit
end

(** {1 Files} *)

(** Replace [path] with [data] atomically: write [path ^ ".tmp"], fsync
    it, rename it over [path], then fsync the directory (best-effort).
    A crash leaves the old or the new contents, never a torn file.  On
    error the tmp file is removed and the [Unix.Unix_error] or
    [Sys_error] is re-raised. *)
val write : path:string -> string -> unit

(** Delete [path] and, when it is a directory, everything under it.
    Symbolic links are removed, not followed.  A missing path, or an
    entry that cannot be removed, is skipped without raising. *)
val remove_tree : string -> unit

(** {1 Domain pool} *)

(** [iter ~jobs n f] calls [f i] once for every [i] in [0 .. n-1].
    With [jobs <= 1] (or [n <= 1]) the calls run in order on the
    calling domain.  Otherwise [min jobs n] domains, the caller's
    included, claim chunks of [max 1 (n / (workers * 8))] consecutive
    indices from an atomic cursor; [f] must then be safe to run
    concurrently, and results that must not depend on scheduling go
    into slots indexed by [i].  The first exception raised by [f] is
    re-raised after every domain has been joined. *)
val iter : jobs:int -> int -> (int -> unit) -> unit

(** {1 JSON} *)

(** [s] as a JSON string literal, surrounding quotes included.  The
    quote, backslash, newline, carriage return and tab are escaped by
    name, other control characters as a [\u00XX] escape, and every
    other byte (UTF-8 included) is copied verbatim. *)
val json_string : string -> string

(** A float as a JSON value: [%.17g] when finite (round-trips
    exactly), otherwise its [%h] spelling ([infinity], [nan]) as a JSON
    string, since JSON has no non-finite numbers. *)
val json_float : float -> string
