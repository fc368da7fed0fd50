(** The light-weight runtime model: a struct-of-arrays {e arena} whose
    byte image is the wire format (see the interface).

    Layout of a version-2 buffer, all integers little-endian:

    {v
    0   magic "XPDLRT"
    6   u64 format version = 2
    14  u64 x 9: node count n, attr count a, kind count nk,
                 key count nkey, string count nstr,
                 kind/key/string blob lengths, total length
    86  u64 payload checksum (FNV-1a-style, 63-bit)
    94  kind table    (nk+1)  x u32 offsets, then blob
        key table     (nkey+1) x u32 offsets, then blob
        string table  (nstr+1) x u32 offsets, then blob
        kind column   n x u8   (local kind id)
        span column   n x u32  (exclusive preorder subtree end)
        ident column  n x i32  (string id, -1 for none)
        type column   n x i32  (string id, -1 for none)
        attr offsets  (n+1) x u32 (CSR row starts into the attr columns)
        attr keys     a x u16  (local key id)
        attr tags     a x u8   (value constructor)
        attr payloads a x u64  (int / float bits / string id)
    v}

    Nodes are in preorder, so the subtree of node [i] is the id slice
    [i .. span(i)-1] and neither children nor parents need be stored:
    both are recovered from the span column (parents by one lazy stack
    sweep).  [of_bytes] on a v2 buffer validates the header arithmetic
    and the span nesting in one O(n) pass and wraps the buffer —
    nothing is decoded up front.  Node views, parents, scope paths,
    strings and the ident/kind/path indexes materialize lazily on
    first use.

    The full payload checksum is {e not} recomputed on load (it would
    dominate the init budget E15 exists to shrink); {!verify} recomputes
    it on demand and the CI codec drill exercises it.  Structural
    corruption is still caught at load; flipped bits inside attribute
    payloads surface as coded [XPDL606] diagnostics at decode time or
    via {!verify}.

    Version-1 files (length-prefixed node stream) are migrated on load:
    decoded with the original reader — including its preorder and
    dangling-index checks — then re-encoded as an arena. *)

open Xpdl_core
open Xpdl_units

type value =
  | VStr of string
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VQty of float * Units.dimension  (** SI-normalized quantity *)
  | VUnknown  (** an unresolved ["?"] that survived bootstrap *)

let pp_value ppf = function
  | VStr s -> Fmt.pf ppf "%S" s
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.pf ppf "%g" f
  | VBool b -> Fmt.bool ppf b
  | VQty (v, d) -> Fmt.pf ppf "%a" Units.pp (Units.make v d)
  | VUnknown -> Fmt.string ppf "?"

(** {1 Interned attribute keys}

    Attribute names are drawn from a small vocabulary (the schema's
    attribute tables plus extension attributes), so nodes store interned
    key ids rather than strings.  The pool is global and append-only:
    equal strings always map to the same id within a process.  The wire
    format never references this pool — each file carries its own key
    table in first-appearance order, mapped to pool ids at load time —
    so encoded bytes do not depend on process history. *)

module Keys = struct
  let table : (string, int) Hashtbl.t = Hashtbl.create 128
  let names = ref (Array.make 128 "")
  let count = ref 0

  (* The pool is process-global, and models are now built concurrently
     (the DSE engine evaluates sweep points on parallel domains), so the
     table must be guarded: Hashtbl is not safe under concurrent
     mutation, and ids handed out racily would break the equal-string =
     equal-id invariant every index relies on. *)
  let lock = Mutex.create ()

  let intern s =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table s with
        | Some i -> i
        | None ->
            let i = !count in
            if i = Array.length !names then begin
              let bigger = Array.make (2 * i) "" in
              Array.blit !names 0 bigger 0 i;
              names := bigger
            end;
            !names.(i) <- s;
            incr count;
            Hashtbl.add table s i;
            i)

  let intern_opt s = Mutex.protect lock (fun () -> Hashtbl.find_opt table s)

  let name i =
    Mutex.protect lock (fun () ->
        if i < 0 || i >= !count then invalid_arg "Ir.key_name: unknown key id";
        !names.(i))
end

let intern = Keys.intern
let intern_opt = Keys.intern_opt
let key_name = Keys.name

type node = {
  n_index : int;  (** preorder rank = node id *)
  n_kind : Schema.kind;
  n_ident : string option;  (** name or id *)
  n_type : string option;  (** retained [type] reference *)
  n_attrs : (int * value) array;  (** interned key id → value, sorted by key *)
  n_parent : int;  (** -1 for the root *)
  n_children : int array;  (** derived from the span column *)
  n_path : string;  (** scope path, e.g. ["liu_gpu_server/gpu1/SM0"] *)
  n_subtree_end : int;
      (** exclusive end of the preorder span: the subtree of this node is
          the id slice [n_index .. n_subtree_end - 1] *)
}

type t = {
  buf : string;  (** the wire-format byte image; the arena IS this buffer *)
  n : int;  (** node count *)
  a : int;  (** attribute count *)
  kind_decode : Schema.kind array;  (** local kind id → kind (eager, tiny) *)
  key_global : int array;  (** local key id → global {!Keys} id *)
  key_of_global : (int, int) Hashtbl.t;  (** global {!Keys} id → local key id *)
  nstr : int;
  o_str_off : int;
  o_str_blob : int;
  str_blob_len : int;
  o_kind : int;
  o_end : int;
  o_ident : int;
  o_type : int;
  o_attr_off : int;
  o_attr_key : int;
  o_attr_tag : int;
  o_attr_val : int;
  mutable strings : string option array;
      (** per-string decode cache, [[||]] until the first string decode *)
  mutable parents : int array;
      (** parent ids, derived from the span column on first use ([[||]]
          until then): parents are not on the wire *)
  mutable paths : string array option;  (** all scope paths, built on first use *)
  mutable by_ident : (string, int list) Hashtbl.t option;
  mutable by_tag : (string, int list) Hashtbl.t option;
  mutable by_path : (string, int) Hashtbl.t option;
  mutable views : node option array;
      (** materialized node records; [[||]] until the first view is built
          so a pure load allocates nothing proportional to [n] *)
  patched : (int, (int * value) array) Hashtbl.t;
      (** attribute-edit overlay: node id → replacement attrs, global-sorted *)
}

let value_of_attr : Model.attr_value -> value = function
  | Model.Str s -> VStr s
  | Model.Int i -> VInt i
  | Model.Float f -> VFloat f
  | Model.Bool b -> VBool b
  | Model.Quantity (q, _) -> VQty (Units.value q, Units.dim q)
  | Model.Expr (_, src) -> VStr src
  | Model.Unknown -> VUnknown

let compare_attr (a, _) (b, _) = Int.compare a b

let attrs_of_pairs pairs =
  let a = Array.of_list pairs in
  Array.sort compare_attr a;
  a

(** {1 Diagnostics} *)

exception Corrupt of Diagnostic.t

let corrupt code fmt =
  Fmt.kstr (fun m -> raise (Corrupt (Diagnostic.error ~code "%s" m))) fmt

(** {1 Primitive readers} *)

(* Little-endian loads.  [String.get_int32_le] compiles to one unaligned
   32-bit load whose boxed [int32] result is eliminated by the compiler's
   local unboxing (measured allocation-free), so these are the fastest
   portable readers available without flambda. *)
let u8 s o = Char.code (String.unsafe_get s o)
let u16 s o = String.get_uint16_le s o
let i32 s o = Int32.to_int (String.get_int32_le s o)
let u32 s o = i32 s o land 0xFFFFFFFF

(** {1 Codec constants} *)

let magic = "XPDLRT"
let format_version = 2
let v1_version = 1

(* magic (6) + version (8) + 9 length fields (72) + checksum (8) *)
let header_size = 94
let checksum_off = 86

let dim_code = function
  | Units.Size -> 0
  | Units.Frequency -> 1
  | Units.Power -> 2
  | Units.Energy -> 3
  | Units.Time -> 4
  | Units.Bandwidth -> 5
  | Units.Voltage -> 6
  | Units.Temperature -> 7
  | Units.Scalar -> 8

let dim_of_code = function
  | 0 -> Units.Size
  | 1 -> Units.Frequency
  | 2 -> Units.Power
  | 3 -> Units.Energy
  | 4 -> Units.Time
  | 5 -> Units.Bandwidth
  | 6 -> Units.Voltage
  | 7 -> Units.Temperature
  | 8 -> Units.Scalar
  | n -> corrupt "XPDL606" "bad dimension code %d" n

(* A 63-bit FNV-1a variant folding eight bytes at a time; the top bit is
   masked off so the value round-trips through the u64 header slot. *)
let fnv_prime = 0x100000001b3

let checksum_sub (s : string) pos len =
  let h = ref 0x2545F4914F6CDD1D in
  let words = len / 8 in
  for w = 0 to words - 1 do
    let c = Int64.to_int (String.get_int64_le s (pos + (8 * w))) in
    h := (!h lxor c) * fnv_prime land max_int
  done;
  for o = pos + (8 * words) to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s o)) * fnv_prime land max_int
  done;
  !h

(** {1 Encoder}

    All construction paths — {!of_model}, v1 migration, re-encoding a
    patched arena — funnel through one encoder over a neutral node
    description, so there is exactly one writer of the v2 layout.
    Tables are interned in first-appearance order (deterministic given
    the input, independent of the process-global {!Keys} pool), and
    per-node attributes are sorted by local key id, so encoding the same
    logical model always yields identical bytes. *)

type enc_node = {
  ek : string;  (** kind tag *)
  eid : string option;
  ety : string option;
  eattrs : (string * value) list;
  eend : int;  (** exclusive preorder span end; parents are derived *)
}

type interner = {
  it_tbl : (string, int) Hashtbl.t;
  mutable it_rev : string list;
  mutable it_cnt : int;
  mutable it_blob : int;
}

let interner () = { it_tbl = Hashtbl.create 64; it_rev = []; it_cnt = 0; it_blob = 0 }

let intern_in it s =
  match Hashtbl.find_opt it.it_tbl s with
  | Some i -> i
  | None ->
      let i = it.it_cnt in
      Hashtbl.add it.it_tbl s i;
      it.it_rev <- s :: it.it_rev;
      it.it_cnt <- i + 1;
      it.it_blob <- it.it_blob + String.length s;
      i

let w32 b o v = Bytes.set_int32_le b o (Int32.of_int v)
let w64 b o v = Bytes.set_int64_le b o (Int64.of_int v)

let encode (nodes : enc_node array) : string =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Ir.encode: empty model";
  let kinds = interner () and keys = interner () and strs = interner () in
  let total_attrs = ref 0 in
  let prep =
    Array.map
      (fun nd ->
        let k = intern_in kinds nd.ek in
        let sid = function None -> -1 | Some s -> intern_in strs s in
        let id = sid nd.eid in
        let ty = sid nd.ety in
        let attrs =
          Array.of_list
            (List.map
               (fun (name, v) ->
                 let lk = intern_in keys name in
                 let tag, payload =
                   match v with
                   | VStr s -> (0, Int64.of_int (intern_in strs s))
                   | VInt i -> (1, Int64.of_int i)
                   | VFloat f -> (2, Int64.bits_of_float f)
                   | VBool false -> (3, 0L)
                   | VBool true -> (4, 0L)
                   | VUnknown -> (5, 0L)
                   | VQty (q, d) -> (6 + dim_code d, Int64.bits_of_float q)
                 in
                 (lk, tag, payload))
               nd.eattrs)
        in
        Array.sort (fun (x, _, _) (y, _, _) -> Int.compare x y) attrs;
        total_attrs := !total_attrs + Array.length attrs;
        (k, id, ty, attrs))
      nodes
  in
  let a = !total_attrs in
  let nk = kinds.it_cnt and nkey = keys.it_cnt and nstr = strs.it_cnt in
  if nk > 255 then invalid_arg "Ir.encode: more than 255 element kinds";
  if nkey > 0xFFFF then invalid_arg "Ir.encode: more than 65535 attribute keys";
  let o_kind_off = header_size in
  let o_kind_blob = o_kind_off + (4 * (nk + 1)) in
  let o_key_off = o_kind_blob + kinds.it_blob in
  let o_key_blob = o_key_off + (4 * (nkey + 1)) in
  let o_str_off = o_key_blob + keys.it_blob in
  let o_str_blob = o_str_off + (4 * (nstr + 1)) in
  let o_kind = o_str_blob + strs.it_blob in
  let o_end = o_kind + n in
  let o_ident = o_end + (4 * n) in
  let o_type = o_ident + (4 * n) in
  let o_attr_off = o_type + (4 * n) in
  let o_attr_key = o_attr_off + (4 * (n + 1)) in
  let o_attr_tag = o_attr_key + (2 * a) in
  let o_attr_val = o_attr_tag + a in
  let total = o_attr_val + (8 * a) in
  let b = Bytes.create total in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  w64 b 6 format_version;
  w64 b 14 n;
  w64 b 22 a;
  w64 b 30 nk;
  w64 b 38 nkey;
  w64 b 46 nstr;
  w64 b 54 kinds.it_blob;
  w64 b 62 keys.it_blob;
  w64 b 70 strs.it_blob;
  w64 b 78 total;
  w64 b checksum_off 0;
  let write_table it o_off o_blob =
    let items = Array.of_list (List.rev it.it_rev) in
    let off = ref 0 in
    Array.iteri
      (fun i s ->
        w32 b (o_off + (4 * i)) !off;
        Bytes.blit_string s 0 b (o_blob + !off) (String.length s);
        off := !off + String.length s)
      items;
    w32 b (o_off + (4 * Array.length items)) !off
  in
  write_table kinds o_kind_off o_kind_blob;
  write_table keys o_key_off o_key_blob;
  write_table strs o_str_off o_str_blob;
  let ai = ref 0 in
  Array.iteri
    (fun i (k, id, ty, attrs) ->
      Bytes.unsafe_set b (o_kind + i) (Char.unsafe_chr k);
      w32 b (o_end + (4 * i)) nodes.(i).eend;
      w32 b (o_ident + (4 * i)) id;
      w32 b (o_type + (4 * i)) ty;
      w32 b (o_attr_off + (4 * i)) !ai;
      Array.iter
        (fun (lk, tag, payload) ->
          let j = !ai in
          Bytes.set_uint16_le b (o_attr_key + (2 * j)) lk;
          Bytes.unsafe_set b (o_attr_tag + j) (Char.unsafe_chr tag);
          Bytes.set_int64_le b (o_attr_val + (8 * j)) payload;
          incr ai)
        attrs)
    prep;
  w32 b (o_attr_off + (4 * n)) !ai;
  let sum = checksum_sub (Bytes.unsafe_to_string b) header_size (total - header_size) in
  Bytes.set_int64_le b checksum_off (Int64.of_int sum);
  Bytes.unsafe_to_string b

(** {1 Version-2 decoder: validate + wrap} *)

let of_bytes_v2 (s : string) : t =
  let len = String.length s in
  if len < header_size then
    corrupt "XPDL603" "runtime model truncated: %d bytes is shorter than the %d-byte header" len
      header_size;
  let field k what =
    let v = String.get_int64_le s (14 + (8 * k)) in
    if Int64.compare v 0L < 0 || Int64.compare v 0x7FFFFFFFL > 0 then
      corrupt "XPDL607" "header %s out of range (%Ld)" what v;
    Int64.to_int v
  in
  let n = field 0 "node count" in
  let a = field 1 "attribute count" in
  let nk = field 2 "kind count" in
  let nkey = field 3 "key count" in
  let nstr = field 4 "string count" in
  let kind_blob_len = field 5 "kind blob length" in
  let key_blob_len = field 6 "key blob length" in
  let str_blob_len = field 7 "string blob length" in
  let total_len = field 8 "total length" in
  if n < 1 then corrupt "XPDL605" "model has no nodes";
  if nk < 1 || nk > 255 then corrupt "XPDL607" "kind table size %d out of range (1..255)" nk;
  if nkey > 0xFFFF then corrupt "XPDL607" "key table size %d out of range (0..65535)" nkey;
  let o_kind_off = header_size in
  let o_kind_blob = o_kind_off + (4 * (nk + 1)) in
  let o_key_off = o_kind_blob + kind_blob_len in
  let o_key_blob = o_key_off + (4 * (nkey + 1)) in
  let o_str_off = o_key_blob + key_blob_len in
  let o_str_blob = o_str_off + (4 * (nstr + 1)) in
  let o_kind = o_str_blob + str_blob_len in
  let o_end = o_kind + n in
  let o_ident = o_end + (4 * n) in
  let o_type = o_ident + (4 * n) in
  let o_attr_off = o_type + (4 * n) in
  let o_attr_key = o_attr_off + (4 * (n + 1)) in
  let o_attr_tag = o_attr_key + (2 * a) in
  let o_attr_val = o_attr_tag + a in
  let computed = o_attr_val + (8 * a) in
  if computed <> total_len then
    corrupt "XPDL607" "sections add up to %d bytes but the header declares %d" computed total_len;
  if total_len <> len then
    corrupt "XPDL603" "runtime model truncated: file is %d bytes, header declares %d" len
      total_len;
  (* the kind and key tables are tiny: decode them eagerly *)
  let table_entry o_off o_blob blob_len k what =
    let off0 = u32 s (o_off + (4 * k)) and off1 = u32 s (o_off + (4 * k) + 4) in
    if off0 > off1 || off1 > blob_len then
      corrupt "XPDL605" "%s table offsets corrupt (entry %d)" what k;
    String.sub s (o_blob + off0) (off1 - off0)
  in
  let kind_decode =
    Array.init nk (fun k -> Schema.kind_of_tag (table_entry o_kind_off o_kind_blob kind_blob_len k "kind"))
  in
  let key_global =
    Array.init nkey (fun k -> Keys.intern (table_entry o_key_off o_key_blob key_blob_len k "key"))
  in
  let key_of_global = Hashtbl.create (max 16 nkey) in
  Array.iteri
    (fun lk g -> if not (Hashtbl.mem key_of_global g) then Hashtbl.add key_of_global g lk)
    key_global;
  (* One O(n) structural pass over the span column: every subtree span
     must nest strictly inside the innermost open span, so the ids form
     a preorder tree.  That is the single invariant the lazy accessors
     rely on for termination (children/parents walk spans); everything
     per-value — kind ids, attr CSR rows, string ids — is re-checked on
     access ([XPDL605]/[XPDL606] from the accessor), and the payload
     checksum is deliberately left to {!verify}. *)
  if u32 s o_end <> n then corrupt "XPDL605" "root span does not cover the model";
  if u32 s o_attr_off <> 0 then corrupt "XPDL605" "attribute offsets do not start at 0";
  (* The innermost open span lives in [cur_i]/[cur_e]; outer ancestors are
     spilled to a small doubling stack (depth, not node count).  Pops
     cannot underflow: the bottom entry is always the root, whose span
     [n] exceeds every i.  All unsafe stack accesses are below [sp],
     which the push path bounds. *)
  let st_e = ref (Array.make 64 0) in
  let sp = ref 0 in
  let cur_e = ref n in
  for i = 1 to n - 1 do
    while !cur_e <= i do
      decr sp;
      cur_e := Array.unsafe_get !st_e !sp
    done;
    let e = u32 s (o_end + (4 * i)) in
    if e <= i || e > !cur_e then
      corrupt "XPDL605" "node %d: subtree span %d escapes its parent" i e;
    if !sp >= Array.length !st_e then begin
      let b = Array.make (2 * Array.length !st_e) 0 in
      Array.blit !st_e 0 b 0 !sp;
      st_e := b
    end;
    Array.unsafe_set !st_e !sp !cur_e;
    incr sp;
    cur_e := e
  done;
  if u32 s (o_attr_off + (4 * n)) <> a then
    corrupt "XPDL605" "attribute offsets do not end at the attribute count";
  {
    buf = s;
    n;
    a;
    kind_decode;
    key_global;
    key_of_global;
    nstr;
    o_str_off;
    o_str_blob;
    str_blob_len;
    o_kind;
    o_end;
    o_ident;
    o_type;
    o_attr_off;
    o_attr_key;
    o_attr_tag;
    o_attr_val;
    strings = [||];
    parents = [||];
    paths = None;
    by_ident = None;
    by_tag = None;
    by_path = None;
    views = [||];
    patched = Hashtbl.create 7;
  }

(** {1 Accessors (used by the query API)} *)

let size t = t.n
let root_index (_ : t) = 0
let check t i fn = if i < 0 || i >= t.n then invalid_arg fn

(* Raw column reads; the index is the caller's responsibility.  Kind ids
   are validated here (lazily, per access) rather than at load time. *)
let kind_raw t i =
  let k = u8 t.buf (t.o_kind + i) in
  if k >= Array.length t.kind_decode then corrupt "XPDL606" "node %d: kind id out of range" i;
  t.kind_decode.(k)

let end_raw t i = u32 t.buf (t.o_end + (4 * i))

(* Parents are not on the wire: the parent of [i] is the innermost span
   covering it, recovered with one stack sweep on first use. *)
let ensure_parents t =
  if Array.length t.parents = 0 then begin
    let p = Array.make t.n (-1) in
    let stack = ref [ (0, t.n) ] in
    for i = 1 to t.n - 1 do
      while (match !stack with (_, e) :: _ -> e <= i | [] -> false) do
        stack := List.tl !stack
      done;
      (match !stack with (par, _) :: _ -> p.(i) <- par | [] -> ());
      stack := (i, end_raw t i) :: !stack
    done;
    t.parents <- p
  end;
  t.parents

let parent_raw t i = if i = 0 then -1 else (ensure_parents t).(i)

let string_at t sid =
  if sid < 0 || sid >= t.nstr then corrupt "XPDL606" "string id %d out of range" sid;
  if Array.length t.strings = 0 then t.strings <- Array.make t.nstr None;
  match t.strings.(sid) with
  | Some s -> s
  | None ->
      let off0 = u32 t.buf (t.o_str_off + (4 * sid)) in
      let off1 = u32 t.buf (t.o_str_off + (4 * sid) + 4) in
      if off0 > off1 || off1 > t.str_blob_len then
        corrupt "XPDL605" "string table offsets corrupt (entry %d)" sid;
      let s = String.sub t.buf (t.o_str_blob + off0) (off1 - off0) in
      t.strings.(sid) <- Some s;
      s

let opt_string_raw t col i =
  let v = i32 t.buf (col + (4 * i)) in
  if v = -1 then None else Some (string_at t v)

let ident_raw t i = opt_string_raw t t.o_ident i
let type_raw t i = opt_string_raw t t.o_type i

let decode_value t tag payload =
  match tag with
  | 0 -> VStr (string_at t (Int64.to_int payload))
  | 1 -> VInt (Int64.to_int payload)
  | 2 -> VFloat (Int64.float_of_bits payload)
  | 3 -> VBool false
  | 4 -> VBool true
  | 5 -> VUnknown
  | tag when tag >= 6 && tag <= 14 -> VQty (Int64.float_of_bits payload, dim_of_code (tag - 6))
  | tag -> corrupt "XPDL606" "bad value tag %d" tag

let wire_attr t j =
  let lk = u16 t.buf (t.o_attr_key + (2 * j)) in
  if lk >= Array.length t.key_global then
    corrupt "XPDL606" "attribute key id %d out of range" lk;
  let tag = u8 t.buf (t.o_attr_tag + j) in
  let payload = String.get_int64_le t.buf (t.o_attr_val + (8 * j)) in
  (lk, tag, payload)

(* CSR row of node [i]'s attributes, validated per access: the loader
   only pins the first and last offsets, not interior monotonicity. *)
let attr_range t i =
  let off0 = u32 t.buf (t.o_attr_off + (4 * i)) in
  let off1 = u32 t.buf (t.o_attr_off + (4 * i) + 4) in
  if off0 > off1 || off1 > t.a then
    corrupt "XPDL605" "node %d: attribute offsets not monotone" i;
  (off0, off1)

(* Node [i]'s attributes as the canonical global-key-sorted array. *)
let attrs_at t i =
  match Hashtbl.find_opt t.patched i with
  | Some arr -> arr
  | None ->
      let off0, off1 = attr_range t i in
      let arr =
        Array.init (off1 - off0) (fun j ->
            let lk, tag, payload = wire_attr t (off0 + j) in
            (t.key_global.(lk), decode_value t tag payload))
      in
      Array.sort compare_attr arr;
      arr

(* Derive the scope path of every node in one pass: unnamed nodes
   inherit their parent's prefix (the load-time structural pass
   guarantees parent(i) < i, so one forward sweep suffices). *)
let ensure_paths t =
  match t.paths with
  | Some p -> p
  | None ->
      let p = Array.make t.n "" in
      (match ident_raw t 0 with Some id -> p.(0) <- id | None -> ());
      for i = 1 to t.n - 1 do
        let prefix = p.(parent_raw t i) in
        p.(i) <-
          (match ident_raw t i with
          | Some id -> if prefix = "" then id else prefix ^ "/" ^ id
          | None -> prefix)
      done;
      t.paths <- Some p;
      p

(* Children of [i], derived from the span column: first child is [i+1]
   (when the span extends past [i]), each next sibling starts where the
   previous subtree ends. *)
let children_raw t i =
  let e = end_raw t i in
  let rec walk j acc = if j >= e then List.rev acc else walk (end_raw t j) (j :: acc) in
  walk (i + 1) []

let ensure_views t =
  if Array.length t.views = 0 then t.views <- Array.make t.n None;
  t.views

let node t i =
  check t i "Ir.node: index out of bounds";
  match (ensure_views t).(i) with
  | Some v -> v
  | None ->
      let v =
        {
          n_index = i;
          n_kind = kind_raw t i;
          n_ident = ident_raw t i;
          n_type = type_raw t i;
          n_attrs = attrs_at t i;
          n_parent = parent_raw t i;
          n_children = Array.of_list (children_raw t i);
          n_path = (ensure_paths t).(i);
          n_subtree_end = end_raw t i;
        }
      in
      t.views.(i) <- Some v;
      v

let kind_at t i =
  check t i "Ir.kind_at: index out of bounds";
  kind_raw t i

let ident_at t i =
  check t i "Ir.ident_at: index out of bounds";
  ident_raw t i

let type_at t i =
  check t i "Ir.type_at: index out of bounds";
  type_raw t i

let parent_index t i =
  check t i "Ir.parent_index: index out of bounds";
  parent_raw t i

let span_end_at t i =
  check t i "Ir.span_end_at: index out of bounds";
  end_raw t i

let path_at t i =
  check t i "Ir.path_at: index out of bounds";
  (ensure_paths t).(i)

let children_ids t i =
  check t i "Ir.children_ids: index out of bounds";
  children_raw t i

let nth_child t i c =
  check t i "Ir.nth_child: index out of bounds";
  let e = end_raw t i in
  let rec walk j k =
    if j >= e then None else if k = c then Some j else walk (end_raw t j) (k + 1)
  in
  if c < 0 then None else walk (i + 1) 0

let search_sorted (a : (int * value) array) key =
  let rec bs lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let k, v = a.(mid) in
      if k = key then Some v else if k < key then bs (mid + 1) hi else bs lo mid
  in
  bs 0 (Array.length a)

let attr_by_key_at t i key =
  check t i "Ir.attr_by_key_at: index out of bounds";
  match Hashtbl.find_opt t.patched i with
  | Some arr -> search_sorted arr key
  | None -> (
      match if Array.length t.views = 0 then None else t.views.(i) with
      | Some v -> search_sorted v.n_attrs key
      | None -> (
          match Hashtbl.find_opt t.key_of_global key with
          | None -> None
          | Some lk ->
              let off0, off1 = attr_range t i in
              let rec scan j =
                if j >= off1 then None
                else
                  let lk', tag, payload = wire_attr t j in
                  if lk' = lk then Some (decode_value t tag payload) else scan (j + 1)
              in
              scan off0))

let attr_at t i name =
  match Keys.intern_opt name with None -> None | Some k -> attr_by_key_at t i k

(** Replace node [i]'s attributes (interning keys, re-sorting) in an
    overlay over the immutable arena.  Spans, indexes and previously
    fetched records are untouched: this is the incremental store's
    attribute-edit fast path — the IR is patched, not rebuilt.  Raises
    [Invalid_argument] on a bad index. *)
let patch_attrs t i pairs =
  check t i "Ir.patch_attrs: node index";
  let arr = attrs_of_pairs (List.map (fun (k, v) -> (Keys.intern k, value_of_attr v)) pairs) in
  Hashtbl.replace t.patched i arr;
  if Array.length t.views > 0 then
    match t.views.(i) with
    | Some v -> t.views.(i) <- Some { v with n_attrs = arr }
    | None -> ()

(* Everything derived from [buf] alone (parents, paths, strings, the
   ident/tag/path indexes) is shared: it never changes after it is
   built, and a copy built later on either side agrees with it.  Only
   the edit-visible state is copied — the overlay and the view array,
   whose slots [patch_attrs] overwrites in place. *)
let freeze t = { t with patched = Hashtbl.copy t.patched; views = Array.copy t.views }

let root t = node t 0
let parent t (n : node) = if n.n_parent < 0 then None else Some (node t n.n_parent)
let children t (n : node) = Array.to_list (Array.map (node t) n.n_children)
let attr_by_key (n : node) key = search_sorted n.n_attrs key

let attr (n : node) key =
  (* an attribute name never interned cannot occur on any node *)
  match Keys.intern_opt key with None -> None | Some k -> attr_by_key n k

(** {2 Lazy document-order indexes} *)

let ensure_by_ident t =
  match t.by_ident with
  | Some h -> h
  | None ->
      let h = Hashtbl.create (max 16 t.n) in
      for i = t.n - 1 downto 0 do
        match ident_raw t i with
        | Some id ->
            Hashtbl.replace h id (i :: Option.value ~default:[] (Hashtbl.find_opt h id))
        | None -> ()
      done;
      t.by_ident <- Some h;
      h

let ensure_by_tag t =
  match t.by_tag with
  | Some h -> h
  | None ->
      let nk = Array.length t.kind_decode in
      let buckets = Array.make nk [] in
      for i = t.n - 1 downto 0 do
        let k = u8 t.buf (t.o_kind + i) in
        if k >= nk then corrupt "XPDL606" "node %d: kind id out of range" i;
        buckets.(k) <- i :: buckets.(k)
      done;
      let h = Hashtbl.create 32 in
      Array.iteri
        (fun k ids ->
          if ids <> [] then
            let tag = Schema.tag_of_kind t.kind_decode.(k) in
            match Hashtbl.find_opt h tag with
            | Some prev -> Hashtbl.replace h tag (prev @ ids)
            | None -> Hashtbl.add h tag ids)
        buckets;
      t.by_tag <- Some h;
      h

let ensure_by_path t =
  match t.by_path with
  | Some h -> h
  | None ->
      let paths = ensure_paths t in
      let h = Hashtbl.create (max 16 t.n) in
      for i = 0 to t.n - 1 do
        if not (Hashtbl.mem h paths.(i)) then Hashtbl.add h paths.(i) i
      done;
      t.by_path <- Some h;
      h

let find_by_ident t ident =
  match Hashtbl.find_opt (ensure_by_ident t) ident with
  | Some (i :: _) -> Some (node t i)
  | Some [] | None -> None

let all_by_ident t ident =
  List.map (node t) (Option.value ~default:[] (Hashtbl.find_opt (ensure_by_ident t) ident))

let indexes_of_tag t tag = Option.value ~default:[] (Hashtbl.find_opt (ensure_by_tag t) tag)
let indexes_of_kind t kind = indexes_of_tag t (Schema.tag_of_kind kind)
let all_of_kind t kind = List.map (node t) (indexes_of_kind t kind)

(** O(1) lookup of a scope path (first node in document order). *)
let find_by_path t path =
  match Hashtbl.find_opt (ensure_by_path t) path with Some i -> Some (node t i) | None -> None

(** Depth-first fold over the subtree of [n]: a scan of the contiguous
    preorder slice [n_index .. n_subtree_end - 1]. *)
let fold_subtree t f acc (n : node) =
  let r = ref acc in
  for i = n.n_index to n.n_subtree_end - 1 do
    r := f !r (node t i)
  done;
  !r

(** {1 Building from a model} *)

let of_model (root_el : Model.element) : t =
  let count = ref 0 in
  let items = ref [] in
  let rec build (e : Model.element) =
    let index = !count in
    incr count;
    List.iter build e.Model.children;
    items := (index, e, !count) :: !items
  in
  build root_el;
  let enc = Array.make !count { ek = ""; eid = None; ety = None; eattrs = []; eend = 0 } in
  List.iter
    (fun (index, (e : Model.element), stop) ->
      enc.(index) <-
        {
          ek = Schema.tag_of_kind e.Model.kind;
          eid = Model.identifier e;
          ety = e.Model.type_ref;
          eattrs = List.map (fun (k, v) -> (k, value_of_attr v)) e.Model.attrs;
          eend = stop;
        })
    !items;
  (* run the encoded image through the one validated load path *)
  of_bytes_v2 (encode enc)

(** {1 Version-1 migration reader}

    The seed release's codec: length-prefixed strings, fixed 64-bit
    ints, explicit child arrays, derived spans.  Retained read-only —
    a v1 file is decoded with all of the original structural checks,
    then re-encoded as an arena. *)

type reader = { src : string; mutable off : int }

let need r n =
  if r.off + n > String.length r.src then corrupt "XPDL603" "truncated runtime model file"

let get_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.off) in
  r.off <- r.off + 8;
  v

let get_float r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.src r.off) in
  r.off <- r.off + 8;
  v

let get_string r =
  let n = get_int r in
  if n < 0 || n > String.length r.src - r.off then corrupt "XPDL603" "bad string length";
  let s = String.sub r.src r.off n in
  r.off <- r.off + n;
  s

let get_opt_string r =
  need r 8;
  let n = Int64.to_int (String.get_int64_le r.src r.off) in
  if n = -1 then begin
    r.off <- r.off + 8;
    None
  end
  else Some (get_string r)

let get_value r =
  need r 1;
  let tag = r.src.[r.off] in
  r.off <- r.off + 1;
  match tag with
  | 'S' -> VStr (get_string r)
  | 'I' -> VInt (get_int r)
  | 'F' -> VFloat (get_float r)
  | 'T' -> VBool true
  | 'f' -> VBool false
  | 'Q' ->
      let v = get_float r in
      VQty (v, dim_of_code (get_int r))
  | '?' -> VUnknown
  | c -> corrupt "XPDL606" "bad value tag %C" c

(* Subtree spans are not on the v1 wire: recompute them from the child
   arrays, verifying on the way that the stored node order really is the
   preorder of the tree (true of every file the toolchain has ever
   written; anything else is structurally corrupt). *)
let derive_spans ~count ~root_idx children =
  let ends = Array.make count (-1) in
  let next = ref 0 in
  let rec go i =
    if i <> !next then corrupt "XPDL605" "node order is not the preorder of the tree";
    incr next;
    Array.iter go children.(i);
    ends.(i) <- !next
  in
  if root_idx <> 0 then corrupt "XPDL605" "root is not the first node";
  go root_idx;
  if !next <> count then corrupt "XPDL605" "unreachable nodes in model tree";
  ends

let of_bytes_v1 (s : string) : t =
  let r = { src = s; off = String.length magic + 8 } in
  let count = get_int r in
  if count < 1 then corrupt "XPDL605" "bad node count %d" count;
  let root_idx = get_int r in
  if root_idx < 0 || root_idx >= count then corrupt "XPDL605" "bad root index %d" root_idx;
  let raw =
    Array.init count (fun _ ->
        let tag = get_string r in
        let ident = get_opt_string r in
        let ty = get_opt_string r in
        let _stored_path = get_string r in
        let parent = get_int r in
        let n_kids = get_int r in
        if n_kids < 0 || n_kids > count then corrupt "XPDL605" "bad child count %d" n_kids;
        let children = Array.init n_kids (fun _ -> get_int r) in
        let n_attrs = get_int r in
        if n_attrs < 0 then corrupt "XPDL605" "bad attribute count %d" n_attrs;
        let attrs = ref [] in
        for _ = 1 to n_attrs do
          let k = get_string r in
          let v = get_value r in
          attrs := (k, v) :: !attrs
        done;
        (tag, ident, ty, parent, children, List.rev !attrs))
  in
  Array.iter
    (fun (_, _, _, parent, children, _) ->
      if parent >= count || parent < -1 then corrupt "XPDL605" "dangling parent index";
      Array.iter
        (fun c -> if c < 0 || c >= count then corrupt "XPDL605" "dangling child index")
        children)
    raw;
  let ends = derive_spans ~count ~root_idx (Array.map (fun (_, _, _, _, c, _) -> c) raw) in
  let enc =
    Array.mapi
      (fun i (tag, ident, ty, _parent, _children, attrs) ->
        { ek = tag; eid = ident; ety = ty; eattrs = attrs; eend = ends.(i) })
      raw
  in
  of_bytes_v2 (encode enc)

(** {1 Codec entry points} *)

let of_bytes (s : string) : t =
  let mlen = String.length magic in
  if String.length s < mlen || not (String.equal (String.sub s 0 mlen) magic) then
    corrupt "XPDL601" "bad magic: not a runtime model file";
  if String.length s < mlen + 8 then
    corrupt "XPDL603" "runtime model truncated before the version field";
  let v = String.get_int64_le s mlen in
  if Int64.equal v 2L then of_bytes_v2 s
  else if Int64.equal v 1L then of_bytes_v1 s
  else corrupt "XPDL602" "unsupported runtime model format version %Ld" v

let of_bytes_result s = match of_bytes s with t -> Ok t | exception Corrupt d -> Error d

(* Re-encode only when the attribute overlay is non-empty; otherwise the
   load-time byte image is returned as-is (save/load/save is the
   identity on bytes). *)
let enc_of_arena t =
  Array.init t.n (fun i ->
      let v = node t i in
      {
        ek = Schema.tag_of_kind v.n_kind;
        eid = v.n_ident;
        ety = v.n_type;
        eattrs = Array.to_list (Array.map (fun (k, value) -> (Keys.name k, value)) v.n_attrs);
        eend = v.n_subtree_end;
      })

let to_bytes t = if Hashtbl.length t.patched = 0 then t.buf else encode (enc_of_arena t)

let verify t =
  let bytes = to_bytes t in
  let stored = Int64.to_int (String.get_int64_le bytes checksum_off) in
  let got = checksum_sub bytes header_size (String.length bytes - header_size) in
  if got = stored then Ok ()
  else
    Error
      (Diagnostic.error ~code:"XPDL604"
         "runtime model checksum mismatch: stored %016x, computed %016x" stored got)

(** {1 Legacy version-1 writer}

    Byte-compatible with the seed release's [to_bytes]; kept so the
    migration path stays testable (and benchable) without checked-in v1
    artifacts for every model.  New files are always written as v2. *)

let put_int buf i = Buffer.add_int64_le buf (Int64.of_int i)
let put_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_opt_string buf = function
  | None -> put_int buf (-1)
  | Some s -> put_string buf s

let put_value buf = function
  | VStr s ->
      Buffer.add_char buf 'S';
      put_string buf s
  | VInt i ->
      Buffer.add_char buf 'I';
      put_int buf i
  | VFloat f ->
      Buffer.add_char buf 'F';
      put_float buf f
  | VBool b -> Buffer.add_char buf (if b then 'T' else 'f')
  | VQty (v, d) ->
      Buffer.add_char buf 'Q';
      put_float buf v;
      put_int buf (dim_code d)
  | VUnknown -> Buffer.add_char buf '?'

let to_bytes_v1 t : string =
  let buf = Buffer.create (t.n * 64) in
  Buffer.add_string buf magic;
  put_int buf v1_version;
  put_int buf t.n;
  put_int buf 0;
  for i = 0 to t.n - 1 do
    let nd = node t i in
    put_string buf (Schema.tag_of_kind nd.n_kind);
    put_opt_string buf nd.n_ident;
    put_opt_string buf nd.n_type;
    put_string buf nd.n_path;
    put_int buf nd.n_parent;
    put_int buf (Array.length nd.n_children);
    Array.iter (put_int buf) nd.n_children;
    put_int buf (Array.length nd.n_attrs);
    Array.iter
      (fun (k, v) ->
        put_string buf (Keys.name k);
        put_value buf v)
      nd.n_attrs
  done;
  Buffer.contents buf

(** Write the runtime model file consumed by [xpdl_init]. *)
let to_file path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_bytes t))

(* One [openfile]/[read] round trip instead of the buffered channel
   stack: model init is on the application startup path, so the read
   itself is worth a few tens of microseconds on a 10k-node model.
   Errors surface as [Sys_error] like the channel API would raise. *)
let of_file path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let len = (Unix.fstat fd).Unix.st_size in
      let b = Bytes.create len in
      let rec fill off =
        if off >= len then off
        else
          match Unix.read fd b off (len - off) with 0 -> off | r -> fill (off + r)
      in
      let got = fill 0 in
      (* a short read means the file shrank underneath us; let the codec
         report it as truncation *)
      of_bytes (if got = len then Bytes.unsafe_to_string b else Bytes.sub_string b 0 got))

let of_file_result path =
  match of_file path with t -> Ok t | exception Corrupt d -> Error d
