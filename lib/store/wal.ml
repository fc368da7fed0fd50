(** Write-ahead journal and atomic checkpoints (see the interface). *)

open Xpdl_core
module Units = Xpdl_units.Units
module Expr = Xpdl_expr.Expr
module Strtab = Xpdl_kernel.Strtab

type fsync_policy = Always | Interval of float | Never

let pp_policy ppf = function
  | Always -> Fmt.string ppf "always"
  | Interval s -> Fmt.pf ppf "interval:%g" s
  | Never -> Fmt.string ppf "never"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval 0.05)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
      match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
      | Some v when v >= 0. -> Ok (Interval v)
      | _ -> Error (Fmt.str "invalid fsync interval in %S" s))
  | _ -> Error (Fmt.str "unknown fsync policy %S (expected always, interval[:S] or never)" s)

type op =
  | Set_attr of Model.index_path * string * Model.attr_value
  | Remove_attr of Model.index_path * string
  | Replace_subtree of Model.index_path * Model.element
  | Insert_child of Model.index_path * int * Model.element
  | Remove_child of Model.index_path * int

let pp_path ppf p = Fmt.pf ppf "[%a]" Fmt.(list ~sep:sp int) p

let pp_op ppf = function
  | Set_attr (p, k, v) -> Fmt.pf ppf "set %a %s=%a" pp_path p k Model.pp_attr_value v
  | Remove_attr (p, k) -> Fmt.pf ppf "unset %a %s" pp_path p k
  | Replace_subtree (p, e) -> Fmt.pf ppf "replace %a <%d nodes>" pp_path p (Model.size e)
  | Insert_child (p, at, e) -> Fmt.pf ppf "insert %a @%d <%d nodes>" pp_path p at (Model.size e)
  | Remove_child (p, at) -> Fmt.pf ppf "remove %a @%d" pp_path p at

(* ------------------------------------------------------------------ *)
(* little-endian writer / reader *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let w_i64 b v = Buffer.add_int64_le b (Int64.of_int v)
let w_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun m -> raise (Corrupt m)) fmt

type reader = { s : string; mutable pos : int }

let r_need r n = if r.pos + n > String.length r.s then corrupt "truncated (need %d bytes)" n

let r_u8 r =
  r_need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  r_need r 4;
  let v = Int32.to_int (String.get_int32_le r.s r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  r_need r 8;
  let v = Int64.to_int (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let r_f64 r =
  r_need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let r_done r = if r.pos <> String.length r.s then corrupt "%d trailing bytes" (String.length r.s - r.pos)

(* ------------------------------------------------------------------ *)
(* deterministic model codec *)

let dim_code : Units.dimension -> int = function
  | Units.Size -> 0
  | Frequency -> 1
  | Power -> 2
  | Energy -> 3
  | Time -> 4
  | Bandwidth -> 5
  | Voltage -> 6
  | Temperature -> 7
  | Scalar -> 8

let dim_of_code = function
  | 0 -> Units.Size
  | 1 -> Frequency
  | 2 -> Power
  | 3 -> Energy
  | 4 -> Time
  | 5 -> Bandwidth
  | 6 -> Voltage
  | 7 -> Temperature
  | 8 -> Scalar
  | c -> corrupt "unknown dimension code %d" c

let w_attr_value it b = function
  | Model.Str s ->
      w_u8 b 0;
      w_u32 b (Strtab.intern it s)
  | Model.Int v ->
      w_u8 b 1;
      w_i64 b v
  | Model.Float v ->
      w_u8 b 2;
      w_f64 b v
  | Model.Bool v ->
      w_u8 b 3;
      w_u8 b (if v then 1 else 0)
  | Model.Quantity (q, spelling) ->
      w_u8 b 4;
      w_f64 b (Units.value q);
      w_u8 b (dim_code (Units.dim q));
      w_u32 b (Strtab.intern it spelling)
  | Model.Expr (_, src) ->
      (* the AST is the deterministic parse of its stored source text *)
      w_u8 b 5;
      w_u32 b (Strtab.intern it src)
  | Model.Unknown -> w_u8 b 6

let w_opt_str it b = function
  | None -> w_u8 b 0
  | Some s ->
      w_u8 b 1;
      w_u32 b (Strtab.intern it s)

let rec w_element it b (e : Model.element) =
  w_u32 b (Strtab.intern it (Schema.tag_of_kind e.Model.kind));
  w_opt_str it b e.Model.name;
  w_opt_str it b e.Model.id;
  w_opt_str it b e.Model.type_ref;
  w_u32 b (List.length e.Model.extends);
  List.iter (fun s -> w_u32 b (Strtab.intern it s)) e.Model.extends;
  w_u32 b (List.length e.Model.attrs);
  List.iter
    (fun (k, v) ->
      w_u32 b (Strtab.intern it k);
      w_attr_value it b v)
    e.Model.attrs;
  w_u32 b (Strtab.intern it e.Model.pos.Xpdl_xml.Dom.file);
  w_u32 b e.Model.pos.Xpdl_xml.Dom.line;
  w_u32 b e.Model.pos.Xpdl_xml.Dom.column;
  w_u32 b (List.length e.Model.children);
  List.iter (w_element it b) e.Model.children

(* blob := u32 nstrings | (u32 len, bytes)* | element-body.  The string
   table is written after the body is encoded (it is discovered during
   encoding), so the body goes to a side buffer first. *)
let encode_model (m : Model.element) : string =
  let it = Strtab.create () in
  let body = Buffer.create 4096 in
  w_element it body m;
  let b = Buffer.create (Buffer.length body + 1024) in
  w_u32 b (Strtab.count it);
  List.iter
    (fun s ->
      w_u32 b (String.length s);
      Buffer.add_string b s)
    (Strtab.strings it);
  Buffer.add_buffer b body;
  Buffer.contents b

let r_strtab r =
  let n = r_u32 r in
  if n > 16_777_216 then corrupt "string table count %d implausible" n;
  Array.init n (fun _ ->
      let len = r_u32 r in
      r_need r len;
      let s = String.sub r.s r.pos len in
      r.pos <- r.pos + len;
      s)

let r_str tab r =
  let i = r_u32 r in
  if i >= Array.length tab then corrupt "string id %d out of range" i;
  tab.(i)

let r_opt_str tab r = match r_u8 r with 0 -> None | _ -> Some (r_str tab r)

let r_attr_value tab r =
  match r_u8 r with
  | 0 -> Model.Str (r_str tab r)
  | 1 -> Model.Int (r_i64 r)
  | 2 -> Model.Float (r_f64 r)
  | 3 -> Model.Bool (r_u8 r <> 0)
  | 4 ->
      let v = r_f64 r in
      let dim = dim_of_code (r_u8 r) in
      let spelling = r_str tab r in
      Model.Quantity (Units.make v dim, spelling)
  | 5 -> (
      let src = r_str tab r in
      match Expr.parse src with
      | ast -> Model.Expr (ast, src)
      | exception Expr.Error m -> corrupt "expression %S does not re-parse: %s" src m)
  | 6 -> Model.Unknown
  | t -> corrupt "unknown attr value tag %d" t

let rec r_element tab r : Model.element =
  let kind = Schema.kind_of_tag (r_str tab r) in
  let name = r_opt_str tab r in
  let id = r_opt_str tab r in
  let type_ref = r_opt_str tab r in
  let n_ext = r_u32 r in
  if n_ext > 4096 then corrupt "extends count %d implausible" n_ext;
  let extends = List.init n_ext (fun _ -> r_str tab r) in
  let n_attrs = r_u32 r in
  if n_attrs > 1_048_576 then corrupt "attr count %d implausible" n_attrs;
  let attrs =
    List.init n_attrs (fun _ ->
        let k = r_str tab r in
        (k, r_attr_value tab r))
  in
  let file = r_str tab r in
  let line = r_u32 r in
  let column = r_u32 r in
  let n_children = r_u32 r in
  if n_children > 16_777_216 then corrupt "child count %d implausible" n_children;
  let children = List.init n_children (fun _ -> r_element tab r) in
  {
    Model.kind;
    name;
    id;
    type_ref;
    extends;
    attrs;
    children;
    pos = { Xpdl_xml.Dom.file; line; column };
  }

let decode_model_reader r =
  let tab = r_strtab r in
  r_element tab r

let decode_model s : (Model.element, Diagnostic.t) result =
  match
    let r = { s; pos = 0 } in
    let m = decode_model_reader r in
    r_done r;
    m
  with
  | m -> Ok m
  | exception Corrupt msg ->
      Error (Diagnostic.error ~code:"XPDL900" "model image corrupt: %s" msg)

let model_fingerprint m = Xpdl_kernel.checksum (encode_model m)

(* ------------------------------------------------------------------ *)
(* op codec *)

let w_ipath b p =
  w_u32 b (List.length p);
  List.iter (fun i -> w_u32 b i) p

let r_ipath r =
  let n = r_u32 r in
  if n > 65_536 then corrupt "index path depth %d implausible" n;
  List.init n (fun _ -> r_u32 r)

let w_plain_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let r_plain_str r =
  let n = r_u32 r in
  r_need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let w_embedded_model b m = w_plain_str b (encode_model m)

let r_embedded_model r =
  let blob = r_plain_str r in
  let er = { s = blob; pos = 0 } in
  let m = decode_model_reader er in
  r_done er;
  m

(* record payload := i64 rev | u8 opcode | body.  Attribute values in a
   Set_attr body reuse the model codec's value encoding with a tiny
   local string table (intern discipline, one table per record). *)
let encode_record ~rev op =
  let b = Buffer.create 64 in
  w_i64 b rev;
  (match op with
  | Set_attr (p, k, v) ->
      w_u8 b 1;
      w_ipath b p;
      w_plain_str b k;
      let it = Strtab.create () in
      let vb = Buffer.create 32 in
      w_attr_value it vb v;
      w_u32 b (Strtab.count it);
      List.iter (fun s -> w_plain_str b s) (Strtab.strings it);
      Buffer.add_buffer b vb
  | Remove_attr (p, k) ->
      w_u8 b 2;
      w_ipath b p;
      w_plain_str b k
  | Replace_subtree (p, m) ->
      w_u8 b 3;
      w_ipath b p;
      w_embedded_model b m
  | Insert_child (p, at, m) ->
      w_u8 b 4;
      w_ipath b p;
      w_u32 b at;
      w_embedded_model b m
  | Remove_child (p, at) ->
      w_u8 b 5;
      w_ipath b p;
      w_u32 b at);
  Buffer.contents b

let decode_record payload : int * op =
  let r = { s = payload; pos = 0 } in
  let rev = r_i64 r in
  let op =
    match r_u8 r with
    | 1 ->
        let p = r_ipath r in
        let k = r_plain_str r in
        let n = r_u32 r in
        if n > 65_536 then corrupt "record string table count %d implausible" n;
        let tab = Array.init n (fun _ -> r_plain_str r) in
        Set_attr (p, k, r_attr_value tab r)
    | 2 ->
        let p = r_ipath r in
        Remove_attr (p, r_plain_str r)
    | 3 ->
        let p = r_ipath r in
        Replace_subtree (p, r_embedded_model r)
    | 4 ->
        let p = r_ipath r in
        let at = r_u32 r in
        Insert_child (p, at, r_embedded_model r)
    | 5 ->
        let p = r_ipath r in
        Remove_child (p, r_u32 r)
    | c -> corrupt "unknown wal opcode %d" c
  in
  r_done r;
  (rev, op)

(* ------------------------------------------------------------------ *)
(* file layout *)

let checkpoint_magic = "XPDLWCK1"
let log_magic = "XPDLWAL1"
let max_record = 64 * 1024 * 1024

let checkpoint_path dir = Filename.concat dir "checkpoint.xck"
let log_path dir = Filename.concat dir "wal.log"

let err_io code fmt = Fmt.kstr (fun m -> Error (Diagnostic.error ~code "%s" m)) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* checkpoints *)

(* checkpoint := magic (8) | i64 rev | u32 payload len | u64 checksum |
   payload (an [encode_model] blob) *)
let write_checkpoint ~dir ~rev m =
  match
    let payload = encode_model m in
    let b = Buffer.create (String.length payload + 32) in
    Buffer.add_string b checkpoint_magic;
    w_i64 b rev;
    w_u32 b (String.length payload);
    w_i64 b (Xpdl_kernel.checksum payload);
    Buffer.add_string b payload;
    Xpdl_kernel.write ~path:(checkpoint_path dir) (Buffer.contents b)
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, p) ->
      err_io "XPDL902" "cannot write checkpoint in %s: %s (%s)" dir (Unix.error_message e) p
  | exception Sys_error m -> err_io "XPDL902" "cannot write checkpoint in %s: %s" dir m

let load_checkpoint ~dir =
  let path = checkpoint_path dir in
  if not (Sys.file_exists path) then Ok None
  else
    match
      let s = read_file path in
      let r = { s; pos = 0 } in
      r_need r 8;
      if String.sub s 0 8 <> checkpoint_magic then corrupt "bad checkpoint magic";
      r.pos <- 8;
      let rev = r_i64 r in
      let len = r_u32 r in
      let ck = r_i64 r in
      r_need r len;
      if Xpdl_kernel.checksum_sub s r.pos len <> ck then corrupt "checkpoint checksum mismatch";
      let payload = String.sub s r.pos len in
      r.pos <- r.pos + len;
      r_done r;
      let er = { s = payload; pos = 0 } in
      let m = decode_model_reader er in
      r_done er;
      (rev, m)
    with
    | (rev, m) -> Ok (Some (rev, m))
    | exception Corrupt msg ->
        Error (Diagnostic.error ~code:"XPDL900" "checkpoint %s corrupt: %s" path msg)
    | exception Sys_error m -> err_io "XPDL900" "cannot read checkpoint %s: %s" path m

(* ------------------------------------------------------------------ *)
(* journal replay *)

(* record frame := u32 payload len | u64 payload checksum | payload *)
let replay ~dir =
  let path = log_path dir in
  if not (Sys.file_exists path) then Ok ([], [], 0)
  else
    match read_file path with
    | exception Sys_error m -> err_io "XPDL902" "cannot read journal %s: %s" path m
    | s ->
        let total = String.length s in
        let torn at fmt =
          Fmt.kstr
            (fun m ->
              [
                Diagnostic.warning ~code:"XPDL901"
                  "journal %s: tail truncated at byte %d of %d: %s" path at total m;
              ])
            fmt
        in
        if total < 8 || String.sub s 0 8 <> log_magic then
          if total = 0 then Ok ([], [], 0)
          else err_io "XPDL900" "journal %s has a bad magic number" path
        else begin
          let pos = ref 8 in
          let records = ref [] in
          let diags = ref [] in
          let stop = ref false in
          while (not !stop) && !pos < total do
            let at = !pos in
            if total - at < 12 then begin
              diags := torn at "partial record header (%d bytes)" (total - at);
              stop := true
            end
            else begin
              let len = Int32.to_int (String.get_int32_le s at) land 0xFFFFFFFF in
              let ck = Int64.to_int (String.get_int64_le s (at + 4)) in
              if len > max_record then begin
                diags := torn at "implausible record length %d" len;
                stop := true
              end
              else if total - at - 12 < len then begin
                diags := torn at "record body cut short (%d of %d bytes)" (total - at - 12) len;
                stop := true
              end
              else if Xpdl_kernel.checksum_sub s (at + 12) len <> ck then begin
                diags := torn at "record checksum mismatch";
                stop := true
              end
              else
                match decode_record (String.sub s (at + 12) len) with
                | rec_ ->
                    records := rec_ :: !records;
                    pos := at + 12 + len
                | exception Corrupt msg ->
                    diags := torn at "undecodable record: %s" msg;
                    stop := true
            end
          done;
          Ok (List.rev !records, !diags, !pos)
        end

(* ------------------------------------------------------------------ *)
(* appending *)

type t = {
  fd : Unix.file_descr;
  policy : fsync_policy;
  mutable last_sync : float;
  mutable dirty : bool;  (** bytes written since the last fsync *)
  mutable appended : int;
}

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let open_log ~dir ~policy ?truncate_at () =
  match
    let path = log_path dir in
    let fresh = not (Sys.file_exists path) in
    let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_CLOEXEC ] 0o644 in
    (match truncate_at with
    | Some at when not fresh -> Unix.ftruncate fd at
    | _ -> ());
    let size = (Unix.fstat fd).Unix.st_size in
    if size < 8 then begin
      Unix.ftruncate fd 0;
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      write_all fd log_magic;
      Unix.fsync fd
    end
    else ignore (Unix.lseek fd 0 Unix.SEEK_END);
    { fd; policy; last_sync = Unix.gettimeofday (); dirty = false; appended = 0 }
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, _, p) ->
      err_io "XPDL902" "cannot open journal in %s: %s (%s)" dir (Unix.error_message e) p

let sync t =
  if t.dirty then begin
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    t.dirty <- false;
    t.last_sync <- Unix.gettimeofday ()
  end

let append t ~rev op =
  match
    let payload = encode_record ~rev op in
    let b = Buffer.create (String.length payload + 12) in
    w_u32 b (String.length payload);
    w_i64 b (Xpdl_kernel.checksum payload);
    Buffer.add_string b payload;
    write_all t.fd (Buffer.contents b);
    t.dirty <- true;
    t.appended <- t.appended + 1;
    match t.policy with
    | Always -> sync t
    | Never -> ()
    | Interval s -> if Unix.gettimeofday () -. t.last_sync >= s then sync t
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, p) ->
      err_io "XPDL902" "journal append failed: %s (%s)" (Unix.error_message e) p

let reset t =
  match
    Unix.ftruncate t.fd 0;
    ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
    write_all t.fd log_magic;
    Unix.fsync t.fd;
    t.dirty <- false;
    t.last_sync <- Unix.gettimeofday ()
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, p) ->
      err_io "XPDL902" "journal reset failed: %s (%s)" (Unix.error_message e) p

let appended t = t.appended

let close t =
  sync t;
  try Unix.close t.fd with Unix.Unix_error _ -> ()
