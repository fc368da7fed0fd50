(** Idioms shared by every layer (see the interface). *)

let fnv_prime = 0x100000001b3

let checksum_sub (s : string) pos len =
  let h = ref 0x2545F4914F6CDD1D in
  let n8 = len / 8 * 8 in
  let i = ref 0 in
  while !i < n8 do
    (* fold bits 62-63 back into the low bits before masking to the
       63-bit int range — otherwise the top two bits of every aligned
       word would be invisible to the checksum (a single-bit flip
       there, e.g. a float sign, would slip through) *)
    let c64 = String.get_int64_le s (pos + !i) in
    let c = Int64.to_int (Int64.logxor c64 (Int64.shift_right_logical c64 62)) land max_int in
    h := (!h lxor c) * fnv_prime land max_int;
    i := !i + 8
  done;
  for o = pos + n8 to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s o)) * fnv_prime land max_int
  done;
  !h

let checksum s = checksum_sub s 0 (String.length s)

module Strtab = struct
  type t = {
    ids : (string, int) Hashtbl.t;
    mutable rev : string list;
    mutable count : int;
    mutable blob : int;
  }

  let create () = { ids = Hashtbl.create 64; rev = []; count = 0; blob = 0 }

  let intern t s =
    match Hashtbl.find t.ids s with
    | i -> i
    | exception Not_found ->
        let i = t.count in
        Hashtbl.add t.ids s i;
        t.rev <- s :: t.rev;
        t.count <- i + 1;
        t.blob <- t.blob + String.length s;
        i

  let count t = t.count
  let blob_length t = t.blob
  let strings t = List.rev t.rev

  let write t b ~offsets ~blob =
    let off = ref 0 in
    List.iteri
      (fun i s ->
        Bytes.set_int32_le b (offsets + (4 * i)) (Int32.of_int !off);
        Bytes.blit_string s 0 b (blob + !off) (String.length s);
        off := !off + String.length s)
      (strings t);
    Bytes.set_int32_le b (offsets + (4 * t.count)) (Int32.of_int !off)
end

(* The data must hit the disk before the rename publishes it, and the
   rename is only durable once the directory entry itself is synced. *)
let write ~path data =
  let tmp = path ^ ".tmp" in
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         let n = String.length data in
         let off = ref 0 in
         while !off < n do
           off := !off + Unix.write_substring fd data !off (n - !off)
         done;
         Unix.fsync fd);
     Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* directory fsync is best-effort: not every filesystem lets you open
     a directory for reading, and the rename is already atomic *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; O_CLOEXEC ] 0 with
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      (try Unix.close dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun n -> remove_tree (Filename.concat path n))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* No work stealing: chunks are small enough (>= 8 per domain on
   average) that tail imbalance stays bounded. *)
let iter ~jobs n f =
  let workers = max 1 (min jobs n) in
  if workers = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let cursor = Atomic.make 0 in
    let chunk = max 1 (n / (workers * 8)) in
    let rec worker () =
      let start = Atomic.fetch_and_add cursor chunk in
      if start < n then begin
        for i = start to min n (start + chunk) - 1 do
          f i
        done;
        worker ()
      end
    in
    let outcome run = match run () with () -> None | exception e -> Some e in
    let domains = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    let own = outcome worker in
    let joined = List.map (fun d -> outcome (fun () -> Domain.join d)) domains in
    Option.iter raise (List.find_map Fun.id (own :: joined))
  end

let json_string s =
  let buf = Buffer.create (String.length s + 10) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Fmt.kstr (Buffer.add_string buf) "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float v = if Float.is_finite v then Fmt.str "%.17g" v else Fmt.str "\"%h\"" v
