(** MVCC session logic for the model-query server (see the interface). *)

open Xpdl_core
module Store = Xpdl_store.Store
module Query = Xpdl_query.Query
module Ir = Xpdl_toolchain.Ir

type session = {
  sid : int;
  pins : (Store.revision, int) Hashtbl.t;  (** rev -> nested pin count *)
  mutable subscribed : bool;
  events : Protocol.event Queue.t;
  mutable closed : bool;
}

(* A snapshot handle shared by every pin of one revision; [refs] counts
   pins across sessions and the handle is reclaimed when it drops to 0
   (the store-side retention floor is released pin by pin).  [image] is
   the [Fetch] answer: a frozen arena that carries an edit overlay
   re-encodes on every [Ir.to_bytes], so the snapshot encodes once, on
   its first [Fetch]. *)
type snap = { sq : Query.t; image : string Lazy.t; mutable refs : int }

type t = {
  st : Store.t;
  head : Query.t;  (** tracked handle following the store's journal *)
  snapshots : (Store.revision, snap) Hashtbl.t;
  sessions : (int, session) Hashtbl.t;
  mutable next_sid : int;
  mutable served : int;  (** requests dispatched, for [Stats] *)
  dedup : (int, int * int) Hashtbl.t;  (** req_id -> payload fingerprint, answered rev *)
  dedup_fifo : int Queue.t;  (** req_ids in arrival order, for window eviction *)
  dedup_window : int;
  mutable applied_edits : int;  (** edits actually applied to the store *)
  mutable deduped : int;  (** duplicate req_ids answered from the window *)
}

let default_dedup_window = 4096

let of_store ?(dedup_window = default_dedup_window) st =
  {
    st;
    head = Query.of_store ~source:"serve:head" st;
    snapshots = Hashtbl.create 7;
    sessions = Hashtbl.create 7;
    next_sid = 1;
    served = 0;
    dedup = Hashtbl.create 64;
    dedup_fifo = Queue.create ();
    dedup_window = max 1 dedup_window;
    applied_edits = 0;
    deduped = 0;
  }

let create ?journal_capacity ?dedup_window m =
  of_store ?dedup_window (Store.of_model ?journal_capacity m)
let store t = t.st

let session t =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let s =
    { sid; pins = Hashtbl.create 4; subscribed = false; events = Queue.create (); closed = false }
  in
  Hashtbl.replace t.sessions sid s;
  s

let session_id s = s.sid

let drop_snapshot_ref t rev =
  match Hashtbl.find_opt t.snapshots rev with
  | None -> ()
  | Some snap ->
      snap.refs <- snap.refs - 1;
      if snap.refs <= 0 then Hashtbl.remove t.snapshots rev

let close_session t s =
  if not s.closed then begin
    s.closed <- true;
    Hashtbl.iter
      (fun rev count ->
        for _ = 1 to count do
          Store.unpin t.st rev;
          drop_snapshot_ref t rev
        done)
      s.pins;
    Hashtbl.reset s.pins;
    s.subscribed <- false;
    Queue.clear s.events;
    Hashtbl.remove t.sessions s.sid
  end

(* ------------------------------------------------------------------ *)
(* dispatch *)

let err code fmt = Fmt.kstr (fun msg -> Protocol.Err { code; msg }) fmt
let err_not_pinned rev = err "XPDL706" "revision %d is not a pinned snapshot of this session" rev

let session_pin_count s rev = Option.value ~default:0 (Hashtbl.find_opt s.pins rev)

(* The revision's shared snapshot, when this session holds a pin on it. *)
let resolve_snap t s rev =
  match Hashtbl.find_opt t.snapshots rev with
  | Some snap when session_pin_count s rev > 0 -> Result.Ok snap
  | _ -> Error (err_not_pinned rev)

(* The handle a [rev] field selects: the moving head for [-1], else the
   pinned snapshot's. *)
let resolve_handle t s rev =
  if rev < 0 then Result.Ok t.head else Result.map (fun snap -> snap.sq) (resolve_snap t s rev)

(* The query mini-language: the [xpdltool query] expressions, answered
   as protocol values (floats travel bit-exactly). *)
let eval_query q expr : Protocol.response =
  let starts_with prefix s =
    String.length s > String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  let after prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix) in
  let unanswerable fmt = err "XPDL704" fmt in
  let float_opt what = function
    | Some v -> Protocol.Ok (Float v)
    | None -> unanswerable "%s is not defined on this model" what
  in
  match expr with
  | "cores" -> Ok (Int (Query.count_cores q))
  | "cuda-devices" -> Ok (Int (Query.count_cuda_devices q))
  | "static-power" -> Ok (Float (Query.total_static_power q))
  | "memory" -> Ok (Float (Query.total_memory_bytes q))
  | "min-freq" -> float_opt expr (Query.min_frequency q)
  | "max-freq" -> float_opt expr (Query.max_frequency q)
  | "size" -> Ok (Int (Query.size q))
  | "multi-node" -> Ok (Int (if Query.is_multi_node q then 1 else 0))
  | "software" -> Ok (Strs (List.map Query.path (Query.installed_software q)))
  | "degraded" ->
      Ok (Strs (List.map (fun (path, quality) -> quality ^ " " ^ path) (Query.degraded_entries q)))
  | s when starts_with "id:" s -> (
      match Query.find_by_id q (after "id:" s) with
      | Some e -> Ok (Str (Query.path e))
      | None -> unanswerable "no element has identifier %S" (after "id:" s))
  | s when starts_with "ipath:" s -> (
      (* the element's index path (decimal child positions), the address
         an [Edit] request wants — how a load generator finds targets *)
      let name = after "ipath:" s in
      match
        match Query.find_by_id q name with Some e -> Some e | None -> Query.find_by_path q name
      with
      | None -> unanswerable "no element has identifier or path %S" name
      | Some e ->
          let ir = Query.runtime_ir q in
          let position parent i =
            let cs = Ir.children_ids ir parent in
            match List.find_index (Int.equal i) cs with
            | Some pos -> pos
            | None -> invalid_arg "ipath: child not under parent"
          in
          let rec up i acc =
            let p = Ir.parent_index ir i in
            if p < 0 then acc else up p (position p i :: acc)
          in
          Ok (Strs (List.map string_of_int (up e.Ir.n_index []))))
  | s when starts_with "path:" s -> (
      match Query.find_by_path q (after "path:" s) with
      | Some e -> Ok (Str (Option.value ~default:"?" (Query.ident e)))
      | None -> unanswerable "no element at path %S" (after "path:" s))
  | s when starts_with "prop:" s -> (
      match Query.property q (after "prop:" s) with
      | Some v -> Ok (Str v)
      | None -> unanswerable "property %S is unset" (after "prop:" s))
  | s when starts_with "bw:" s -> float_opt s (Query.link_bandwidth q (after "bw:" s))
  | s when starts_with "sel:" s -> Ok (Int (List.length (Query.select q (after "sel:" s))))
  | other -> unanswerable "unknown query %S" other

let event_of_edit (e : Store.edit) =
  {
    Protocol.ev_rev = e.e_rev;
    ev_path = e.e_path;
    ev_kind = (match e.e_kind with Store.Attr name -> name | Store.Structure -> "#structure");
  }

let publish t ev =
  Hashtbl.iter (fun _ s -> if s.subscribed then Queue.push ev s.events) t.sessions

let snapshot_count t = Hashtbl.length t.snapshots
let session_count t = Hashtbl.length t.sessions
let applied_edits t = t.applied_edits
let deduped t = t.deduped

let stats_json t =
  Fmt.str
    "{\"revision\":%d,\"size\":%d,\"journal_length\":%d,\"pinned\":[%a],\"sessions\":%d,\"snapshots\":%d,\"served\":%d,\"applied_edits\":%d,\"deduped\":%d,\"durable\":%b,\"wal_appended\":%d,\"model_fnv\":\"%016x\"}"
    (Store.revision t.st) (Store.size t.st) (Store.journal_length t.st)
    Fmt.(list ~sep:comma int)
    (Store.pinned_revisions t.st) (session_count t) (snapshot_count t) t.served t.applied_edits
    t.deduped (Store.durable t.st) (Store.wal_appended t.st)
    (Xpdl_store.Wal.model_fingerprint (Store.model t.st))

let do_pin t s =
  let rev = Store.pin t.st in
  Hashtbl.replace s.pins rev (session_pin_count s rev + 1);
  (match Hashtbl.find_opt t.snapshots rev with
  | Some snap -> snap.refs <- snap.refs + 1
  | None ->
      (* the head already holds this revision as an arena plus an edit
         overlay: freeze it (and its memo) instead of rebuilding *)
      let sq = Query.snapshot ~source:(Fmt.str "serve:pin@%d" rev) t.head in
      let image = lazy (Ir.to_bytes (Query.runtime_ir sq)) in
      Hashtbl.replace t.snapshots rev { sq; image; refs = 1 });
  Protocol.Ok (Int rev)

let do_unpin t s rev =
  if session_pin_count s rev = 0 then err_not_pinned rev
  else begin
    (match Hashtbl.find_opt s.pins rev with
    | Some 1 | None -> Hashtbl.remove s.pins rev
    | Some n -> Hashtbl.replace s.pins rev (n - 1));
    Store.unpin t.st rev;
    drop_snapshot_ref t rev;
    Ok Unit
  end

(* A canonical fingerprint of an edit's payload (request id excluded):
   the id-less wire encoding hashed.  Good enough to tell "same edit
   retransmitted" from "same id reused for different work". *)
let edit_fingerprint path key value unit_spelling =
  Hashtbl.hash
    (Protocol.encode_request (Protocol.Edit { path; key; value; unit_spelling; req_id = None }))

let remember_dedup t id fp rev =
  if not (Hashtbl.mem t.dedup id) then begin
    Queue.push id t.dedup_fifo;
    if Queue.length t.dedup_fifo > t.dedup_window then
      Hashtbl.remove t.dedup (Queue.pop t.dedup_fifo)
  end;
  Hashtbl.replace t.dedup id (fp, rev)

let apply_edit t path key value unit_spelling =
  match Store.set_attr_raw t.st path ?unit_spelling key value with
  | (_ : Diagnostic.t list) ->
      let rev = Store.revision t.st in
      t.applied_edits <- t.applied_edits + 1;
      publish t { Protocol.ev_rev = rev; ev_path = path; ev_kind = key };
      Result.Ok rev
  | exception Store.Store_error d ->
      Error (err "XPDL705" "edit rejected: [%s] %s" d.Diagnostic.code d.Diagnostic.message)

let do_edit t path key value unit_spelling req_id =
  match req_id with
  | None -> (
      match apply_edit t path key value unit_spelling with
      | Result.Ok rev -> Protocol.Ok (Int rev)
      | Error e -> e)
  | Some id -> (
      let fp = edit_fingerprint path key value unit_spelling in
      match Hashtbl.find_opt t.dedup id with
      | Some (fp', rev) when fp' = fp ->
          (* idempotent replay: a retransmit of an already-acknowledged
             edit answers the originally assigned revision *)
          t.deduped <- t.deduped + 1;
          Protocol.Ok (Int rev)
      | Some _ -> err "XPDL905" "edit request id %d replayed with a different payload" id
      | None -> (
          match apply_edit t path key value unit_spelling with
          | Result.Ok rev ->
              remember_dedup t id fp rev;
              Protocol.Ok (Int rev)
          | Error e -> e))

let handle t s (req : Protocol.request) : Protocol.response =
  t.served <- t.served + 1;
  try
    match req with
    | Ping -> Ok Unit
    | Stats -> Ok (Str (stats_json t))
    | Pin -> do_pin t s
    | Unpin rev -> do_unpin t s rev
    | Query { rev; q } -> (
        match resolve_handle t s rev with Result.Ok h -> eval_query h q | Error e -> e)
    | Edit { path; key; value; unit_spelling; req_id } ->
        do_edit t path key value unit_spelling req_id
    | Subscribe ->
        s.subscribed <- true;
        Ok Unit
    | Unsubscribe ->
        s.subscribed <- false;
        Queue.clear s.events;
        Ok Unit
    | Fetch rev -> (
        if rev < 0 then Ok (Blob (Ir.to_bytes (Query.runtime_ir t.head)))
        else
          match resolve_snap t s rev with
          | Result.Ok snap -> Ok (Blob (Lazy.force snap.image))
          | Error e -> e)
    | EditsSince rev -> (
        match Store.edits_since t.st rev with
        | Some edits -> Ok (Edits (List.map event_of_edit edits))
        | None ->
            (* XPDL707: compacted past [rev]; the client must resync *)
            Ok (Compacted (Store.revision t.st)))
  with
  | Query.Query_error msg -> err "XPDL704" "query failed: %s" msg
  | Store.Store_error d -> err "XPDL705" "store error: [%s] %s" d.Diagnostic.code d.Diagnostic.message

let handle_frame t s payload =
  let resp =
    match Protocol.decode_request payload with
    | Result.Ok req -> handle t s req
    | Error d -> Protocol.Err { code = d.Diagnostic.code; msg = d.Diagnostic.message }
  in
  Protocol.encode_response resp

let drain_events s =
  let evs = List.of_seq (Queue.to_seq s.events) in
  Queue.clear s.events;
  evs

let pp ppf t =
  Fmt.pf ppf "hub: rev %d, %d sessions, %d snapshots, %d served" (Store.revision t.st)
    (session_count t) (snapshot_count t) t.served
