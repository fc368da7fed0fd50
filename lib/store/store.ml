(** The revision-tracked model store (see the interface).

    The model is an immutable {!Xpdl_core.Model} tree: an edit rebuilds
    the spine from the root to the edited node, shares everything off
    the spine, bumps the revision and appends one entry to the journal
    (and, when durable, one record to the write-ahead log).  Readers
    that derive values from the model follow the journal; the store
    itself keeps no derived state. *)

open Xpdl_core

type revision = int
type index_path = Model.index_path

exception Store_error of Diagnostic.t

let err code fmt = Fmt.kstr (fun m -> raise (Store_error (Diagnostic.error ~code "%s" m))) fmt

type edit_kind = Attr of string | Structure
type edit = { e_rev : revision; e_path : index_path; e_kind : edit_kind }

let journal_capacity = 4096

(* The durability attachment: an open write-ahead journal plus the
   checkpoint cadence.  [checkpoint_rev] is the revision covered by the
   last on-disk checkpoint — recovery replays only journal records newer
   than it, and in-memory journal compaction treats it as a retention
   floor exactly like a pin. *)
type durability = {
  wal : Wal.t;
  dir : string;
  checkpoint_every : int;
  mutable checkpoint_rev : revision;
  mutable since_checkpoint : int;
}

type t = {
  mutable root : Model.element;
  mutable rev : revision;
  mutable journal : edit list;  (** newest first; holds revisions (rev - journal_len, rev] *)
  mutable journal_len : int;
  capacity : int;  (** journal retention floor for unpinned consumers *)
  mutable compact_at : int;  (** journal length at which to next attempt compaction *)
  pins : (revision, int) Hashtbl.t;  (** pinned revision -> pin count *)
  mutable dur : durability option;
}

let of_model ?(journal_capacity = journal_capacity) m =
  if journal_capacity < 1 then invalid_arg "Store.of_model: journal_capacity < 1";
  {
    root = m;
    rev = 0;
    journal = [];
    journal_len = 0;
    capacity = journal_capacity;
    compact_at = 2 * journal_capacity;
    pins = Hashtbl.create 7;
    dur = None;
  }

let model t = t.root
let revision t = t.rev
let size t = Model.size t.root

(** {1 Addressing} *)

let element_at t path = Model.at_index_path t.root path

let element_at_exn t path =
  match element_at t path with
  | Some e -> e
  | None ->
      err "XPDL401" "index path [%s] does not address a model element"
        (String.concat " " (List.map string_of_int path))

let find_paths t p =
  List.rev
    (Model.fold_index_paths
       (fun acc path e -> if p e then path :: acc else acc)
       [] t.root)

(** {1 Edits} *)

(* The oldest revision any consumer may still need replayed: pinned
   readers (MVCC snapshots, lagging subscribers) hold a floor below
   which compaction must not reach. *)
let min_pinned t = Hashtbl.fold (fun r _ acc -> min r acc) t.pins t.rev

(* The checkpoint is a retention floor like a pin: edits newer than the
   last durable checkpoint stay replayable in memory, so consumers that
   resynchronize after a crash recovery can catch up from the
   checkpoint revision without a full rebuild. *)
let checkpoint_floor_of t =
  match t.dur with Some d -> d.checkpoint_rev | None -> t.rev

let record t path kind =
  t.rev <- t.rev + 1;
  t.journal <- { e_rev = t.rev; e_path = path; e_kind = kind } :: t.journal;
  t.journal_len <- t.journal_len + 1;
  (* Amortized O(1) compaction: let the list grow to twice the retention
     floor, then drop everything older than both the capacity window and
     the oldest pinned revision in one pass.  While a pin holds the
     floor down, [compact_at] backs off by a full capacity so a pinned
     flood still costs O(1) list cells per edit on average instead of an
     O(length) re-scan each time. *)
  if t.journal_len >= t.compact_at then begin
    let floor = min (t.rev - t.capacity) (min (min_pinned t) (checkpoint_floor_of t)) in
    if floor > t.rev - t.journal_len then begin
      t.journal <- List.filter (fun e -> e.e_rev > floor) t.journal;
      t.journal_len <- t.rev - floor
    end;
    t.compact_at <- max (2 * t.capacity) (t.journal_len + t.capacity)
  end

(* Journal the accepted edit to the write-ahead log (when attached) and
   roll a checkpoint at the configured cadence.  A WAL I/O failure is a
   durability violation and surfaces as a raised [Store_error]: the edit
   is applied in memory but the caller must not acknowledge it. *)
let wal_append t op =
  match t.dur with
  | None -> ()
  | Some d -> (
      (match Wal.append d.wal ~rev:t.rev op with
      | Ok () -> ()
      | Error diag -> raise (Store_error diag));
      d.since_checkpoint <- d.since_checkpoint + 1;
      if d.since_checkpoint >= d.checkpoint_every then
        match Wal.write_checkpoint ~dir:d.dir ~rev:t.rev t.root with
        | Error diag -> raise (Store_error diag)
        | Ok () -> (
            match Wal.reset d.wal with
            | Error diag -> raise (Store_error diag)
            | Ok () ->
                d.checkpoint_rev <- t.rev;
                d.since_checkpoint <- 0))

let update_model t path f =
  match Model.update_at t.root path f with
  | m -> t.root <- m
  | exception Invalid_argument _ ->
      err "XPDL401" "index path [%s] does not address a model element"
        (String.concat " " (List.map string_of_int path))

let set_attr t path key value =
  update_model t path (fun e -> Model.set_attr e key value);
  record t path (Attr key);
  wal_append t (Wal.Set_attr (path, key, value))

let set_attr_raw t path ?unit_spelling key raw =
  let e = element_at_exn t path in
  let value, diags = Elaborate.attr_delta ~kind:e.Model.kind ?unit_spelling ~name:key raw in
  if not (Diagnostic.all_ok diags) then
    raise
      (Store_error
         (Diagnostic.error ~code:"XPDL403" "edit %s=%S cannot be elaborated: %a" key raw
            Diagnostic.pp_list (Diagnostic.errors diags)));
  set_attr t path key value;
  diags

let remove_attr t path key =
  update_model t path (fun e -> Model.remove_attr e key);
  record t path (Attr key);
  wal_append t (Wal.Remove_attr (path, key))

let replace_subtree t path replacement =
  update_model t path (fun _ -> replacement);
  record t path Structure;
  wal_append t (Wal.Replace_subtree (path, replacement))

let insert_child t path ?at child =
  let parent = element_at_exn t path in
  let n = List.length parent.Model.children in
  let at = match at with Some i -> i | None -> n in
  if at < 0 || at > n then err "XPDL402" "insert position %d out of range (0..%d)" at n;
  update_model t path (fun e ->
      let before = List.filteri (fun i _ -> i < at) e.Model.children in
      let after = List.filteri (fun i _ -> i >= at) e.Model.children in
      { e with Model.children = before @ (child :: after) });
  record t path Structure;
  wal_append t (Wal.Insert_child (path, at, child))

let remove_child t path at =
  let parent = element_at_exn t path in
  let n = List.length parent.Model.children in
  if at < 0 || at >= n then err "XPDL402" "child index %d out of range (0..%d)" at (n - 1);
  let removed = List.nth parent.Model.children at in
  update_model t path (fun e ->
      { e with Model.children = List.filteri (fun i _ -> i <> at) e.Model.children });
  record t path Structure;
  wal_append t (Wal.Remove_child (path, at));
  removed

(** {1 Edit journal} *)

let edits_since t r =
  if r >= t.rev then Some []
  else if r < t.rev - t.journal_len then None
  else
    (* newest first with strictly decreasing revisions: stop at the
       first entry at or below [r]; consing reverses into oldest first *)
    let rec take acc = function e :: rest when e.e_rev > r -> take (e :: acc) rest | _ -> acc in
    Some (take [] t.journal)

let journal_length t = t.journal_len

(** {1 Revision pinning (MVCC)} *)

let pin t =
  let r = t.rev in
  Hashtbl.replace t.pins r (1 + Option.value ~default:0 (Hashtbl.find_opt t.pins r));
  r

let unpin t r =
  match Hashtbl.find_opt t.pins r with
  | None -> err "XPDL404" "unpin of revision %d, which is not pinned" r
  | Some 1 -> Hashtbl.remove t.pins r
  | Some n -> Hashtbl.replace t.pins r (n - 1)

let pinned_revisions t =
  List.sort_uniq compare (Hashtbl.fold (fun r _ acc -> r :: acc) t.pins [])

(** {1 Durability: write-ahead journal and crash recovery} *)

let apply_op t (op : Wal.op) =
  match op with
  | Wal.Set_attr (p, k, v) -> set_attr t p k v
  | Wal.Remove_attr (p, k) -> remove_attr t p k
  | Wal.Replace_subtree (p, m) -> replace_subtree t p m
  | Wal.Insert_child (p, at, m) -> insert_child t p ~at m
  | Wal.Remove_child (p, at) -> ignore (remove_child t p at)

let ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Diagnostic.error ~code:"XPDL902" "cannot create wal directory %s: %s" dir
           (Unix.error_message e))

(* Replay the journal tail onto the base model.  Records are applied
   strictly in revision sequence; anything out of sequence (a gap left
   by an interrupted rotation, an op the recovered tree rejects) stops
   the replay with a coded warning — recovery never crashes and never
   applies a record it cannot trust. *)
let replay_records t records =
  let diags = ref [] in
  let warn fmt =
    Fmt.kstr (fun m -> diags := Diagnostic.warning ~code:"XPDL901" "%s" m :: !diags) fmt
  in
  let applied = ref 0 in
  (try
     List.iter
       (fun (rev, op) ->
         if rev <= t.rev then () (* obsolete: already covered by the checkpoint *)
         else if rev <> t.rev + 1 then begin
           warn "journal replay stopped: record revision %d does not follow head %d" rev t.rev;
           raise Exit
         end
         else begin
           apply_op t op;
           incr applied
         end)
       records
   with
  | Exit -> ()
  | Store_error d ->
      warn "journal replay stopped: record rejected by the store: [%s] %s" d.Diagnostic.code
        d.Diagnostic.message);
  (!applied, List.rev !diags)

let recover ?journal_capacity ?(policy = Wal.Interval 0.05) ?(checkpoint_every = 1024)
    ?(read_only = false) ~dir init =
  if checkpoint_every < 1 then invalid_arg "Store.recover: checkpoint_every < 1";
  let ( let* ) = Result.bind in
  let* () = if read_only then Ok () else ensure_dir dir in
  let* base = Wal.load_checkpoint ~dir in
  let fresh_diags, base_rev, base_model =
    match base with
    | Some (rev, m) -> ([], rev, m)
    | None ->
        ( [ Diagnostic.info ~code:"XPDL904" "no checkpoint in %s: starting fresh" dir ],
          0,
          init )
  in
  let* records, tail_diags, _clean_prefix = Wal.replay ~dir in
  let t = of_model ?journal_capacity base_model in
  t.rev <- base_rev;
  let applied, replay_diags = replay_records t records in
  let replay_info =
    if applied > 0 then
      [
        Diagnostic.info ~code:"XPDL903" "recovered %s: replayed %d journal records onto revision %d"
          dir applied base_rev;
      ]
    else []
  in
  let diags = fresh_diags @ tail_diags @ replay_diags @ replay_info in
  if read_only then Ok (t, diags)
  else
    (* Roll the recovered head into a fresh checkpoint and restart the
       journal empty: recovery converges the directory to its canonical
       clean state (torn tails cut, gaps forgotten), so a second crash
       right after recovery replays from here. *)
    let* () = Wal.write_checkpoint ~dir ~rev:t.rev t.root in
    let* wal = Wal.open_log ~dir ~policy () in
    let* () = Wal.reset wal in
    t.dur <- Some { wal; dir; checkpoint_every; checkpoint_rev = t.rev; since_checkpoint = 0 };
    Ok (t, diags)

let durable t = t.dur <> None
let checkpoint_rev t = Option.map (fun d -> d.checkpoint_rev) t.dur
let wal_appended t = match t.dur with Some d -> Wal.appended d.wal | None -> 0
let sync_wal t = match t.dur with Some d -> Wal.sync d.wal | None -> ()

let close_wal t =
  match t.dur with
  | None -> ()
  | Some d ->
      Wal.close d.wal;
      t.dur <- None

(** {1 Introspection} *)

let pp ppf t =
  Fmt.pf ppf "store: %d elements, revision %d, %d journaled edits, %d pins" (size t) t.rev
    t.journal_len
    (Hashtbl.fold (fun _ n acc -> acc + n) t.pins 0)
