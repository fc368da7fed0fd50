(** The XPDL runtime query API (Sec. IV).

    This is the OCaml twin of the generated C++ API (see
    {!Xpdl_toolchain.Cpp_codegen}).  It provides the paper's four function
    categories over the serialized runtime model:

    {ol
    {- {b Initialization}: {!init} loads the runtime-model file written by
       the toolchain — the OCaml [int xpdl_init(char *filename)].}
    {- {b Model browsing}: {!children}, {!parent}, {!find_by_id},
       {!find_by_path}, {!all_of_kind} look up inner elements and return
       handles (or [None]) for navigating the model object tree.}
    {- {b Attribute getters}: typed lookups ({!get_string}, {!get_int},
       {!get_quantity}, ...) corresponding to the generated
       [m.get_<attr>()] functions.}
    {- {b Model analysis for derived attributes}: {!count_cores},
       {!count_cuda_devices}, {!total_static_power}, {!min_frequency},
       {!installed_software}, ... — the manually implemented aggregation
       functions the schema cannot generate.}}

    Handles are nodes of the flat {!Xpdl_toolchain.Ir} runtime structure,
    so every operation here is array/hash lookups — no XML in sight at
    run time, which is the point measured by experiment E5.  The IR's
    preorder layout makes every subtree aggregation a contiguous array
    scan, and because the IR is immutable, each handle carries a memo
    table: a derived attribute is computed at most once per subtree per
    handle (no invalidation is ever needed). *)

open Xpdl_core
module Ir = Xpdl_toolchain.Ir
module Path = Xpdl_xml.Path
module Store = Xpdl_store.Store

type element = Ir.node

(* Per-handle caches.  Keys are the [within] node's preorder index; the
   IR is immutable, so entries never need invalidation.  Compiled
   selectors are cached by source string. *)
type memo = {
  mc_selectors : (string, Path.compiled) Hashtbl.t;
  mc_selects : (string, Ir.node list) Hashtbl.t;
      (** selector source → result elements; evicted on any edit *)
  mc_count_cores : (int, int) Hashtbl.t;
  mc_cuda_devices : (int, int) Hashtbl.t;
  mc_static_power : (int, float) Hashtbl.t;
  mc_memory_bytes : (int, float) Hashtbl.t;
  mc_frequencies : (int, float list) Hashtbl.t;
  mutable mc_installed : element list option;
}

let fresh_memo () =
  {
    mc_selectors = Hashtbl.create 8;
    mc_selects = Hashtbl.create 8;
    mc_count_cores = Hashtbl.create 8;
    mc_cuda_devices = Hashtbl.create 8;
    mc_static_power = Hashtbl.create 8;
    mc_memory_bytes = Hashtbl.create 8;
    mc_frequencies = Hashtbl.create 8;
    mc_installed = None;
  }

(* Memo tables are shared by every domain holding the handle, and a bare
   [Hashtbl] is not safe under concurrent mutation.  Probes and inserts
   run under the handle's mutex; the compute itself runs outside it
   (computes re-enter the handle through [sync]), so two domains racing
   on a cold entry may both compute — they then agree bit-for-bit (the
   IR is immutable during reads) and the first insert wins. *)
let memoize lock tbl key compute =
  match Mutex.protect lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None ->
      let v = compute () in
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v' -> v'
          | None ->
              Hashtbl.add tbl key v;
              v)

(* Where the handle's IR comes from.  [Fixed] handles wrap an immutable
   IR (a file, an in-memory build): their memos never need invalidation.
   [Tracked] handles follow an {!Xpdl_store.Store}: before every access
   the handle consumes the store's edit journal — attribute edits are
   patched into the IR in place ({!Ir.patch_attrs}) and evict only the
   memo entries whose subtree spans cover the patched node; structural
   edits (or a compacted journal) force a full rebuild.  This replaces
   the former throw-away-the-handle-on-reload discipline. *)
type origin =
  | Fixed
  | Tracked of { store : Store.t; mutable synced_rev : int }

(* [lock] serializes memo-table access and journal synchronization so
   several domains can read one handle concurrently (snapshot serving).
   Concurrent {e reads} are safe; an edit to a tracked handle's store
   must still be externally ordered against readers of that handle — the
   server does this by running all head-handle traffic on one domain. *)
type t = { mutable ir : Ir.t; source : string; memo : memo; origin : origin; lock : Mutex.t }

exception Query_error of string

let error fmt = Fmt.kstr (fun m -> raise (Query_error m)) fmt

let reset_derived_memo (m : memo) =
  Hashtbl.reset m.mc_selects;
  Hashtbl.reset m.mc_count_cores;
  Hashtbl.reset m.mc_cuda_devices;
  Hashtbl.reset m.mc_static_power;
  Hashtbl.reset m.mc_memory_bytes;
  Hashtbl.reset m.mc_frequencies;
  m.mc_installed <- None

(* Walk an index path down the IR's derived child spans; [None] if it
   dangles. *)
let index_of_path (ir : Ir.t) path =
  let rec go i = function
    | [] -> Some i
    | c :: rest -> ( match Ir.nth_child ir i c with Some j -> go j rest | None -> None)
  in
  go (Ir.root_index ir) path

(* Evict memo entries whose key node's preorder span covers node [j]:
   exactly the derived values an edit at [j] can change. *)
let prune_covering ir (tbl : (int, 'a) Hashtbl.t) j =
  let stale =
    Hashtbl.fold
      (fun i _ acc -> if i <= j && j < Ir.span_end_at ir i then i :: acc else acc)
      tbl []
  in
  List.iter (Hashtbl.remove tbl) stale

let invalidate_at t j =
  let m = t.memo in
  Hashtbl.reset m.mc_selects;
  prune_covering t.ir m.mc_count_cores j;
  prune_covering t.ir m.mc_cuda_devices j;
  prune_covering t.ir m.mc_static_power j;
  prune_covering t.ir m.mc_memory_bytes j;
  prune_covering t.ir m.mc_frequencies j;
  m.mc_installed <- None

(* Bring a [Tracked] handle up to its store's revision.  Attribute-only
   edit runs are replayed as in-place patches (index paths recorded in
   the journal stay valid because the tree shape did not change); any
   structural edit, dangling path, or journal compaction falls back to a
   full IR rebuild with a fresh derived memo.  The caller holds
   [t.lock]. *)
let sync_locked t =
  match t.origin with
  | Fixed -> ()
  | Tracked tr ->
      let rev = Store.revision tr.store in
      if rev <> tr.synced_rev then begin
        let rebuild () =
          t.ir <- Ir.of_model (Store.model tr.store);
          reset_derived_memo t.memo
        in
        let apply (ed : Store.edit) =
          match ed.Store.e_kind with
          | Store.Structure -> raise_notrace Exit
          | Store.Attr _ -> (
              match
                (index_of_path t.ir ed.Store.e_path, Store.element_at tr.store ed.Store.e_path)
              with
              | Some i, Some e ->
                  Ir.patch_attrs t.ir i e.Model.attrs;
                  invalidate_at t i
              | _ -> raise_notrace Exit)
        in
        (match Store.edits_since tr.store tr.synced_rev with
        | Some edits -> ( try List.iter apply edits with Exit -> rebuild ())
        | None -> rebuild ());
        tr.synced_rev <- rev
      end

let sync t =
  match t.origin with Fixed -> () | Tracked _ -> Mutex.protect t.lock (fun () -> sync_locked t)

let copy_memo (m : memo) =
  {
    mc_selectors = Hashtbl.copy m.mc_selectors;
    mc_selects = Hashtbl.copy m.mc_selects;
    mc_count_cores = Hashtbl.copy m.mc_count_cores;
    mc_cuda_devices = Hashtbl.copy m.mc_cuda_devices;
    mc_static_power = Hashtbl.copy m.mc_static_power;
    mc_memory_bytes = Hashtbl.copy m.mc_memory_bytes;
    mc_frequencies = Hashtbl.copy m.mc_frequencies;
    mc_installed = m.mc_installed;
  }

(* Sync, freeze and copy under one lock acquisition, so the frozen IR
   and the copied memo describe the same revision.  The memo entries
   are valid for exactly that IR: sync has already evicted everything
   an edit since the last access could change. *)
let snapshot ?(source = "<snapshot>") t =
  Mutex.protect t.lock @@ fun () ->
  sync_locked t;
  { ir = Ir.freeze t.ir; source; memo = copy_memo t.memo; origin = Fixed; lock = Mutex.create () }

(* Hot attribute keys, interned once at startup. *)
let k_static_power = Ir.intern "static_power"
let k_size = Ir.intern "size"
let k_frequency = Ir.intern "frequency"

(** {1 Initialization} *)

(** Load a runtime-model file produced by the XPDL processing tool. *)
let init path : t =
  match Ir.of_file path with
  | ir -> { ir; source = path; memo = fresh_memo (); origin = Fixed; lock = Mutex.create () }
  | exception Ir.Corrupt d ->
      error "cannot load runtime model %s: [%s] %s" path d.Diagnostic.code d.Diagnostic.message
  | exception Sys_error msg -> error "cannot load runtime model: %s" msg

(** Wrap an in-memory runtime model (composition-time introspection). *)
let of_ir ?(source = "<memory>") ir =
  { ir; source; memo = fresh_memo (); origin = Fixed; lock = Mutex.create () }

(** Build directly from a composed model element (tests, tools). *)
let of_model ?(source = "<model>") m =
  { ir = Ir.of_model m; source; memo = fresh_memo (); origin = Fixed; lock = Mutex.create () }

(** Follow an incremental model store: the handle lazily consumes the
    store's edit journal instead of being thrown away on every change. *)
let of_store ?source store =
  let source =
    match source with Some s -> s | None -> Fmt.str "<store@%d>" (Store.revision store)
  in
  {
    ir = Ir.of_model (Store.model store);
    source;
    memo = fresh_memo ();
    origin = Tracked { store; synced_rev = Store.revision store };
    lock = Mutex.create ();
  }

let runtime_ir t =
  sync t;
  t.ir

let source t = t.source

let size t =
  sync t;
  Ir.size t.ir

(** {1 Model browsing} *)

(* Power models, ISAs, microbenchmark suites and software subtrees are
   metadata: the selector elements inside them (e.g. <core/> in a
   power_domain) must not be counted as physical hardware. *)
let is_metadata_kind = function
  | Schema.Power_model | Schema.Power_domains | Schema.Power_domain
  | Schema.Power_state_machine | Schema.Instructions | Schema.Microbenchmarks
  | Schema.Software | Schema.Properties | Schema.Constraints ->
      true
  | _ -> false

let root t : element =
  sync t;
  Ir.root t.ir

let parent t (e : element) =
  sync t;
  Ir.parent t.ir e

let children t (e : element) =
  sync t;
  Ir.children t.ir e

let children_of_kind t (e : element) kind =
  List.filter (fun (c : element) -> Schema.equal_kind c.Ir.n_kind kind) (children t e)

(** Find a model element anywhere by its identifier (name or id). *)
let find_by_id t ident : element option =
  sync t;
  Ir.find_by_ident t.ir ident

let find_by_id_exn t ident =
  match find_by_id t ident with
  | Some e -> e
  | None -> error "no element %S in model %s" ident t.source

(** Find by scope path, e.g. ["liu_gpu_server/gpu1/SM0"] — one hash
    lookup in the IR's path index (previously an O(n) scan). *)
let find_by_path t path : element option =
  sync t;
  Ir.find_by_path t.ir path

(** All elements of one kind, in document order. *)
let all_of_kind t kind : element list =
  sync t;
  Ir.all_of_kind t.ir kind

(** Depth-first fold over the {e physical hardware} of the subtree,
    skipping power-model/software metadata.  The preorder layout turns
    this into a linear scan of the subtree's slice in which a metadata
    node skips its whole span in O(1). *)
let hardware_fold t (e : element) f acc =
  sync t;
  let ir = t.ir in
  let stop = e.Ir.n_subtree_end in
  let rec go i acc =
    if i >= stop then acc
    else
      let n = Ir.node ir i in
      if is_metadata_kind n.Ir.n_kind then go n.Ir.n_subtree_end acc
      else go (i + 1) (f acc n)
  in
  go e.Ir.n_index acc

(** Physical hardware elements of one kind: excludes power-domain member
    selectors and other metadata subtrees. *)
let hardware_of_kind ?within t kind : element list =
  let within = match within with Some e -> e | None -> Ir.root t.ir in
  List.rev
    (hardware_fold t within
       (fun acc (n : element) ->
         if Schema.equal_kind n.Ir.n_kind kind then n :: acc else acc)
       [])

(** All elements in the subtree rooted at [e] (including [e]). *)
let subtree t (e : element) : element list =
  sync t;
  List.rev (Ir.fold_subtree t.ir (fun acc n -> n :: acc) [] e)

let kind (e : element) = e.Ir.n_kind
let ident (e : element) = e.Ir.n_ident
let path (e : element) = e.Ir.n_path

(** The retained [type] reference ("is this device a Nvidia_K20c?"). *)
let type_of (e : element) = e.Ir.n_type

(** {1 Attribute getters} *)

let get (e : element) key = Ir.attr e key

let get_string (e : element) key =
  match Ir.attr e key with
  | Some (Ir.VStr s) -> Some s
  | Some (Ir.VInt i) -> Some (string_of_int i)
  | Some (Ir.VFloat f) -> Some (Fmt.str "%g" f)
  | Some (Ir.VBool b) -> Some (string_of_bool b)
  | Some (Ir.VQty (v, _)) -> Some (Fmt.str "%g" v)
  | Some Ir.VUnknown | None -> None

let get_int (e : element) key =
  match Ir.attr e key with
  | Some (Ir.VInt i) -> Some i
  | Some (Ir.VFloat f) -> Some (int_of_float f)
  | Some (Ir.VStr s) -> int_of_string_opt s
  | _ -> None

let get_float (e : element) key =
  match Ir.attr e key with
  | Some (Ir.VFloat f) -> Some f
  | Some (Ir.VInt i) -> Some (float_of_int i)
  | Some (Ir.VQty (v, _)) -> Some v
  | Some (Ir.VStr s) -> float_of_string_opt s
  | _ -> None

let get_bool (e : element) key =
  match Ir.attr e key with
  | Some (Ir.VBool b) -> Some b
  | Some (Ir.VStr s) -> bool_of_string_opt s
  | _ -> None

(** SI-normalized quantity with dimension check. *)
let get_quantity (e : element) key ~dim =
  match Ir.attr e key with
  | Some (Ir.VQty (v, d)) when Xpdl_units.Units.equal_dimension d dim -> Some v
  | Some (Ir.VQty (_, d)) ->
      error "attribute %s has dimension %s, expected %s" key
        (Xpdl_units.Units.dimension_name d)
        (Xpdl_units.Units.dimension_name dim)
  | _ -> None

(** True if the attribute survived as an unresolved ["?"]. *)
let is_unknown (e : element) key =
  match Ir.attr e key with Some Ir.VUnknown -> true | _ -> false

(** {1 Model analysis functions (derived attributes)}

    Each function memoizes its result per subtree in the handle's memo
    table: repeated calls (optimization loops sitting on top of the
    model, E5/E6) cost one hash probe after the first. *)

let fold t (e : element) f acc =
  sync t;
  Ir.fold_subtree t.ir f acc e

let count t ~within p =
  hardware_fold t within (fun acc n -> if p n then acc + 1 else acc) 0

let resolve_within ?within t =
  sync t;
  match within with Some e -> e | None -> Ir.root t.ir

(** Number of cores in the subtree — the paper's canonical example of a
    synthesized attribute. *)
let count_cores ?within t =
  let within = resolve_within ?within t in
  memoize t.lock t.memo.mc_count_cores within.Ir.n_index (fun () ->
      count t ~within (fun n -> Schema.equal_kind n.Ir.n_kind Schema.Core))

(** Devices supporting the CUDA programming model in the subtree. *)
let count_cuda_devices ?within t =
  let within = resolve_within ?within t in
  memoize t.lock t.memo.mc_cuda_devices within.Ir.n_index (fun () ->
      count t ~within (fun n ->
          Schema.equal_kind n.Ir.n_kind Schema.Device
          && List.exists
               (fun (c : element) ->
                 Schema.equal_kind c.Ir.n_kind Schema.Programming_model
                 && (match c.Ir.n_type with
                    | Some ty ->
                        String.length ty >= 4
                        && String.lowercase_ascii (String.sub ty 0 4) = "cuda"
                    | None -> false))
               (children t n)))

(** Total static power (W) over hardware components of the subtree —
    the bottom-up aggregation of Sec. III-D. *)
let total_static_power ?within t =
  let within = resolve_within ?within t in
  memoize t.lock t.memo.mc_static_power within.Ir.n_index (fun () ->
      hardware_fold t within
        (fun acc n ->
          if Schema.is_hardware n.Ir.n_kind then
            match Ir.attr_by_key n k_static_power with
            | Some (Ir.VQty (v, _)) -> acc +. v
            | _ -> acc
          else acc)
        0.)

(** Total memory capacity (bytes) of the subtree's memory modules. *)
let total_memory_bytes ?within t =
  let within = resolve_within ?within t in
  memoize t.lock t.memo.mc_memory_bytes within.Ir.n_index (fun () ->
      hardware_fold t within
        (fun acc n ->
          if Schema.equal_kind n.Ir.n_kind Schema.Memory then
            match Ir.attr_by_key n k_size with Some (Ir.VQty (v, _)) -> acc +. v | _ -> acc
          else acc)
        0.)

let core_frequencies ?within t =
  let within = resolve_within ?within t in
  memoize t.lock t.memo.mc_frequencies within.Ir.n_index (fun () ->
      List.rev
        (hardware_fold t within
           (fun acc n ->
             if Schema.equal_kind n.Ir.n_kind Schema.Core then
               match Ir.attr_by_key n k_frequency with
               | Some (Ir.VQty (v, _)) -> v :: acc
               | _ -> acc
             else acc)
           []))

(** Minimum / maximum core clock (Hz) in the subtree. *)
let min_frequency ?within t =
  match core_frequencies ?within t with
  | [] -> None
  | l -> Some (List.fold_left Float.min Float.infinity l)

let max_frequency ?within t =
  match core_frequencies ?within t with
  | [] -> None
  | l -> Some (List.fold_left Float.max 0. l)

(** Installed software descriptors of the model ([<installed>], [<hostOS>],
    [<programming_model>] under [<software>]). *)
let installed_software t : element list =
  sync t;
  match Mutex.protect t.lock (fun () -> t.memo.mc_installed) with
  | Some l -> l
  | None ->
      let l =
        List.concat_map
          (fun sw ->
            List.filter
              (fun (c : element) ->
                match c.Ir.n_kind with
                | Schema.Installed | Schema.Host_os | Schema.Programming_model -> true
                | _ -> false)
              (children t sw))
          (all_of_kind t Schema.Software)
      in
      Mutex.protect t.lock (fun () ->
          match t.memo.mc_installed with
          | Some l -> l
          | None ->
              t.memo.mc_installed <- Some l;
              l)

(** Is a software package installed?  Matches the [type] reference or the
    resolved name, e.g. [has_installed q "CUDA_6.0"].  Conditional
    composition's selectability constraints are built on this (Sec. II). *)
let has_installed t package =
  List.exists
    (fun (e : element) ->
      (match e.Ir.n_type with Some ty -> String.equal ty package | None -> false)
      || match e.Ir.n_ident with Some i -> String.equal i package | None -> false)
    (installed_software t)

(** Installation path of a package, if modeled. *)
let installed_path t package =
  List.find_map
    (fun (e : element) ->
      let matches =
        (match e.Ir.n_type with Some ty -> String.equal ty package | None -> false)
        || match e.Ir.n_ident with Some i -> String.equal i package | None -> false
      in
      if matches then get_string e "path" else None)
    (installed_software t)

(** Free-form [<property>] lookup by name (the PDL-style escape hatch). *)
let property t name =
  List.find_map
    (fun (props : element) ->
      List.find_map
        (fun (p : element) ->
          match p.Ir.n_ident with
          | Some n when String.equal n name -> (
              match get_string p "value" with Some v -> Some v | None -> get_string p "command")
          | _ -> None)
        (children t props))
    (all_of_kind t Schema.Properties)

(** Effective bandwidth (B/s) of an interconnect, as computed by the
    static analysis; falls back to the declared channel bandwidth. *)
let link_bandwidth t link_ident =
  Option.bind (find_by_id t link_ident) (fun e ->
      match Ir.attr e "effective_bandwidth" with
      | Some (Ir.VQty (v, _)) -> Some v
      | _ ->
          List.find_map
            (fun (c : element) ->
              match Ir.attr c "max_bandwidth" with
              | Some (Ir.VQty (v, _)) -> Some v
              | _ -> None)
            (children_of_kind t e Schema.Channel))

(** Devices of the model (accelerators), with their type references. *)
let devices t = all_of_kind t Schema.Device

(** Model entries the resilient bootstrap could not measure directly:
    every element carrying a [quality] provenance attribute other than
    ["measured"], as [(scope path, quality)] pairs in document order.
    An optimization layer can treat these as lower-confidence inputs or
    trigger a re-measurement. *)
let degraded_entries t : (string * string) list =
  sync t;
  List.rev
    (fold t (root t)
       (fun acc (n : element) ->
         match get_string n "quality" with
         | Some q when not (String.equal q "measured") -> (n.Ir.n_path, q) :: acc
         | _ -> acc)
       [])

(** Single-node or multi-node? (the paper's top-level distinction).
    Decided on the kind index's list structure — no node lists are
    materialized and no [List.length] over all matches. *)
let is_multi_node t =
  sync t;
  Ir.indexes_of_kind t.ir Schema.Cluster <> []
  || (match Ir.indexes_of_kind t.ir Schema.Node with _ :: _ :: _ -> true | _ -> false)

(** {1 Path expressions}

    The {!Xpdl_xml.Path} selector language evaluated over the runtime
    model, e.g. [select q "//cache[@level=3]"] or
    [select q "system/device/group"].  Attribute predicates compare
    against the attribute's string rendering.

    Selectors are compiled once per handle ({!Path.compile}, cached by
    source string); a ["//tag"] first step seeds its candidates from the
    IR's kind index instead of materializing every node.

    Evaluation runs over arena node {e ids} — kind/ident/type/attr
    column reads, no node records — and materializes the matches only at
    the very end.  The final element list is memoized per selector
    source in the handle ([mc_selects], evicted on any edit), so a
    repeated [select] is one hash probe. *)

let id_get_string ir i key =
  match Ir.attr_at ir i key with
  | Some (Ir.VStr s) -> Some s
  | Some (Ir.VInt n) -> Some (string_of_int n)
  | Some (Ir.VFloat f) -> Some (Fmt.str "%g" f)
  | Some (Ir.VBool b) -> Some (string_of_bool b)
  | Some (Ir.VQty (v, _)) -> Some (Fmt.str "%g" v)
  | Some Ir.VUnknown | None -> None

let id_matches_step ir (st : Path.step) i =
  let tag_ok =
    String.equal st.Path.step_tag "*"
    || String.equal st.Path.step_tag (Schema.tag_of_kind (Ir.kind_at ir i))
  in
  tag_ok
  && List.for_all
       (fun (p : Path.pred) ->
         match p with
         | Path.Position _ -> true
         | Path.Attr_present name ->
             (name = "id" && Ir.ident_at ir i <> None)
             || (name = "type" && Ir.type_at ir i <> None)
             || Ir.attr_at ir i name <> None
         | Path.Attr_equals (name, v) -> (
             match name with
             | "id" | "name" -> Ir.ident_at ir i = Some v
             | "type" -> Ir.type_at ir i = Some v
             | _ -> id_get_string ir i name = Some v))
       st.Path.preds

let apply_position (st : Path.step) candidates =
  List.fold_left
    (fun cs p ->
      match p with
      | Path.Position n -> (
          match List.nth_opt cs (n - 1) with Some c -> [ c ] | None -> [])
      | _ -> cs)
    candidates st.Path.preds

(* The id-level evaluator: candidates are arena node ids throughout. *)
let select_ids t (c : Path.compiled) : int list =
  let ir = t.ir in
  let sel = c.Path.c_sel in
  let initial =
    if sel.Path.descend then
      match c.Path.c_seed_tag with
      | Some tag -> Ir.indexes_of_tag ir tag  (* kind-index seed, document order *)
      | None -> List.init (Ir.size ir) Fun.id
    else [ Ir.root_index ir ]
  in
  let rec walk steps candidates =
    match steps with
    | [] -> []
    | st :: rest ->
        let matched = apply_position st (List.filter (id_matches_step ir st) candidates) in
        if rest = [] then matched else walk rest (List.concat_map (Ir.children_ids ir) matched)
  in
  walk sel.Path.steps initial

(** Evaluate a compiled selector over the runtime model. *)
let select_compiled t (c : Path.compiled) : element list =
  sync t;
  memoize t.lock t.memo.mc_selects c.Path.c_source (fun () ->
      List.map (Ir.node t.ir) (select_ids t c))

let compile t path : Path.compiled =
  memoize t.lock t.memo.mc_selectors path (fun () -> Path.compile path)

(** Evaluate a path selector over the runtime model (compiled and cached
    per handle). *)
let select t path : element list = select_compiled t (compile t path)

let select_one t path = match select t path with [] -> None | e :: _ -> Some e
