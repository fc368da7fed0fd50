(** Differential property drivers (see the interface for the catalogue).

    Each property is a function [seed -> case -> (message, repro) option]
    over its own derived RNG stream ([Gen.case ~seed ~salt]), so
    properties are independent: adding cases to one never perturbs
    another, and a printed (property, seed, case) triple replays exactly
    one input. *)

open Xpdl_xml
open Xpdl_core
module Ir = Xpdl_toolchain.Ir
module Query = Xpdl_query.Query
module Psm = Xpdl_energy.Psm
module Power = Xpdl_core.Power
module Store = Xpdl_store.Store
module Dse = Xpdl_dse.Dse
module Repo = Xpdl_repo.Repo

type failure = {
  f_property : string;
  f_seed : int;
  f_case : int;
  f_message : string;
  f_repro : string;
}

type report = {
  r_seed : int;
  r_count : int;
  r_properties : int;
  r_cases : int;
  r_failures : failure list;
}

let default_seed = 20150901 (* the paper's conference date; arbitrary but fixed *)

(* A check yields [Some message] on divergence.  All checks are total:
   an escaped exception is itself a failure (the "never crashes"
   half of every property). *)
let guarded f = try f () with exn -> Some ("uncaught exception: " ^ Printexc.to_string exn)
let fail fmt = Fmt.kstr Option.some fmt

let approx_equal a b =
  let tol = 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol

(* --- composing a generated document through the real pipeline --- *)

(* Elaborate every child of the generated <xpdl> wrapper, use the named
   ones as the meta-model repository and the last element as the system
   under test; resolve inheritance leniently and instantiate.  Total:
   shrunk documents may be structurally degenerate and must still
   compose to something comparable. *)
let compose_doc (doc : Dom.element) : Model.element option =
  match Dom.child_elements doc with
  | [] -> None
  | children ->
      let elaborated = List.map (fun c -> fst (Elaborate.of_xml c)) children in
      let lookup name =
        List.find_opt (fun (e : Model.element) -> e.Model.name = Some name) elaborated
      in
      let sys = List.nth elaborated (List.length elaborated - 1) in
      let resolved, _ = Inheritance.resolve_lenient lookup sys in
      let expanded, _ = Instantiate.run resolved in
      Some expanded

(* --- property: query-vs-oracle --- *)

let check_query_vs_oracle (doc : Dom.element) : string option =
  guarded @@ fun () ->
  match compose_doc doc with
  | None -> None
  | Some m ->
      let ir = Ir.of_model m in
      let q = Query.of_ir ir in
      let entries = Oracle.paths m in
      let check_int name fast naive =
        if fast <> naive then fail "%s: fast=%d naive=%d" name fast naive else None
      in
      let check_float name fast naive =
        if not (approx_equal fast naive) then fail "%s: fast=%g naive=%g" name fast naive
        else None
      in
      let first_of tbl key rank =
        match Hashtbl.find_opt tbl key with
        | Some r -> r
        | None ->
            Hashtbl.add tbl key rank;
            rank
      in
      let first_path = Hashtbl.create 64 and first_id = Hashtbl.create 64 in
      let seq =
        [
          (fun () -> check_int "count_cores" (Query.count_cores q) (Oracle.count_cores m));
          (fun () ->
            check_int "count_cuda_devices" (Query.count_cuda_devices q)
              (Oracle.count_cuda_devices m));
          (fun () ->
            check_float "total_static_power" (Query.total_static_power q)
              (Oracle.total_static_power m));
          (fun () ->
            check_float "total_memory_bytes" (Query.total_memory_bytes q)
              (Oracle.total_memory_bytes m));
          (fun () ->
            let fast = Query.core_frequencies q and naive = Oracle.core_frequencies m in
            if List.length fast <> List.length naive then
              fail "core_frequencies: %d vs %d entries" (List.length fast) (List.length naive)
            else if not (List.for_all2 approx_equal fast naive) then
              fail "core_frequencies: value mismatch"
            else None);
          (* every scope path must resolve to the first node (document
             order) carrying it — including paths duplicated by sibling
             id collisions and group expansion *)
          (fun () ->
            List.find_map
              (fun (path, rank, _) ->
                let expected = first_of first_path path rank in
                match Query.find_by_path q path with
                | None -> fail "find_by_path %S: fast=None naive=node %d" path expected
                | Some n ->
                    if n.Ir.n_index <> expected then
                      fail "find_by_path %S: fast=node %d naive=node %d" path n.Ir.n_index
                        expected
                    else None)
              entries);
          (fun () ->
            List.find_map
              (fun (_, rank, (e : Model.element)) ->
                match Model.identifier e with
                | None -> None
                | Some id ->
                    let expected = first_of first_id id rank in
                    (match Query.find_by_id q id with
                    | None -> fail "find_by_id %S: fast=None naive=node %d" id expected
                    | Some n ->
                        if n.Ir.n_index <> expected then
                          fail "find_by_id %S: fast=node %d naive=node %d" id n.Ir.n_index
                            expected
                        else None))
              entries);
          (* per-node agreement: kind, identifier and preorder subtree
             span (= Query.subtree size) against the naive recursion *)
          (fun () ->
            List.find_map
              (fun (path, rank, (e : Model.element)) ->
                let n = Ir.node ir rank in
                if not (Schema.equal_kind n.Ir.n_kind e.Model.kind) then
                  fail "node %d (%s): kind %s vs %s" rank path
                    (Schema.tag_of_kind n.Ir.n_kind) (Schema.tag_of_kind e.Model.kind)
                else if n.Ir.n_ident <> Model.identifier e then
                  fail "node %d (%s): ident mismatch" rank path
                else
                  let fast = List.length (Query.subtree q n) in
                  let naive = Oracle.subtree_size e in
                  if fast <> naive then
                    fail "subtree of node %d (%s): fast=%d naive=%d" rank path fast naive
                  else None)
              entries);
          (* kind index and compiled //tag selectors vs naive counts *)
          (fun () ->
            let kinds =
              List.sort_uniq compare
                (List.map (fun (_, _, (e : Model.element)) -> e.Model.kind) entries)
            in
            List.find_map
              (fun kind ->
                let tag = Schema.tag_of_kind kind in
                let naive = Oracle.count_of_kind m kind in
                let by_index = List.length (Query.all_of_kind q kind) in
                if by_index <> naive then
                  fail "all_of_kind %s: fast=%d naive=%d" tag by_index naive
                else
                  match kind with
                  | Schema.Other _ -> None (* not addressable by selector tag *)
                  | _ ->
                      let by_select = List.length (Query.select q ("//" ^ tag)) in
                      if by_select <> naive then
                        fail "select //%s: fast=%d naive=%d" tag by_select naive
                      else None)
              kinds);
        ]
      in
      List.find_map (fun check -> check ()) seq

(* --- property: arena-vs-oracle --- *)

(* The flat arena IR and its wire format against the naive Model-side
   oracle: the save/load/save cycle must be the identity on bytes
   (zero-copy contract), and every node of the reloaded arena must agree
   with the oracle's document-order walk on kind, identifier, path,
   parent, preorder subtree span and attributes. *)
let check_arena_oracle (doc : Dom.element) : string option =
  guarded @@ fun () ->
  match compose_doc doc with
  | None -> None
  | Some m ->
      let ir = Ir.of_model m in
      let entries = Oracle.paths m in
      let b = Ir.to_bytes ir in
      let ir2 = Ir.of_bytes b in
      if not (String.equal b (Ir.to_bytes ir2)) then
        Some "v2 save/load/save is not byte-identical"
      else begin
        match Ir.verify ir2 with
        | Error d -> fail "fresh save fails verify: %s" d.Diagnostic.message
        | Ok () ->
            if Ir.size ir2 <> Ir.size ir then
              fail "reload: %d nodes, oracle has %d" (Ir.size ir2) (Ir.size ir)
            else
              List.find_map
                (fun (path, rank, (e : Model.element)) ->
                  let a = Ir.node ir rank and b = Ir.node ir2 rank in
                  if not (Schema.equal_kind b.Ir.n_kind e.Model.kind) then
                    fail "node %d (%s): kind %s, oracle %s" rank path
                      (Schema.tag_of_kind b.Ir.n_kind) (Schema.tag_of_kind e.Model.kind)
                  else if b.Ir.n_ident <> Model.identifier e then
                    fail "node %d (%s): ident mismatch vs oracle" rank path
                  else if not (String.equal b.Ir.n_path path) then
                    fail "node %d: path %S, oracle %S" rank b.Ir.n_path path
                  else if b.Ir.n_subtree_end - rank <> Oracle.subtree_size e then
                    fail "node %d (%s): span %d, oracle subtree %d" rank path
                      (b.Ir.n_subtree_end - rank) (Oracle.subtree_size e)
                  else if b.Ir.n_parent <> a.Ir.n_parent then
                    fail "node %d (%s): parent %d, expected %d" rank path b.Ir.n_parent
                      a.Ir.n_parent
                  else if b.Ir.n_children <> a.Ir.n_children then
                    fail "node %d (%s): children differ" rank path
                  else if b.Ir.n_type <> a.Ir.n_type then
                    fail "node %d (%s): type mismatch" rank path
                  else if b.Ir.n_attrs <> a.Ir.n_attrs then
                    fail "node %d (%s): attributes differ after reload" rank path
                  else None)
                entries
      end

(* --- property: store-incremental --- *)

(* Apply a random edit sequence through the store and after every step
   compare a [Query.of_store] handle created before the edits against a
   handle rebuilt from the store's current model (exercising both the
   attribute-patch and the structural-rebuild sync paths).  "Equal"
   means bit-identical for floats: the tracked handle's memo entries
   that survive an edit must hold exactly what a fresh handle computes.
   Besides whole-model values, each step reads the static power within
   the k-th preorder node, so memo entries that span eviction keeps
   across attribute edits elsewhere are read back and checked. *)
let check_store_incremental (doc : Dom.element) : string option =
  guarded @@ fun () ->
  match compose_doc doc with
  | None -> None
  | Some m ->
      let store = Store.of_model m in
      let tracked = Query.of_store store in
      (* the edit stream must be deterministic across shrink re-runs of
         the same document, so it gets its own fixed-seed generator *)
      let g = Gen.create ~seed:default_seed in
      let k = Gen.int g 1_000_000 in
      let bits = Int64.bits_of_float in
      let check_step step =
        let rebuilt = Query.of_model (Store.model store) in
        let within q = Ir.node (Query.runtime_ir q) (k mod Query.size q) in
        let float_mismatch name f =
          let inc = f tracked and ref_ = f rebuilt in
          if bits inc <> bits ref_ then
            fail "step %d: %s tracked=%h rebuilt=%h" step name inc ref_
          else None
        in
        let qc_inc = Query.count_cores tracked and qc_ref = Query.count_cores rebuilt in
        if qc_inc <> qc_ref then
          fail "step %d: count_cores tracked=%d rebuilt=%d" step qc_inc qc_ref
        else
          List.find_map
            (fun (name, f) -> float_mismatch name f)
            [
              ("total_static_power", fun q -> Query.total_static_power q);
              ("total_memory_bytes", fun q -> Query.total_memory_bytes q);
              ( Fmt.str "total_static_power within node %d" (k mod Query.size rebuilt),
                fun q -> Query.total_static_power ~within:(within q) q );
            ]
      in
      let fresh_leaf () =
        if Gen.chance g 0.5 then
          Model.make Schema.Core
            ~attrs:
              [
                ( "static_power",
                  Model.Quantity
                    (Xpdl_units.Units.watts (float_of_int (1 + Gen.int g 40) /. 8.), "W") );
              ]
        else
          Model.make Schema.Memory
            ~attrs:
              [
                ( "size",
                  Model.Quantity
                    (Xpdl_units.Units.bytes (float_of_int (1 + Gen.int g 1_000_000)), "B") );
              ]
      in
      let random_edit () =
        let paths =
          List.rev (Model.fold_index_paths (fun acc p _ -> p :: acc) [] (Store.model store))
        in
        let path = Gen.pick g paths in
        match Gen.int g 5 with
        | 0 ->
            Store.set_attr store path "static_power"
              (Model.Quantity
                 (Xpdl_units.Units.watts (float_of_int (1 + Gen.int g 100) /. 4.), "W"))
        | 1 ->
            Store.set_attr store path "size"
              (Model.Quantity
                 (Xpdl_units.Units.bytes (float_of_int (1 + Gen.int g 1_000_000)), "B"))
        | 2 -> Store.remove_attr store path "static_power"
        | 3 -> Store.insert_child store path (fresh_leaf ())
        | _ -> (
            match Store.element_at store path with
            | Some e when e.Model.children <> [] ->
                ignore
                  (Store.remove_child store path (Gen.int g (List.length e.Model.children)))
            | _ -> Store.insert_child store path (fresh_leaf ()))
      in
      let n_edits = 2 + Gen.int g 7 in
      let rec loop step =
        if step >= n_edits then
          (* journal sanity: every edit is replayable from revision 0 *)
          match Store.edits_since store 0 with
          | Some l when List.length l = Store.revision store -> None
          | Some l ->
              fail "journal holds %d edits but revision is %d" (List.length l)
                (Store.revision store)
          | None -> fail "journal compacted after only %d edits" (Store.revision store)
        else begin
          random_edit ();
          match check_step step with Some msg -> Some msg | None -> loop (step + 1)
        end
      in
      (* the handles must also agree before any edit *)
      (match check_step (-1) with Some msg -> Some msg | None -> loop 0)

(* --- property: print/parse round-trip --- *)

let check_roundtrip (x : Dom.element) : string option =
  guarded @@ fun () ->
  let s = Print.to_string x in
  match Parse.string ~file:"<roundtrip>" s with
  | Error msg -> Some (Fmt.str "printed document does not re-parse: %s" msg)
  | Ok y ->
      if not (Dom.equal_element x y) then Some "parse of print differs from original"
      else
        let s' = Print.to_string y in
        if not (String.equal s s') then Some "printing is not a fixpoint after one round-trip"
        else None

(* --- property: parser recovery on corrupted input --- ignore the tree,
   assert the contract: no exception, coded + positioned errors, and a
   printable best-effort root. *)

let code_ok code =
  String.length code = 7
  && String.sub code 0 4 = "XPDL"
  && String.for_all (function '0' .. '9' -> true | _ -> false) (String.sub code 4 3)

let check_recovery (s : string) : string option =
  guarded @@ fun () ->
  match Parse.string_recover ~file:"<fuzz>" s with
  | exception exn -> Some ("string_recover raised: " ^ Printexc.to_string exn)
  | root, errors -> (
      match
        List.find_opt
          (fun (e : Parse.error) ->
            (not (code_ok e.Parse.err_code))
            || e.Parse.err_pos.Dom.line < 1
            || e.Parse.err_pos.Dom.column < 1)
          errors
      with
      | Some e ->
          Some
            (Fmt.str "malformed diagnostic %S at %d:%d" e.Parse.err_code e.Parse.err_pos.Dom.line
               e.Parse.err_pos.Dom.column)
      | None -> (
          match root with
          | None -> None
          | Some r ->
              (* the recovered tree must itself be serializable *)
              let (_ : string) = Print.to_string r in
              None))

(* --- property: PSM path optimality --- *)

let check_psm (sm : Power.state_machine) : string option =
  guarded @@ fun () ->
  let names = List.map (fun (s : Power.power_state) -> s.Power.ps_name) sm.Power.sm_states in
  let path_cost = List.fold_left (fun acc (tr : Power.transition) -> acc +. tr.Power.tr_energy) 0. in
  let rec chained from (path : Power.transition list) =
    match path with
    | [] -> true
    | tr :: rest -> String.equal tr.Power.tr_from from && chained tr.Power.tr_to rest
  in
  let ends_at target = function
    | [] -> true
    | path -> String.equal (List.nth path (List.length path - 1)).Power.tr_to target
  in
  List.find_map
    (fun from_state ->
      List.find_map
        (fun to_state ->
          match Psm.transition_path sm ~from_state ~to_state with
          | exception exn ->
              Some
                (Fmt.str "transition_path %s->%s raised %s" from_state to_state
                   (Printexc.to_string exn))
          | fast -> (
              let naive = Oracle.psm_min_energy sm ~from_state ~to_state in
              match (fast, naive) with
              | None, None -> None
              | None, Some c ->
                  Some (Fmt.str "%s->%s: fast=unreachable naive=%g" from_state to_state c)
              | Some _, None -> Some (Fmt.str "%s->%s: fast=path naive=unreachable" from_state to_state)
              | Some path, Some c ->
                  if not (chained from_state path && ends_at to_state path) then
                    Some (Fmt.str "%s->%s: returned edges do not chain" from_state to_state)
                  else if not (approx_equal (path_cost path) c) then
                    Some
                      (Fmt.str "%s->%s: fast cost %g, naive minimum %g" from_state to_state
                         (path_cost path) c)
                  else
                    (* switch_cost must agree with the path it routes *)
                    (match Psm.switch_cost sm ~from_state ~to_state with
                    | Some (_, en) when approx_equal en c -> None
                    | Some (_, en) ->
                        Some (Fmt.str "switch_cost %s->%s: %g vs %g" from_state to_state en c)
                    | None -> Some (Fmt.str "switch_cost %s->%s lost the path" from_state to_state))))
        names)
    names

(* --- property: deterministic elaboration/instantiation --- *)

let check_deterministic (doc : Dom.element) : string option =
  guarded @@ fun () ->
  match (compose_doc doc, compose_doc doc) with
  | None, None -> None
  | Some a, Some b ->
      if not (String.equal (Model.to_string a) (Model.to_string b)) then
        Some "two compositions of the same document print differently"
      else
        let ba = Ir.to_bytes (Ir.of_model a) and bb = Ir.to_bytes (Ir.of_model b) in
        if not (String.equal ba bb) then
          Some "two compositions serialize to different runtime models"
        else None
  | _ -> Some "composition succeeded only once"

(* --- property: charref decoding vs the spec-faithful oracle --- *)

let check_charref (body : string) : string option =
  guarded @@ fun () ->
  let oracle = Oracle.decode_charref body in
  let in_text = Fmt.str "<a>pre&%s;post</a>" body in
  let in_attr = Fmt.str "<a k=\"pre&%s;post\" />" body in
  let check ctx src extract =
    match (Parse.string ~file:"<charref>" src, oracle) with
    | Ok root, Some decoded ->
        let got = extract root in
        let want = "pre" ^ decoded ^ "post" in
        if String.equal got want then None
        else Some (Fmt.str "%s &%s;: parser %S oracle %S" ctx body got want)
    | Ok _, None -> Some (Fmt.str "%s: parser accepted &%s; the spec rejects" ctx body)
    | Error _, Some _ -> Some (Fmt.str "%s: parser rejected valid &%s;" ctx body)
    | Error _, None -> None
  in
  match check "text" in_text Dom.text_content with
  | Some m -> Some m
  | None ->
      check "attribute" in_attr (fun root ->
          Option.value ~default:"<missing>" (Dom.attribute root "k"))

(* --- property: fault-tolerant bootstrap --- *)

module Machine = Xpdl_simhw.Machine
module Faults = Xpdl_simhw.Faults
module Resilient = Xpdl_microbench.Resilient

(* Tight limits so 500 fuzz cases stay cheap; two sweep points keep the
   interpolation rung of the degradation ladder reachable. *)
let fuzz_policy =
  {
    Resilient.default_policy with
    Resilient.deadline = 2.0;
    budget = 25.0;
    retries = 2;
    repetitions = 5;
    frequencies = [ 1.2e9; 2.4e9 ];
  }

(* Contract of the resilient harness under injected faults: it
   terminates within the simulated budget envelope, never raises, labels
   every formerly-"?" instruction with a [quality] attribute (unresolved
   ones keep their placeholder and are diagnosed), and is a pure
   function of its seeds — two identical runs render byte-identical
   health reports. *)
let check_bootstrap (doc : Dom.element) ~machine_seed ~fault_seed ~rate ~offline_after :
    string option =
  guarded @@ fun () ->
  let m0, _ = Elaborate.of_xml doc in
  let unknowns m =
    List.rev
      (Model.fold_index_paths
         (fun acc _ (e : Model.element) ->
           if
             Schema.equal_kind e.Model.kind Schema.Instruction
             && Model.attr_is_unknown e "energy"
           then e :: acc
           else acc)
         [] m)
  in
  let before = List.length (unknowns m0) in
  let run () =
    let machine = Machine.create ~seed:machine_seed m0 in
    Machine.inject_faults machine (Faults.create ?offline_after ~rate ~seed:fault_seed ());
    Resilient.run ~policy:fuzz_policy ~machine m0
  in
  let m1, h = run () in
  let has_code c =
    List.exists (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code c) h.Resilient.h_diags
  in
  let benches = h.Resilient.h_benches in
  if List.length benches <> before then
    fail "%d \"?\" instructions but %d benchmarks in the health report" before
      (List.length benches)
  else if (not (Float.is_finite h.Resilient.h_elapsed)) || h.Resilient.h_elapsed < 0. then
    fail "non-finite simulated time %g" h.Resilient.h_elapsed
  else if
    h.Resilient.h_elapsed > fuzz_policy.Resilient.budget +. (3. *. fuzz_policy.Resilient.deadline) +. 10.
  then
    fail "harness overran its budget envelope: %g simulated s of %g" h.Resilient.h_elapsed
      fuzz_policy.Resilient.budget
  else if h.Resilient.h_elapsed > fuzz_policy.Resilient.budget && not h.Resilient.h_budget_exhausted
  then fail "budget overrun (%g > %g) not flagged" h.Resilient.h_elapsed fuzz_policy.Resilient.budget
  else
    let bad_bench =
      List.find_map
        (fun (b : Resilient.bench) ->
          match (b.Resilient.b_quality, b.Resilient.b_energy) with
          | Resilient.Unresolved, Some _ -> fail "%s: unresolved but carries an energy" b.Resilient.b_instruction
          | Resilient.Unresolved, None ->
              if not (has_code "XPDL506") then
                fail "%s unresolved without an XPDL506 diagnostic" b.Resilient.b_instruction
              else None
          | _, None -> fail "%s: resolved (%s) without an energy" b.Resilient.b_instruction
                         (Resilient.quality_name b.Resilient.b_quality)
          | _, Some j when not (Float.is_finite j) ->
              fail "%s: non-finite energy written back" b.Resilient.b_instruction
          | _, Some _ ->
              if b.Resilient.b_quarantined && not (has_code "XPDL503") then
                fail "%s quarantined without an XPDL503 diagnostic" b.Resilient.b_instruction
              else None)
        benches
    in
    (match bad_bench with
    | Some msg -> Some msg
    | None -> (
        (* model-side labels: every placeholder either resolved or kept
           with an explicit "unresolved" provenance *)
        let unlabeled =
          List.find_map
            (fun (e : Model.element) ->
              match Model.attr_string e "quality" with
              | Some "unresolved" -> None
              | Some q -> fail "still-\"?\" instruction labeled %S" q
              | None ->
                  fail "instruction %s left \"?\" with no quality label"
                    (Option.value ~default:"<anon>" (Model.identifier e)))
            (unknowns m1)
        in
        match unlabeled with
        | Some msg -> Some msg
        | None ->
            let _, h2 = run () in
            if not (String.equal (Resilient.health_to_json h) (Resilient.health_to_json h2))
            then Some "same seeds rendered two different health reports"
            else None))

(* --- property: serve-mvcc --- *)

module Hub = Xpdl_serve.Hub
module Sproto = Xpdl_serve.Protocol

(* Random interleavings of query/edit/pin/subscribe requests from N
   simulated client sessions against an in-process serving hub, checked
   against a sequential oracle: every head query must answer what a
   fresh handle over the store's current model answers, every pinned
   query must answer what a fresh handle over the model captured at pin
   time answers (bit-identically, across journal compaction — the
   journal capacity is tiny on purpose), pinned revisions must stay
   replayable from the journal, and a subscribed session must see
   exactly the edits journaled while it was subscribed, in order. *)
let check_serve_mvcc (doc : Dom.element) : string option =
  guarded @@ fun () ->
  match compose_doc doc with
  | None -> None
  | Some m ->
      let hub = Hub.create ~journal_capacity:4 m in
      let store = Hub.store hub in
      (* fixed-seed op stream, deterministic across shrink re-runs *)
      let g = Gen.create ~seed:default_seed in
      let bits = Int64.bits_of_float in
      let n_sessions = 2 + Gen.int g 3 in
      (* oracle per session: pinned rev -> model captured at pin time,
         subscription flag, expected pending events (newest first) *)
      let sessions =
        Array.init n_sessions (fun _ ->
            (Hub.session hub, Hashtbl.create 4, ref false, ref []))
      in
      let queries = [ "cores"; "static-power"; "memory"; "size"; "cuda-devices" ] in
      let expected_on model q =
        let h = Query.of_model model in
        match q with
        | "cores" -> `I (Query.count_cores h)
        | "static-power" -> `F (bits (Query.total_static_power h))
        | "memory" -> `F (bits (Query.total_memory_bytes h))
        | "cuda-devices" -> `I (Query.count_cuda_devices h)
        | _ -> `I (Query.size h)
      in
      let answer = function
        | Sproto.Ok (Sproto.Int v) -> Some (`I v)
        | Sproto.Ok (Sproto.Float v) -> Some (`F (bits v))
        | _ -> None
      in
      let pp_resp = Sproto.pp_response in
      let step () =
        let si = Gen.int g n_sessions in
        let s, pins, subscribed, pending = sessions.(si) in
        let pinned_revs () = Hashtbl.fold (fun r _ acc -> r :: acc) pins [] in
        match Gen.int g 10 with
        | 0 | 1 ->
            (* head query vs a fresh handle on the current model *)
            let q = Gen.pick g queries in
            let resp = Hub.handle hub s (Sproto.Query { rev = -1; q }) in
            if answer resp <> Some (expected_on (Store.model store) q) then
              fail "session %d: head %s diverged: %a" si q pp_resp resp
            else None
        | 2 | 3 -> (
            (* pinned query vs a fresh handle on the captured model *)
            match pinned_revs () with
            | [] ->
                let rev = Store.revision store + 1 + Gen.int g 5 in
                let resp = Hub.handle hub s (Sproto.Query { rev; q = "cores" }) in
                (match resp with
                | Sproto.Err { code = "XPDL706"; _ } -> None
                | r -> fail "session %d: unpinned rev %d answered %a" si rev pp_resp r)
            | revs -> (
                let rev = Gen.pick g revs in
                let frozen = Hashtbl.find pins rev in
                let q = Gen.pick g queries in
                let resp = Hub.handle hub s (Sproto.Query { rev; q }) in
                if answer resp <> Some (expected_on frozen q) then
                  fail "session %d: pinned@%d %s diverged: %a" si rev q pp_resp resp
                else
                  (* the pin is a journal retention floor *)
                  match Hub.handle hub s (Sproto.EditsSince rev) with
                  | Sproto.Ok (Sproto.Edits l) ->
                      let expect = Store.revision store - rev in
                      if List.length l <> expect then
                        fail "session %d: edits-since %d returned %d edits, expected %d" si
                          rev (List.length l) expect
                      else None
                  | r -> fail "session %d: pinned rev %d not replayable: %a" si rev pp_resp r))
        | 4 ->
            (* pin: capture the oracle model *)
            let resp = Hub.handle hub s Sproto.Pin in
            (match resp with
            | Sproto.Ok (Sproto.Int rev) ->
                if rev <> Store.revision store then
                  fail "session %d: pin answered %d at revision %d" si rev
                    (Store.revision store)
                else begin
                  if not (Hashtbl.mem pins rev) then
                    Hashtbl.replace pins rev (Store.model store);
                  None
                end
            | r -> fail "session %d: pin answered %a" si pp_resp r)
        | 5 -> (
            (* unpin one pin, or a stale revision (a coded error) *)
            match pinned_revs () with
            | [] -> (
                match Hub.handle hub s (Sproto.Unpin 0) with
                | Sproto.Err { code = "XPDL706"; _ } -> None
                | r -> fail "session %d: stale unpin answered %a" si pp_resp r)
            | revs -> (
                let rev = Gen.pick g revs in
                match Hub.handle hub s (Sproto.Unpin rev) with
                | Sproto.Ok Sproto.Unit ->
                    Hashtbl.remove pins rev;
                    None
                | r -> fail "session %d: unpin %d answered %a" si rev pp_resp r))
        | 6 ->
            (* toggle subscription; unsubscribing drops queued events *)
            if !subscribed then begin
              match Hub.handle hub s Sproto.Unsubscribe with
              | Sproto.Ok Sproto.Unit ->
                  subscribed := false;
                  pending := [];
                  None
              | r -> fail "session %d: unsubscribe answered %a" si pp_resp r
            end
            else begin
              match Hub.handle hub s Sproto.Subscribe with
              | Sproto.Ok Sproto.Unit ->
                  subscribed := true;
                  None
              | r -> fail "session %d: subscribe answered %a" si pp_resp r
            end
        | 7 -> (
            (* drain and compare against the oracle's expected stream *)
            let got = Hub.drain_events s in
            let expect =
              List.rev_map
                (fun (rev, path, kind) ->
                  { Sproto.ev_rev = rev; ev_path = path; ev_kind = kind })
                !pending
            in
            pending := [];
            match (got = expect, !subscribed) with
            | true, _ -> None
            | false, _ ->
                fail "session %d: drained %d events, oracle expected %d" si
                  (List.length got) (List.length expect))
        | _ -> (
            (* edit through the protocol; every subscribed session's
               oracle expects the event *)
            let paths =
              List.rev
                (Model.fold_index_paths (fun acc p _ -> p :: acc) [] (Store.model store))
            in
            let path = Gen.pick g paths in
            let value = string_of_int (1 + Gen.int g 50) in
            let before = Store.revision store in
            let resp =
              Hub.handle hub s
                (Sproto.Edit
                   { path; key = "static_power"; value; unit_spelling = Some "W"; req_id = None })
            in
            match resp with
            | Sproto.Ok (Sproto.Int rev) ->
                if rev <> before + 1 then
                  fail "edit bumped revision %d -> %d" before rev
                else begin
                  Array.iter
                    (fun (_, _, sub, pend) ->
                      if !sub then pend := (rev, path, "static_power") :: !pend)
                    sessions;
                  None
                end
            | r -> fail "session %d: edit answered %a" si pp_resp r)
      in
      let n_ops = 30 + Gen.int g 30 in
      let rec loop i = if i >= n_ops then None else match step () with Some m -> Some m | None -> loop (i + 1) in
      let result = loop 0 in
      (match result with
      | Some _ -> result
      | None ->
          (* closing every session releases all floors and snapshots *)
          Array.iter (fun (s, _, _, _) -> Hub.close_session hub s) sessions;
          if Store.pinned_revisions store <> [] then
            fail "pins survive session close: %a"
              Fmt.(list ~sep:sp int)
              (Store.pinned_revisions store)
          else if Hub.snapshot_count hub <> 0 then
            fail "%d snapshot handles survive session close" (Hub.snapshot_count hub)
          else None)

(* --- dse: engine Pareto front vs a brute-force oracle --- *)

(* The engine computes the front with a sorted incremental scan over a
   mixed-radix grid decode; the oracle re-enumerates the grid with an
   independent nested-product expansion and does the naive O(n^2)
   all-pairs dominance check.  Both share [eval_point], so a divergence
   pins enumeration order, parallel scheduling or front computation.
   When [parallel] is drawn, the whole report must additionally be
   byte-identical at [jobs = 4] and [jobs = 1]. *)
let check_dse_pareto doc ~sweep_seed ~rows ~density ~parallel =
  guarded @@ fun () ->
  let tmpl, ediags = Elaborate.of_xml doc in
  if not (Diagnostic.all_ok ediags) then None (* shrunk into an invalid doc *)
  else
    let axes = Dse.axes_of_template tmpl in
    let total =
      List.fold_left (fun t (ax : Dse.axis) -> t * Array.length ax.Dse.ax_values) 1 axes
    in
    if axes = [] || total > 64 then None
    else
      let config =
        {
          Dse.default_config with
          Dse.seed = sweep_seed;
          workload = { Dse.wl_rows = rows; wl_density = density; wl_iterations = 1 };
          policy = { Xpdl_microbench.Resilient.default_policy with repetitions = 2 };
        }
      in
      match Dse.run ~config tmpl with
      | Error d -> Some (Fmt.str "engine refused the sweep: %s" d.Diagnostic.message)
      | Ok report -> (
          (* independent row-major enumeration: first axis slowest *)
          let all_bindings =
            List.fold_left
              (fun prefixes (ax : Dse.axis) ->
                List.concat_map
                  (fun prefix ->
                    List.map
                      (fun v -> prefix @ [ (ax.Dse.ax_name, v) ])
                      (Array.to_list ax.Dse.ax_values))
                  prefixes)
              [ [] ] axes
          in
          let oracle_pts =
            List.mapi
              (fun index bindings ->
                Dse.eval_point ~template:tmpl ~cfg:config ~index ~bindings)
              all_bindings
          in
          let oracle_evaluated =
            List.filter_map
              (fun (p : Dse.point) ->
                match p.Dse.pt_status with
                | Dse.Evaluated o -> Some (p.Dse.pt_index, o)
                | _ -> None)
              oracle_pts
          in
          (* naive dominance, written out independently of Dse.dominates *)
          let dom (a : Dse.objectives) (b : Dse.objectives) =
            let le = a.Dse.o_energy <= b.Dse.o_energy
                     && a.Dse.o_time <= b.Dse.o_time
                     && a.Dse.o_static_power <= b.Dse.o_static_power
            and lt = a.Dse.o_energy < b.Dse.o_energy
                     || a.Dse.o_time < b.Dse.o_time
                     || a.Dse.o_static_power < b.Dse.o_static_power
            in
            le && lt
          in
          let oracle_front =
            List.filter
              (fun (i, o) ->
                not (List.exists (fun (j, p) -> j <> i && dom p o) oracle_evaluated))
              oracle_evaluated
            |> List.map fst |> List.sort compare
          in
          let same_status (a : Dse.status) (b : Dse.status) =
            match (a, b) with
            | Dse.Evaluated x, Dse.Evaluated y ->
                Float.equal x.Dse.o_energy y.Dse.o_energy
                && Float.equal x.Dse.o_time y.Dse.o_time
                && Float.equal x.Dse.o_static_power y.Dse.o_static_power
            | Dse.Pruned, Dse.Pruned | Dse.Failed, Dse.Failed -> true
            | _ -> false
          in
          let point_mismatch =
            List.find_opt
              (fun (op : Dse.point) ->
                match Dse.point_of_index report op.Dse.pt_index with
                | None -> true
                | Some ep -> not (same_status ep.Dse.pt_status op.Dse.pt_status))
              oracle_pts
          in
          match point_mismatch with
          | Some op ->
              Some
                (Fmt.str "point #%d: engine and oracle disagree on status/objectives"
                   op.Dse.pt_index)
          | None ->
              if report.Dse.rp_front <> oracle_front then
                Some
                  (Fmt.str "front mismatch: engine [%s], oracle [%s] (%d evaluated of %d)"
                     (String.concat ";" (List.map string_of_int report.Dse.rp_front))
                     (String.concat ";" (List.map string_of_int oracle_front))
                     (List.length oracle_evaluated) total)
              else if parallel then
                match Dse.run ~config:{ config with Dse.jobs = 4 } tmpl with
                | Error d -> Some (Fmt.str "parallel run refused: %s" d.Diagnostic.message)
                | Ok par ->
                    if Dse.report_to_json par <> Dse.report_to_json report then
                      Some "jobs=4 report is not byte-identical to jobs=1"
                    else None
              else None)

(* --- the property table --- *)

(* Each property generates its case input from (seed, name, case) and
   minimizes failures with the matching shrinker. *)
(* --- repo-lazy: persistent-index repository vs the eager oracle --- *)

(* Everything observable about a repository, as sorted text lines:
   identifiers, every materialized descriptor, every composed system
   (model + order-normalized diagnostics), the load diagnostics
   (order-normalized, XPDL31x index bookkeeping filtered out — eager
   loads have no index), and the quarantine list. *)
let repo_snapshot repo : string list =
  let diag_str d = Fmt.str "%a" Diagnostic.pp d in
  let index_code (d : Diagnostic.t) =
    match d.Diagnostic.code with
    | "XPDL311" | "XPDL312" | "XPDL313" | "XPDL314" -> true
    | _ -> false
  in
  let ids = Repo.identifiers repo in
  let models =
    List.map
      (fun id ->
        match Repo.find repo id with
        | None -> Fmt.str "model %s: <missing>" id
        | Some e -> Fmt.str "model %s: %s" id (Print.to_string (Model.to_xml e)))
      ids
  in
  let composed =
    List.filter_map
      (fun id ->
        match Repo.find repo id with
        | Some e when Schema.equal_kind e.Model.kind Schema.System ->
            let c = Repo.compose repo e in
            Some
              (Fmt.str "composed %s: %s | %s" id
                 (Print.to_string (Model.to_xml c.Repo.model))
                 (String.concat "; "
                    (List.sort String.compare (List.map diag_str c.Repo.comp_diags))))
        | _ -> None)
      ids
  in
  (* read the diagnostic stream LAST: find/compose above add to it (e.g.
     deduplicated XPDL305), identically in both repositories *)
  let diags =
    Repo.diagnostics repo
    |> List.filter (fun d -> not (index_code d))
    |> List.map diag_str |> List.sort String.compare
  in
  let quar = List.sort String.compare (Repo.quarantined_files repo) in
  List.concat
    [ List.map (fun i -> "id " ^ i) ids; models; composed; diags;
      List.map (fun q -> "quarantined " ^ q) quar ]

let first_diff la lb a b =
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys ->
        if String.equal x y then go (i + 1) (xs, ys)
        else Some (Fmt.str "line %d: %s=%S %s=%S" i la x lb y)
    | x :: _, [] -> Some (Fmt.str "line %d only in %s: %S" i la x)
    | [], y :: _ -> Some (Fmt.str "line %d only in %s: %S" i lb y)
  in
  go 0 (a, b)

(* Generate a repository on disk; check that (1) a cold open_root (index
   built from scratch), (2) a warm open_root (index reused, nothing
   parsed), and (3) a warm open after random file mutations that
   invalidate index entries all observe exactly what the eager add_root
   oracle observes — including with a tiny LRU forcing evictions, and
   with a truncated/corrupt sidecar. *)
let check_repo_lazy g ~dir : (string * string) option =
  let spec =
    {
      Gen.default_repo_spec with
      rs_models = 8 + Gen.int g 32;
      rs_dirs = 1 + Gen.int g 4;
      rs_corrupt = (if Gen.chance g 0.5 then 0.15 else 0.);
      rs_shadow = 0.1;
      rs_systems = 1 + Gen.int g 2;
    }
  in
  let files = Gen.repo_files g spec in
  Gen.write_repo ~dir files;
  let lazy_repo () =
    (* a tiny cache forces eviction + re-materialization on some runs *)
    if Gen.chance g 0.4 then Repo.create ~cache_capacity:(1 + Gen.int g 4) ()
    else Repo.create ()
  in
  let eager_snap () =
    let r = Repo.create () in
    Repo.add_root r dir;
    repo_snapshot r
  in
  let check_against label oracle =
    let r = lazy_repo () in
    Repo.open_root r dir;
    match first_diff "eager" label oracle (repo_snapshot r) with
    | Some d -> Some (Fmt.str "%s open_root diverges from eager add_root" label, d)
    | None -> None
  in
  let fail = check_against "cold" (eager_snap ()) in
  if fail <> None then fail
  else
    (* warm: the sidecar now exists; nothing may be parsed at open time *)
    let warm_fail =
      let r = lazy_repo () in
      Repo.open_root r dir;
      let s = Repo.stats r in
      if s.Repo.parsed_files > 0 then
        Some
          ( "warm open_root parsed files despite a fresh index",
            Fmt.str "parsed_files=%d reused_files=%d" s.Repo.parsed_files s.Repo.reused_files )
      else
        match first_diff "eager" "warm" (eager_snap ()) (repo_snapshot r) with
        | Some d -> Some ("warm open_root diverges from eager add_root", d)
        | None -> None
    in
    if warm_fail <> None then warm_fail
    else begin
      (* mutate: rewrite/corrupt/delete/add files, sometimes damage the
         sidecar itself; every rewrite appends bytes so the (mtime, size)
         fingerprint is guaranteed to change even within one mtime tick *)
      let paths = List.map fst files in
      let n_mut = 1 + Gen.int g 3 in
      for _ = 1 to n_mut do
        let target = Filename.concat dir (Gen.pick g paths) in
        match Gen.int g 4 with
        | 0 -> ( try Sys.remove target with Sys_error _ -> ())
        | 1 ->
            Out_channel.with_open_bin target (fun oc ->
                Out_channel.output_string oc (Print.to_string (Gen.document g));
                Out_channel.output_string oc "<!-- mutated -->")
        | 2 ->
            (* an earlier mutation may have deleted this target *)
            let old =
              if Sys.file_exists target then In_channel.with_open_bin target In_channel.input_all
              else Print.to_string (Gen.document g)
            in
            Out_channel.with_open_bin target (fun oc ->
                Out_channel.output_string oc (Gen.corrupt g old);
                Out_channel.output_string oc "<!-- mutated -->")
        | _ ->
            Out_channel.with_open_bin
              (Filename.concat dir (Fmt.str "zz_new%d.xpdl" (Gen.int g 100)))
              (fun oc -> Out_channel.output_string oc (Print.to_string (Gen.document g)))
      done;
      if Gen.chance g 0.25 then begin
        (* corrupt the sidecar: the reopen must rebuild, not crash *)
        let idx = Filename.concat dir ".xpdlidx" in
        if Sys.file_exists idx then
          let old = In_channel.with_open_bin idx In_channel.input_all in
          let cut = String.length old * (1 + Gen.int g 3) / 4 in
          Out_channel.with_open_bin idx (fun oc ->
              Out_channel.output_string oc (String.sub old 0 cut))
      end;
      match check_against "mutated" (eager_snap ()) with
      | Some (m, d) -> Some ("after mutation: " ^ m, d)
      | None -> None
    end

(* --- store-durable: WAL crash recovery vs an uncrashed oracle --- *)

module Wal = Xpdl_store.Wal

(* One scripted edit: every decision drawn up front, so a (script,
   crash point) pair replays deterministically and shrinks greedily
   without consulting the generator again. *)
type dedit = { d_path : int; d_kind : int; d_a : int; d_b : int; d_flag : bool }

let durable_leaf d =
  if d.d_flag then
    Model.make Schema.Core
      ~attrs:
        [
          ( "static_power",
            Model.Quantity (Xpdl_units.Units.watts (float_of_int (1 + (d.d_a mod 40)) /. 8.), "W")
          );
        ]
  else
    Model.make Schema.Memory
      ~attrs:
        [
          ( "size",
            Model.Quantity (Xpdl_units.Units.bytes (float_of_int (1 + (d.d_b mod 1_000_000))), "B")
          );
        ]

(* Apply one scripted edit to a store.  Both the durable store and the
   oracle hold identical models at every step, so the path selection
   (index into the current path list) resolves identically. *)
let apply_dedit st d =
  let paths = List.rev (Model.fold_index_paths (fun acc p _ -> p :: acc) [] (Store.model st)) in
  let path = List.nth paths (d.d_path mod List.length paths) in
  match d.d_kind mod 6 with
  | 0 ->
      Store.set_attr st path "static_power"
        (Model.Quantity (Xpdl_units.Units.watts (float_of_int (1 + (d.d_a mod 100)) /. 4.), "W"))
  | 1 ->
      Store.set_attr st path "size"
        (Model.Quantity (Xpdl_units.Units.bytes (float_of_int (1 + (d.d_b mod 1_000_000))), "B"))
  | 2 -> Store.remove_attr st path "static_power"
  | 3 -> Store.insert_child st path (durable_leaf d)
  | 4 -> Store.replace_subtree st path (durable_leaf d)
  | _ -> (
      match Store.element_at st path with
      | Some e when e.Model.children <> [] ->
          ignore (Store.remove_child st path (d.d_a mod List.length e.Model.children))
      | _ -> Store.insert_child st path (durable_leaf d))

(* Run one crash scenario: [n] scripted edits through a durable store
   (checkpointing every [checkpoint_every]) and an in-memory oracle,
   then a simulated kill -9 — the WAL handle is abandoned un-closed and
   the journal file is damaged at a crash point chosen by [crash_sel]
   (0..1000 scales into the file; 1000 = clean crash, no damage; odd
   selectors flip a byte, even ones truncate).  Recovery must never
   crash, must land on some prefix revision R of the acknowledged
   history, and the recovered model must be bit-identical to the
   oracle's model at R.  A clean crash must lose nothing (R = n). *)
let run_durable_scenario ~dir ~init ~script ~checkpoint_every ~crash_sel () : string option =
  let n = Array.length script in
  Xpdl_kernel.remove_tree dir;
  Fun.protect ~finally:(fun () -> Xpdl_kernel.remove_tree dir) @@ fun () ->
  match Store.recover ~policy:Wal.Never ~checkpoint_every ~dir init with
  | Error d -> fail "recover (fresh dir): [%s] %s" d.Diagnostic.code d.Diagnostic.message
  | Ok (durable, _) -> (
      let oracle = Store.of_model init in
      (* snapshots.(r) = the oracle's canonical image at revision r *)
      let snapshots = Array.make (n + 1) (Wal.encode_model (Store.model oracle)) in
      let step_fail = ref None in
      (try
         Array.iteri
           (fun i d ->
             apply_dedit durable d;
             apply_dedit oracle d;
             let img_d = Wal.encode_model (Store.model durable)
             and img_o = Wal.encode_model (Store.model oracle) in
             if not (String.equal img_d img_o) then begin
               step_fail := Some (Fmt.str "step %d: durable and oracle heads diverge pre-crash" i);
               raise Exit
             end;
             snapshots.(i + 1) <- img_o)
           script
       with Exit -> ());
      match !step_fail with
      | Some msg -> Some msg
      | None -> (
          (* kill -9: abandon the handle, then damage the journal tail *)
          let log = Wal.log_path dir in
          let size = try (Unix.stat log).Unix.st_size with Unix.Unix_error _ -> 0 in
          let damaged =
            if crash_sel >= 1000 || size <= 8 then false
            else begin
              let off = 8 + ((size - 8) * crash_sel / 1000) in
              let fd = Unix.openfile log [ Unix.O_RDWR ] 0o644 in
              (if crash_sel land 1 = 1 && off < size then begin
                 (* flip one byte mid-journal: a checksum must catch it *)
                 let b = Bytes.create 1 in
                 ignore (Unix.lseek fd off Unix.SEEK_SET);
                 ignore (Unix.read fd b 0 1);
                 Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
                 ignore (Unix.lseek fd off Unix.SEEK_SET);
                 ignore (Unix.write fd b 0 1)
               end
               else
                 (* torn tail: the final write never fully landed *)
                 Unix.ftruncate fd off);
              Unix.close fd;
              true
            end
          in
          match Store.recover ~policy:Wal.Never ~checkpoint_every ~dir init with
          | Error d ->
              fail "recover (post-crash): [%s] %s%s" d.Diagnostic.code d.Diagnostic.message
                (if damaged then " (damaged journal)" else "")
          | Ok (recovered, _) -> (
              let r = Store.revision recovered in
              if r < 0 || r > n then fail "recovered revision %d outside history 0..%d" r n
              else if (not damaged) && r <> n then
                fail "clean crash lost edits: recovered %d of %d" r n
              else if
                not (String.equal (Wal.encode_model (Store.model recovered)) snapshots.(r))
              then
                fail "recovered head at revision %d is not bit-identical to the oracle%s" r
                  (if damaged then " (damaged journal)" else "")
              else begin
                (* the recovered store must keep journaling *)
                if n > 0 then apply_dedit recovered script.(0);
                if Store.revision recovered <> r + min 1 n then
                  fail "recovered store does not accept edits"
                else begin
                  Store.close_wal recovered;
                  (* and a second, read-only recovery of the converged
                     dir must agree exactly *)
                  match Store.recover ~read_only:true ~dir init with
                  | Error d ->
                      fail "re-recover: [%s] %s" d.Diagnostic.code d.Diagnostic.message
                  | Ok (again, diags) ->
                      if Store.revision again <> r + min 1 n then
                        fail "re-recovery revision %d, expected %d" (Store.revision again)
                          (r + min 1 n)
                      else if
                        List.exists (fun d -> d.Diagnostic.code = "XPDL901") diags
                      then fail "converged dir still reports a torn tail"
                      else None
                end
              end)))

let check_store_durable g ~dir : (string * string) option =
  let doc = Gen.document g in
  match compose_doc doc with
  | None -> None
  | Some init ->
      let n_edits = 2 + Gen.int g 11 in
      let checkpoint_every = 2 + Gen.int g 5 in
      let crash_sel = Gen.int g 1001 in
      let script =
        Array.init n_edits (fun _ ->
            {
              d_path = Gen.int g 1_000_000;
              d_kind = Gen.int g 6;
              d_a = Gen.int g 1_000_000;
              d_b = Gen.int g 1_000_000;
              d_flag = Gen.chance g 0.5;
            })
      in
      let run ~script ~crash_sel =
        run_durable_scenario ~dir ~init ~script ~checkpoint_every ~crash_sel ()
      in
      match run ~script ~crash_sel with
      | None -> None
      | Some msg ->
          (* greedy shrink over the script length and the crash point *)
          let still_fails script crash_sel = run ~script ~crash_sel <> None in
          let rec shrink (script, crash_sel) fuel =
            if fuel = 0 then (script, crash_sel)
            else
              let shorter k = Array.sub script 0 k in
              let candidates =
                (if Array.length script > 1 then
                   [
                     (shorter (Array.length script / 2), crash_sel);
                     (shorter (Array.length script - 1), crash_sel);
                   ]
                 else [])
                @ (if crash_sel < 1000 then [ (script, 1000) ] else [])
                @ if crash_sel > 0 then [ (script, crash_sel / 2) ] else []
              in
              match
                List.find_opt (fun (s, c) -> still_fails s c) candidates
              with
              | Some smaller -> shrink smaller (fuel - 1)
              | None -> (script, crash_sel)
          in
          let script', crash_sel' = shrink (script, crash_sel) 12 in
          let msg = Option.value ~default:msg (run ~script:script' ~crash_sel:crash_sel') in
          Some
            ( msg,
              Fmt.str "edits=%d checkpoint_every=%d crash_sel=%d document:\n%s"
                (Array.length script') checkpoint_every crash_sel' (Print.to_string doc) )

type property = { p_name : string; p_run : seed:int -> case:int -> (string * string) option }

let gen_for ~seed ~name ~case = Gen.case ~seed ~salt:(Fmt.str "%s:%d" name case)

(* [draw] takes every random choice up front and returns the input with
   the check it must pass, so the check is a pure function of its input
   and the minimizer can replay it on smaller inputs. *)
let element_property ~minimize ~print name draw =
  let run ~seed ~case =
    let x, check = draw (gen_for ~seed ~name ~case) in
    match check x with
    | None -> None
    | Some msg ->
        let min = minimize (fun x -> check x <> None) x in
        Some (Option.value ~default:msg (check min), print min)
  in
  { p_name = name; p_run = run }

let doc_property name generate check =
  element_property ~minimize:Gen.minimize ~print:Print.to_string name (fun g ->
      (generate g, check))

(* A property that keeps state on disk: a fresh directory per case,
   deleted afterwards. *)
let dir_property name prefix check =
  let run ~seed ~case =
    let g = gen_for ~seed ~name ~case in
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Fmt.str "%s_%d_%d_%d" prefix (Unix.getpid ()) seed case)
    in
    Xpdl_kernel.remove_tree dir;
    Fun.protect ~finally:(fun () -> Xpdl_kernel.remove_tree dir) (fun () -> check g ~dir)
  in
  { p_name = name; p_run = run }

let properties =
  [
    doc_property "query-vs-oracle" Gen.document check_query_vs_oracle;
    doc_property "arena-vs-oracle" Gen.document check_arena_oracle;
    doc_property "print-parse-roundtrip"
      (fun g -> if Gen.chance g 0.5 then Gen.xml g else Gen.document g)
      check_roundtrip;
    element_property ~minimize:Gen.minimize_string ~print:(Fmt.str "%S") "parse-recovery"
      (fun g -> (Gen.corrupt g (Print.to_string (Gen.document g)), check_recovery));
    element_property ~minimize:Gen.minimize_machine ~print:(Fmt.str "%a" Gen.pp_machine)
      "psm-optimal" (fun g -> (Gen.state_machine g, check_psm));
    doc_property "store-incremental" Gen.document check_store_incremental;
    dir_property "store-durable" "xpdl_durable" check_store_durable;
    doc_property "serve-mvcc" Gen.document check_serve_mvcc;
    doc_property "elaborate-deterministic" Gen.document check_deterministic;
    element_property ~minimize:Gen.minimize ~print:Print.to_string "bootstrap-fault-tolerant"
      (fun g ->
        (* the check replays the bootstrap twice and compares reports, so
           the runs themselves must be pure functions of these draws *)
        let doc = Gen.bench_model g in
        let machine_seed = 1 + Gen.int g 10_000 in
        let fault_seed = 1 + Gen.int g 10_000 in
        let rate = 0.15 +. (float_of_int (Gen.int g 50) /. 100.) in
        let offline_after = if Gen.chance g 0.25 then Some (3 + Gen.int g 60) else None in
        (doc, fun d -> check_bootstrap d ~machine_seed ~fault_seed ~rate ~offline_after));
    element_property ~minimize:Gen.minimize ~print:Print.to_string "dse-pareto" (fun g ->
        let doc = Gen.dse_template g in
        let sweep_seed = 1 + Gen.int g 100_000 in
        let rows = 24 + Gen.int g 40 in
        let density = 0.05 +. (float_of_int (Gen.int g 25) /. 100.) in
        let parallel = Gen.chance g 0.25 in
        (doc, fun d -> check_dse_pareto d ~sweep_seed ~rows ~density ~parallel));
    dir_property "repo-lazy" "xpdl_repolazy" check_repo_lazy;
    element_property ~minimize:(fun _ body -> body) ~print:(Fmt.str "&%s;") "charref-oracle"
      (fun g -> (Gen.charref g, check_charref));
  ]

let property_names = List.map (fun p -> p.p_name) properties

let run ?(seed = default_seed) ?(count = 500) ?properties:(selected = property_names)
    ?(on_case = fun _ _ -> ()) () =
  let failures = ref [] in
  let cases = ref 0 in
  let selected = List.filter (fun p -> List.mem p.p_name selected) properties in
  List.iter
    (fun p ->
      let rec go case =
        if case < count then begin
          on_case p.p_name case;
          incr cases;
          match p.p_run ~seed ~case with
          | None -> go (case + 1)
          | Some (msg, repro) ->
              (* stop this property's stream: one minimized
                 counterexample, not a flood of copies *)
              failures :=
                { f_property = p.p_name; f_seed = seed; f_case = case; f_message = msg;
                  f_repro = repro }
                :: !failures
        end
      in
      go 0)
    selected;
  { r_seed = seed; r_count = count; r_properties = List.length selected; r_cases = !cases;
    r_failures = List.rev !failures }

let pp_failure ppf f =
  Fmt.pf ppf "FAIL %s (seed %d, case %d): %s@.minimized reproduction:@.%s@.replay: xpdltool fuzz --seed %d --count %d --property %s@."
    f.f_property f.f_seed f.f_case f.f_message f.f_repro f.f_seed (f.f_case + 1) f.f_property

let pp_report ppf r =
  match r.r_failures with
  | [] ->
      Fmt.pf ppf "fuzz: %d cases across %d propert%s, all properties hold (seed %d)@."
        r.r_cases r.r_properties
        (if r.r_properties = 1 then "y" else "ies")
        r.r_seed
  | fs ->
      List.iter (fun f -> Fmt.pf ppf "%a" pp_failure f) fs;
      Fmt.pf ppf "fuzz: %d failing propert%s out of %d (seed %d)@." (List.length fs)
        (if List.length fs = 1 then "y" else "ies")
        r.r_properties r.r_seed
