(* Tests for the revision-tracked model store: index-path addressing on
   the core model, edits and their coded errors, the edit journal and
   its compaction, and the tracked query handle that derives values
   incrementally from the journal. *)

open Xpdl_core
module Store = Xpdl_store.Store
module Aggregate = Xpdl_energy.Aggregate
module Query = Xpdl_query.Query

let model = Testlib.model

let case name f = Alcotest.test_case name `Quick f
let approx = Alcotest.float 1e-9
let watts w = Model.Quantity (Xpdl_units.Units.watts w, "W")

(* root -> two cpus -> one core each; every node is hardware *)
let small_tree () =
  let core i p =
    Model.make Schema.Core ~id:(Fmt.str "core%d" i) ~attrs:[ ("static_power", watts p) ]
  in
  Model.make Schema.System ~id:"sys"
    ~children:
      [
        Model.make Schema.Cpu ~id:"cpu1" ~attrs:[ ("static_power", watts 10.) ]
          ~children:[ core 1 2. ];
        Model.make Schema.Cpu ~id:"cpu2" ~attrs:[ ("static_power", watts 20.) ]
          ~children:[ core 2 4. ];
      ]

(* ------------------------------------------------------------------ *)
(* Model index paths *)

let test_index_paths () =
  let m = small_tree () in
  Alcotest.(check (option string))
    "root at []" (Some "sys")
    (Option.bind (Model.at_index_path m []) Model.identifier);
  Alcotest.(check (option string))
    "core2 at [1;0]" (Some "core2")
    (Option.bind (Model.at_index_path m [ 1; 0 ]) Model.identifier);
  Alcotest.(check bool) "dangling path" true (Model.at_index_path m [ 2 ] = None);
  let m' = Model.update_at m [ 0; 0 ] (fun e -> Model.set_attr e "static_power" (watts 3.)) in
  Alcotest.check approx "spine rebuilt" 37. (Aggregate.static_power m');
  Alcotest.check approx "original shared tree untouched" 36. (Aggregate.static_power m);
  let paths = Model.fold_index_paths (fun acc p _ -> p :: acc) [] m in
  Alcotest.(check int) "preorder visits all" 5 (List.length paths);
  Alcotest.(check (option (list int)))
    "index_path_where" (Some [ 1; 0 ])
    (Model.index_path_where (fun e -> Model.identifier e = Some "core2") m)

(* ------------------------------------------------------------------ *)
(* Store edits and the journal *)

let test_store_edit () =
  let store = Store.of_model (small_tree ()) in
  let before = Store.model store in
  Alcotest.(check int) "size" 5 (Store.size store);
  Store.set_attr store [ 0; 0 ] "static_power" (watts 3.);
  Alcotest.(check int) "revision bumped" 1 (Store.revision store);
  Alcotest.check approx "edit visible from scratch" 37. (Aggregate.static_power (Store.model store));
  Alcotest.check approx "earlier snapshot untouched" 36. (Aggregate.static_power before);
  Alcotest.(check bool)
    "off-spine subtree shared" true
    (List.nth (Store.model store).Model.children 1 == List.nth before.Model.children 1)

let test_store_structural_edits () =
  let store = Store.of_model (small_tree ()) in
  let static_power () = Aggregate.static_power (Store.model store) in
  Store.insert_child store [ 1 ]
    (Model.make Schema.Core ~id:"core3" ~attrs:[ ("static_power", watts 8.) ]);
  Alcotest.check approx "insert counted" 44. (static_power ());
  Alcotest.(check int) "three cores" 3 (Aggregate.core_count (Store.model store));
  let removed = Store.remove_child store [ 0 ] 0 in
  Alcotest.(check (option string)) "removed core1" (Some "core1") (Model.identifier removed);
  Alcotest.check approx "removal counted" 42. (static_power ());
  Store.replace_subtree store [ 0 ]
    (Model.make Schema.Cpu ~id:"cpu1b" ~attrs:[ ("static_power", watts 1.) ]);
  Alcotest.check approx "replace counted" 33. (static_power ());
  Alcotest.(check int) "three structural edits" 3 (Store.revision store)

let test_store_addressing () =
  let store = Store.of_model (model "liu_gpu_server") in
  Alcotest.(check (option string))
    "root at []" (Some "liu_gpu_server")
    (Option.bind (Store.element_at store []) Model.identifier);
  Alcotest.(check bool) "dangling path" true (Store.element_at store [ 999 ] = None);
  let cores = Store.find_paths store (fun e -> Schema.equal_kind e.Model.kind Schema.Core) in
  Alcotest.(check bool) "many cores found" true (List.length cores > 4)

(* [find_paths] returns what a filtered [fold_index_paths] returns, and
   builds only those paths: a node that does not match costs one cons
   cell (about 3 words; a walk that builds every node's path costs 31
   on liu_gpu_server and 40 on XScluster). *)
let test_find_paths_allocation () =
  let instruction_placeholder e =
    Schema.equal_kind e.Model.kind Schema.Instruction && Model.attr_is_unknown e "energy"
  in
  let m = model "liu_gpu_server" in
  Alcotest.(check (list (list int)))
    "same paths as the fold"
    (List.rev
       (Model.fold_index_paths
          (fun acc p e -> if instruction_placeholder e then p :: acc else acc)
          [] m))
    (Store.find_paths (Store.of_model m) instruction_placeholder);
  List.iter
    (Testlib.check_words_per_element ~bound:8. "Store.find_paths" (fun m ->
         Store.find_paths (Store.of_model m) instruction_placeholder))
    [ "liu_gpu_server"; "XScluster" ]

let test_store_errors () =
  let store = Store.of_model (small_tree ()) in
  let code_of f =
    try
      f ();
      "no-error"
    with Store.Store_error d -> d.Diagnostic.code
  in
  Alcotest.(check string)
    "dangling edit path" "XPDL401"
    (code_of (fun () -> Store.set_attr store [ 9; 9 ] "x" (Model.Str "y")));
  Alcotest.(check string)
    "bad child index" "XPDL402"
    (code_of (fun () -> ignore (Store.remove_child store [ 0 ] 5)));
  Alcotest.(check string)
    "unelaboratable raw value" "XPDL403"
    (code_of (fun () ->
         ignore (Store.set_attr_raw store [ 0; 0 ] ~unit_spelling:"GHz" "frequency" "abc")));
  Alcotest.(check int) "failed edits do not journal" 0 (Store.revision store)

let test_store_raw_edit () =
  let store = Store.of_model (small_tree ()) in
  let diags = Store.set_attr_raw store [ 0; 0 ] ~unit_spelling:"GHz" "frequency" "2" in
  Alcotest.(check bool) "no error diags" true (Diagnostic.all_ok diags);
  match Model.attr_quantity (Option.get (Store.element_at store [ 0; 0 ])) "frequency" with
  | Some q -> Alcotest.check approx "SI-normalized" 2e9 (Xpdl_units.Units.value q)
  | None -> Alcotest.fail "frequency not set"

let test_store_journal () =
  let store = Store.of_model (small_tree ()) in
  Store.set_attr store [ 0 ] "static_power" (watts 1.);
  Store.set_attr store [ 1 ] "static_power" (watts 2.);
  Store.insert_child store [] (Model.make Schema.Memory ~id:"m");
  (match Store.edits_since store 0 with
  | Some [ e1; _e2; e3 ] ->
      Alcotest.(check bool) "oldest first" true (e1.Store.e_rev < e3.Store.e_rev);
      Alcotest.(check bool)
        "kinds recorded" true
        (e1.Store.e_kind = Store.Attr "static_power" && e3.Store.e_kind = Store.Structure)
  | _ -> Alcotest.fail "expected three journal entries");
  (match Store.edits_since store 2 with
  | Some [ e ] -> Alcotest.(check (list int)) "path recorded" [] e.Store.e_path
  | _ -> Alcotest.fail "expected the last entry only");
  Alcotest.(check bool) "up to date" true (Store.edits_since store 3 = Some []);
  (* compaction: overflow the journal, old revisions become unreplayable *)
  for _ = 1 to 2 * Store.journal_capacity do
    Store.set_attr store [ 0 ] "static_power" (watts 3.)
  done;
  Alcotest.(check bool) "compacted past 0" true (Store.edits_since store 0 = None);
  let r = Store.revision store in
  match Store.edits_since store (r - 5) with
  | Some l ->
      Alcotest.(check (list int))
        "recent window survives, oldest first"
        (List.init 5 (fun i -> r - 4 + i))
        (List.map (fun e -> e.Store.e_rev) l)
  | None -> Alcotest.fail "recent edits must stay replayable"

(* ------------------------------------------------------------------ *)
(* Tracked query handles *)

let gpu_host_path store =
  Option.get
    (Model.index_path_where (fun e -> Model.identifier e = Some "gpu_host") (Store.model store))

let test_query_of_store_attr_patch () =
  let store = Store.of_model (model "liu_gpu_server") in
  let q = Query.of_store store in
  let rebuilt () = Query.of_model (Store.model store) in
  Alcotest.(check int) "initial cores agree" (Query.count_cores (rebuilt ())) (Query.count_cores q);
  let sp0 = Query.total_static_power q in
  let ir0 = Query.runtime_ir q in
  (* attribute edit: the tracked handle patches the IR in place *)
  let path = gpu_host_path store in
  Store.set_attr store path "static_power" (watts 99.);
  let sp1 = Query.total_static_power q in
  Alcotest.(check bool) "IR patched, not rebuilt" true (Query.runtime_ir q == ir0);
  Alcotest.(check bool) "edit visible through handle" true (sp1 <> sp0);
  Alcotest.check approx "tracked = rebuilt" (Query.total_static_power (rebuilt ())) sp1;
  Alcotest.(check int) "size unchanged by attr patch" (Query.size (rebuilt ())) (Query.size q)

let test_query_of_store_structural_rebuild () =
  let store = Store.of_model (model "liu_gpu_server") in
  let q = Query.of_store store in
  let n0 = Query.count_cores q in
  let ir0 = Query.runtime_ir q in
  let path = gpu_host_path store in
  Store.insert_child store path (Model.make Schema.Core ~id:"extra_core");
  Alcotest.(check int) "structural edit visible" (n0 + 1) (Query.count_cores q);
  Alcotest.(check bool) "IR rebuilt on structure" false (Query.runtime_ir q == ir0);
  Alcotest.(check int)
    "tracked = rebuilt after rebuild" (Query.count_cores (Query.of_model (Store.model store)))
    (Query.count_cores q);
  Alcotest.(check bool)
    "new node addressable" true
    (Query.find_by_id q "extra_core" <> None)

(* An attribute edit evicts exactly the memo entries whose subtree
   covers the edited node; entries for disjoint subtrees survive.  A
   value patched into the IR behind the handle's back (no journal entry,
   no eviction) is seen by a recomputation only, so reading it back
   tells a surviving entry from a re-derived one. *)
let test_query_within_eviction () =
  let store = Store.of_model (small_tree ()) in
  let q = Query.of_store store in
  let sp id = Query.total_static_power ~within:(Query.find_by_id_exn q id) q in
  let root () = Query.total_static_power q in
  let patch_behind id w =
    let i = (Query.find_by_id_exn q id).Xpdl_toolchain.Ir.n_index in
    Xpdl_toolchain.Ir.patch_attrs (Query.runtime_ir q) i [ ("static_power", watts w) ]
  in
  Alcotest.check approx "cpu1 memoized" 12. (sp "cpu1");
  Alcotest.check approx "cpu2 memoized" 24. (sp "cpu2");
  Alcotest.check approx "root memoized" 36. (root ());
  Store.set_attr store [ 0; 0 ] "static_power" (watts 3.);
  Alcotest.check approx "cpu1 re-derived" 13. (sp "cpu1");
  Alcotest.check approx "root re-derived" 37. (root ());
  patch_behind "core2" 100.;
  Alcotest.check approx "cpu2 kept" 24. (sp "cpu2");
  (* the edit under cpu2 also re-patches core2 from the store *)
  Store.set_attr store [ 1; 0 ] "static_power" (watts 5.);
  Alcotest.check approx "cpu2 re-derived" 25. (sp "cpu2");
  Alcotest.check approx "root re-derived after cpu2 edit" 38. (root ());
  patch_behind "core1" 100.;
  Alcotest.check approx "cpu1 kept" 13. (sp "cpu1")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "model-paths",
        [ case "index path addressing" test_index_paths ] );
      ( "store",
        [
          case "edit" test_store_edit;
          case "structural edits" test_store_structural_edits;
          case "addressing" test_store_addressing;
          case "find_paths allocation" test_find_paths_allocation;
          case "coded errors" test_store_errors;
          case "raw edits elaborate" test_store_raw_edit;
          case "journal + compaction" test_store_journal;
        ] );
      ( "query",
        [
          case "attr patch sync" test_query_of_store_attr_patch;
          case "structural rebuild sync" test_query_of_store_structural_rebuild;
          case "within eviction" test_query_within_eviction;
        ] );
    ]
