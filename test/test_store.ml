(* Tests for the incremental model store: index-path addressing on the
   core model, edits + journal + spine invalidation, incremental derived
   attributes vs from-scratch recomputation, the tracked query handle,
   the pipeline session's dirty-stage refresh, the store-backed
   bootstrap, and submodel splicing. *)

open Xpdl_core
module Store = Xpdl_store.Store
module Aggregate = Xpdl_energy.Aggregate
module Query = Xpdl_query.Query
module Splice = Xpdl_compose.Splice

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
(* Store edits, journal, derived caches *)

let test_store_edit_and_derive () =
  let store = Store.of_model (small_tree ()) in
  Alcotest.(check int) "size" 5 (Store.size store);
  Alcotest.check approx "initial static power" 36. (Store.static_power store);
  Alcotest.(check int) "cores" 2 (Store.core_count store);
  Alcotest.(check int) "all nodes cached" 5 (Store.cached_nodes store);
  Store.set_attr store [ 0; 0 ] "static_power" (watts 3.);
  Alcotest.(check int) "revision bumped" 1 (Store.revision store);
  (* only the spine root->cpu1->core1 lost its memo *)
  Alcotest.(check int) "spine invalidated" 2 (Store.cached_nodes store);
  Alcotest.check approx "re-derived" 37. (Store.static_power store);
  Alcotest.check approx "matches from-scratch" 37. (Aggregate.static_power (Store.model store));
  Alcotest.(check int) "cache repopulated" 5 (Store.cached_nodes store);
  (* subtree-granular query *)
  Alcotest.check approx "cpu1 subtree" 13. (Store.static_power_at store [ 0 ]);
  Alcotest.(check int) "cpu2 cores" 1 (Store.core_count_at store [ 1 ])

let test_store_structural_edits () =
  let store = Store.of_model (small_tree ()) in
  ignore (Store.static_power store);
  Store.insert_child store [ 1 ]
    (Model.make Schema.Core ~id:"core3" ~attrs:[ ("static_power", watts 8.) ]);
  Alcotest.check approx "insert counted" 44. (Store.static_power store);
  Alcotest.(check int) "three cores" 3 (Store.core_count store);
  let removed = Store.remove_child store [ 0 ] 0 in
  Alcotest.(check (option string)) "removed core1" (Some "core1") (Model.identifier removed);
  Alcotest.check approx "removal counted" 42. (Store.static_power store);
  Store.replace_subtree store [ 0 ]
    (Model.make Schema.Cpu ~id:"cpu1b" ~attrs:[ ("static_power", watts 1.) ]);
  Alcotest.check approx "replace counted" 33. (Store.static_power store);
  Alcotest.check approx "always equals from-scratch" (Aggregate.static_power (Store.model store))
    (Store.static_power store)

let test_store_addressing () =
  let store = Store.of_model (model "liu_gpu_server") in
  (match Store.resolve store "liu_gpu_server" with
  | Some [] -> ()
  | _ -> Alcotest.fail "root scope path should resolve to []");
  (match Store.resolve store "liu_gpu_server/gpu1" with
  | Some p ->
      Alcotest.(check (option string))
        "resolve round-trips" (Some "gpu1")
        (Option.bind (Store.element_at store p) Model.identifier)
  | None -> Alcotest.fail "gpu1 should resolve");
  Alcotest.(check bool) "unknown scope" true (Store.resolve store "no/such/element" = None);
  let cores = Store.find_paths store (fun e -> Schema.equal_kind e.Model.kind Schema.Core) in
  Alcotest.(check bool) "many cores found" true (List.length cores > 4)

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
  | Some l -> Alcotest.(check int) "recent window survives" 5 (List.length l)
  | None -> Alcotest.fail "recent edits must stay replayable"

let test_store_custom_derived () =
  let store = Store.of_model (small_tree ()) in
  let d = Store.derive ~name:"cpu_count" Aggregate.(sum_rule "static_power") in
  Alcotest.(check string) "name kept" "cpu_count" (Store.derived_name d);
  Alcotest.check approx "custom rule evaluates" 36. (Store.get store d);
  Store.set_attr store [ 1; 0 ] "static_power" (watts 5.);
  Alcotest.check approx "custom rule tracks edits" 37. (Store.get store d);
  Alcotest.check approx "subtree query" 25. (Store.get_at store d [ 1 ])

(* ------------------------------------------------------------------ *)
(* Tracked query handles *)

let test_query_of_store_attr_patch () =
  let store = Store.of_model (model "liu_gpu_server") in
  let q = Query.of_store store in
  let rebuilt () = Query.of_model (Store.model store) in
  Alcotest.(check int) "initial cores agree" (Query.count_cores (rebuilt ())) (Query.count_cores q);
  let sp0 = Query.total_static_power q in
  let ir0 = Query.runtime_ir q in
  (* attribute edit: the tracked handle patches the IR in place *)
  let path = Option.get (Store.resolve store "liu_gpu_server/gpu_host") in
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
  let path = Option.get (Store.resolve store "liu_gpu_server/gpu_host") in
  Store.insert_child store path (Model.make Schema.Core ~id:"extra_core");
  Alcotest.(check int) "structural edit visible" (n0 + 1) (Query.count_cores q);
  Alcotest.(check bool) "IR rebuilt on structure" false (Query.runtime_ir q == ir0);
  Alcotest.(check int)
    "tracked = rebuilt after rebuild" (Query.count_cores (Query.of_model (Store.model store)))
    (Query.count_cores q);
  Alcotest.(check bool)
    "new node addressable" true
    (Query.find_by_id q "extra_core" <> None)

(* ------------------------------------------------------------------ *)
(* Splicing *)

let test_splice_attach_detach () =
  let store = Store.of_model (small_tree ()) in
  ignore (Store.static_power store);
  let sub =
    Model.make Schema.Device ~id:"acc"
      ~children:[ Model.make Schema.Core ~id:"acc_core" ~attrs:[ ("static_power", watts 6.) ] ]
  in
  let p = Splice.attach store ~at:[ 1 ] sub in
  Alcotest.(check (list int)) "attached as last child" [ 1; 1 ] p;
  Alcotest.check approx "graft counted" 42. (Store.static_power store);
  let moved = Splice.graft store ~from_:p ~to_:[ 0 ] in
  Alcotest.(check (list int)) "moved under cpu1" [ 0; 1 ] moved;
  Alcotest.check approx "total invariant under graft" 42. (Store.static_power store);
  Alcotest.check approx "cpu1 gained the device" 18. (Store.static_power_at store [ 0 ]);
  let back = Splice.detach_scope store "sys/cpu1/acc" in
  Alcotest.(check (option string)) "detached submodel" (Some "acc") (Model.identifier back);
  Alcotest.check approx "back to base" 36. (Store.static_power store);
  Alcotest.check approx "still = from-scratch" (Aggregate.static_power (Store.model store))
    (Store.static_power store)

let test_splice_rebase () =
  Alcotest.(check (option (list int))) "later sibling shifts" (Some [ 1 ])
    (Splice.rebase ~removed:[ 0 ] [ 2 ]);
  Alcotest.(check (option (list int))) "inside removed is orphaned" None
    (Splice.rebase ~removed:[ 1 ] [ 1; 0 ]);
  Alcotest.(check (option (list int))) "unrelated untouched" (Some [ 0; 3 ])
    (Splice.rebase ~removed:[ 1 ] [ 0; 3 ]);
  Alcotest.(check (option (list int))) "ancestor untouched" (Some [])
    (Splice.rebase ~removed:[ 1; 2 ] [])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "model-paths",
        [ case "index path addressing" test_index_paths ] );
      ( "store",
        [
          case "edit + derive" test_store_edit_and_derive;
          case "structural edits" test_store_structural_edits;
          case "addressing" test_store_addressing;
          case "coded errors" test_store_errors;
          case "raw edits elaborate" test_store_raw_edit;
          case "journal + compaction" test_store_journal;
          case "custom derived" test_store_custom_derived;
        ] );
      ( "query",
        [
          case "attr patch sync" test_query_of_store_attr_patch;
          case "structural rebuild sync" test_query_of_store_structural_rebuild;
        ] );
      ( "splice",
        [
          case "attach/graft/detach" test_splice_attach_detach;
          case "rebase" test_splice_rebase;
        ] );
    ]
