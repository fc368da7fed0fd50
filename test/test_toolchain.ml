(* Tests for the toolchain: runtime-model IR + codec, static analysis,
   the end-to-end pipeline, and the C++ query-API generator. *)

open Xpdl_toolchain

let repo = Testlib.repo
let model = Testlib.model

let liu_ir = lazy (Ir.of_model (model "liu_gpu_server"))

(* ------------------------------------------------------------------ *)
(* IR *)

let test_ir_structure () =
  let ir = Lazy.force liu_ir in
  Alcotest.(check bool) "nodes" true (Ir.size ir > 5000);
  let root = Ir.root ir in
  Alcotest.(check (option string)) "root" (Some "liu_gpu_server") root.Ir.n_ident;
  Alcotest.(check bool) "root has no parent" true (Ir.parent ir root = None);
  let gpu = Option.get (Ir.find_by_ident ir "gpu1") in
  Alcotest.(check (option string)) "typed" (Some "Nvidia_K20c") gpu.Ir.n_type;
  let parent = Option.get (Ir.parent ir gpu) in
  Alcotest.(check (option string)) "parent is system" (Some "liu_gpu_server") parent.Ir.n_ident

let test_ir_paths () =
  let ir = Lazy.force liu_ir in
  let gpu = Option.get (Ir.find_by_ident ir "gpu1") in
  Alcotest.(check string) "path" "liu_gpu_server/gpu1" gpu.Ir.n_path;
  let sm0 = Option.get (Ir.find_by_ident ir "SM0") in
  Alcotest.(check string) "nested path" "liu_gpu_server/gpu1/SMs/SM0" sm0.Ir.n_path

let test_ir_kind_index () =
  let ir = Lazy.force liu_ir in
  let caches = Ir.all_of_kind ir Xpdl_core.Schema.Cache in
  Alcotest.(check bool) "caches indexed" true (List.length caches > 15);
  Alcotest.(check int) "one system" 1 (List.length (Ir.all_of_kind ir Xpdl_core.Schema.System))

let test_ir_attr_values () =
  let ir = Lazy.force liu_ir in
  let gpu = Option.get (Ir.find_by_ident ir "gpu1") in
  (match Ir.attr gpu "compute_capability" with
  | Some (Ir.VFloat f) -> Alcotest.(check (float 1e-9)) "cc" 3.5 f
  | _ -> Alcotest.fail "compute_capability");
  match Ir.attr gpu "static_power" with
  | Some (Ir.VQty (v, d)) ->
      Alcotest.(check (float 1e-9)) "16 W" 16. v;
      Alcotest.(check bool) "power dim" true (d = Xpdl_units.Units.Power)
  | _ -> Alcotest.fail "static_power quantity"

let test_codec_roundtrip () =
  let ir = Lazy.force liu_ir in
  let bytes = Ir.to_bytes ir in
  let ir2 = Ir.of_bytes bytes in
  Alcotest.(check int) "same size" (Ir.size ir) (Ir.size ir2);
  let check_node i =
    let a = Ir.node ir i and b = Ir.node ir2 i in
    Alcotest.(check bool) ("node " ^ string_of_int i) true
      (a.Ir.n_ident = b.Ir.n_ident && a.Ir.n_kind = b.Ir.n_kind && a.Ir.n_path = b.Ir.n_path
     && a.Ir.n_parent = b.Ir.n_parent && a.Ir.n_attrs = b.Ir.n_attrs
     && a.Ir.n_children = b.Ir.n_children)
  in
  List.iter check_node [ 0; 1; Ir.size ir / 2; Ir.size ir - 1 ]

let test_codec_file_roundtrip () =
  let ir = Lazy.force liu_ir in
  let path = Filename.temp_file "xpdl" ".xrt" in
  Ir.to_file path ir;
  let ir2 = Ir.of_file path in
  Sys.remove path;
  Alcotest.(check int) "same size" (Ir.size ir) (Ir.size ir2);
  Alcotest.(check bool) "gpu1 findable" true (Ir.find_by_ident ir2 "gpu1" <> None)

(* corrupt input must surface as the coded XPDL6xx diagnostic *)
let expect_code what code bytes =
  match Ir.of_bytes_result bytes with
  | Error d -> Alcotest.(check string) (what ^ " code") code d.Xpdl_core.Diagnostic.code
  | Ok _ -> Alcotest.failf "%s must be rejected with %s" what code

let test_codec_rejects_garbage () =
  expect_code "bad magic" "XPDL601" "not a runtime model";
  let ir = Ir.of_model (Xpdl_core.Elaborate.of_string_exn {|<cpu name="x"/>|}) in
  let bytes = Bytes.of_string (Ir.to_bytes ir) in
  Bytes.set bytes 6 '\xFF';
  expect_code "bad version" "XPDL602" (Bytes.to_string bytes);
  let full = Ir.to_bytes ir in
  expect_code "truncation" "XPDL603" (String.sub full 0 (String.length full - 8));
  (* a header field pushed past the 2^31 sanity bound *)
  let bytes = Bytes.of_string full in
  Bytes.set_int64_le bytes 70 0x10000000000L (* string blob length *);
  expect_code "length overflow" "XPDL607" (Bytes.to_string bytes);
  (* exception-raising entry point carries the same diagnostic *)
  match Ir.of_bytes "not a runtime model" with
  | exception Ir.Corrupt d ->
      Alcotest.(check string) "raised code" "XPDL601" d.Xpdl_core.Diagnostic.code
  | _ -> Alcotest.fail "bad magic must raise Corrupt"

(* the committed corrupt-input fixture files each map to one stable code
   (regenerate with test/tools/gen_error_fixtures.exe) *)
let test_error_fixtures () =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let expect =
    [
      ("bad_magic", "XPDL601");
      ("bad_version", "XPDL602");
      ("version_1", "XPDL602");
      ("truncated", "XPDL603");
      ("length_overflow", "XPDL607");
      ("garbage_header", "XPDL605");
    ]
  in
  List.iter
    (fun (name, code) ->
      expect_code name code (read (Fmt.str "fixtures/errors/%s.xrt" name)))
    expect;
  (* bad_checksum: structurally sound, so it loads — only the on-demand
     full checksum notices the flipped payload byte *)
  match Ir.of_bytes_result (read "fixtures/errors/bad_checksum.xrt") with
  | Error d -> Alcotest.failf "bad_checksum must load, got %s" d.Xpdl_core.Diagnostic.code
  | Ok ir -> (
      match Ir.verify ir with
      | Error d -> Alcotest.(check string) "verify code" "XPDL604" d.Xpdl_core.Diagnostic.code
      | Ok () -> Alcotest.fail "verify must flag the flipped byte")

let test_verify_clean () =
  let ir = Lazy.force liu_ir in
  (match Ir.verify ir with
  | Ok () -> ()
  | Error d -> Alcotest.failf "clean model failed verify: %s" d.Xpdl_core.Diagnostic.message);
  let ir2 = Ir.of_bytes (Ir.to_bytes ir) in
  match Ir.verify ir2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "reloaded model failed verify"

(* v2 is zero-copy: save → load → save must be the identity on bytes *)
let test_double_save_identity () =
  let ir = Lazy.force liu_ir in
  let b1 = Ir.to_bytes ir in
  let ir2 = Ir.of_bytes b1 in
  let b2 = Ir.to_bytes ir2 in
  Alcotest.(check bool) "save/load/save byte-identical" true (String.equal b1 b2);
  (* touching attributes forces a re-encode, which must itself be stable *)
  let ir3 = Ir.of_bytes b1 in
  let gpu = Option.get (Ir.find_by_ident ir3 "gpu1") in
  Ir.patch_attrs ir3 gpu.Ir.n_index [ ("vendor", Xpdl_core.Model.Str "patched") ];
  let b3 = Ir.to_bytes ir3 in
  Alcotest.(check bool) "patched bytes differ" false (String.equal b1 b3);
  let ir4 = Ir.of_bytes b3 in
  (match Ir.attr (Ir.node ir4 gpu.Ir.n_index) "vendor" with
  | Some (Ir.VStr "patched") -> ()
  | _ -> Alcotest.fail "patched attribute must survive the re-encode");
  Alcotest.(check bool) "re-encode is stable" true (String.equal b3 (Ir.to_bytes ir4))

(* A frozen copy keeps the arena as it was at the freeze: patches to the
   original afterwards — to a node already in the overlay and to a fresh
   one — must not show through, whether the original's node views were
   materialized before the freeze or not.  The reference is a second,
   independently patched arena in the same state. *)
let test_freeze_isolation () =
  let bytes = Ir.to_bytes (Lazy.force liu_ir) in
  let gpu = (Option.get (Ir.find_by_ident (Lazy.force liu_ir) "gpu1")).Ir.n_index in
  let vendor ir i =
    match Ir.attr_at ir i "vendor" with Some (Ir.VStr s) -> s | _ -> "<unset>"
  in
  let at_freeze () =
    let ir = Ir.of_bytes bytes in
    Ir.patch_attrs ir gpu [ ("vendor", Xpdl_core.Model.Str "before") ];
    ir
  in
  let reference = at_freeze () in
  let ref_bytes = Ir.to_bytes reference in
  List.iter
    (fun with_views ->
      let what s = Fmt.str "%s (views %s)" s (if with_views then "built" else "lazy") in
      let ir = at_freeze () in
      if with_views then for i = 0 to Ir.size ir - 1 do ignore (Ir.node ir i) done;
      let frozen = Ir.freeze ir in
      Ir.patch_attrs ir gpu [ ("vendor", Xpdl_core.Model.Str "after") ];
      Ir.patch_attrs ir 0 [ ("vendor", Xpdl_core.Model.Str "root-after") ];
      Alcotest.(check string) (what "origin patched") "after" (vendor ir gpu);
      (* column reads first, so the lazy case checks the overlay before
         any frozen view exists *)
      Alcotest.(check string) (what "frozen overlay") "before" (vendor frozen gpu);
      Alcotest.(check string) (what "frozen fresh node") (vendor reference 0) (vendor frozen 0);
      for i = 0 to Ir.size frozen - 1 do
        if (Ir.node frozen i).Ir.n_attrs <> (Ir.node reference i).Ir.n_attrs then
          Alcotest.failf "%s: node %d attrs changed under the freeze" (what "freeze") i
      done;
      Alcotest.(check bool) (what "frozen bytes") true (String.equal ref_bytes (Ir.to_bytes frozen));
      Alcotest.(check bool) (what "frozen verifies") true (Ir.verify frozen = Ok ());
      (* and the other way round: the frozen copy's patches stay its own *)
      Ir.patch_attrs frozen gpu [ ("vendor", Xpdl_core.Model.Str "frozen-side") ];
      Alcotest.(check string) (what "origin unaffected") "after" (vendor ir gpu))
    [ false; true ]

let prop_codec_roundtrip =
  (* random small models through the codec *)
  let gen =
    QCheck2.Gen.(
      let* cores = 1 -- 8 in
      let* caches = 0 -- 3 in
      let* power = 1 -- 50 in
      return (cores, caches, power))
  in
  QCheck2.Test.make ~name:"codec round-trip on random models" ~count:50 gen
    (fun (cores, caches, power) ->
      let src =
        Fmt.str
          {|<cpu name="c" static_power="%d" static_power_unit="W"><group prefix="k" quantity="%d"><core frequency="1" frequency_unit="GHz"/></group>%s</cpu>|}
          power cores
          (String.concat ""
             (List.init caches (fun i ->
                  Fmt.str {|<cache name="L%d" size="%d" unit="KiB"/>|} i (8 * (i + 1)))))
      in
      let m, _ = Xpdl_core.Instantiate.run (Xpdl_core.Elaborate.of_string_exn src) in
      let ir = Ir.of_model m in
      let ir2 = Ir.of_bytes (Ir.to_bytes ir) in
      Ir.size ir = Ir.size ir2
      && (Ir.root ir).Ir.n_attrs = (Ir.root ir2).Ir.n_attrs)

(* ------------------------------------------------------------------ *)
(* Preorder spans, path index, interned attributes *)

(* the naive recursive implementation the spans must agree with *)
let naive_subtree ir (n : Ir.node) =
  let rec go acc (n : Ir.node) =
    Array.fold_left (fun acc i -> go acc (Ir.node ir i)) (n.Ir.n_index :: acc) n.Ir.n_children
  in
  List.rev (go [] n)

let span_subtree (n : Ir.node) =
  List.init (n.Ir.n_subtree_end - n.Ir.n_index) (fun k -> n.Ir.n_index + k)

let check_spans_against_naive name ir =
  for i = 0 to Ir.size ir - 1 do
    let n = Ir.node ir i in
    if naive_subtree ir n <> span_subtree n then
      Alcotest.failf "%s: span of node %d disagrees with the recursive subtree" name i
  done

let test_spans_bundled () =
  List.iter
    (fun name -> check_spans_against_naive name (Ir.of_model (model name)))
    [ "myriad_server"; "liu_gpu_server"; "XScluster" ]

let test_path_index_bundled () =
  List.iter
    (fun name ->
      let ir = Ir.of_model (model name) in
      (* the index must return exactly what the old linear scan returned:
         the first node in document order with that path *)
      let first = Hashtbl.create 256 in
      for i = 0 to Ir.size ir - 1 do
        let p = (Ir.node ir i).Ir.n_path in
        if not (Hashtbl.mem first p) then Hashtbl.add first p i
      done;
      Hashtbl.iter
        (fun p i ->
          match Ir.find_by_path ir p with
          | Some n ->
              if n.Ir.n_index <> i then
                Alcotest.failf "%s: path %s resolves to node %d, scan finds %d" name p
                  n.Ir.n_index i
          | None -> Alcotest.failf "%s: path %s not indexed" name p)
        first;
      Alcotest.(check bool) "missing path" true (Ir.find_by_path ir "no/such/path" = None))
    [ "myriad_server"; "liu_gpu_server" ]

let test_interned_attrs () =
  let ir = Lazy.force liu_ir in
  for i = 0 to Ir.size ir - 1 do
    let n = Ir.node ir i in
    let prev = ref (-1) in
    Array.iter
      (fun (k, v) ->
        if k <= !prev then Alcotest.failf "node %d: attrs not sorted by key id" i;
        prev := k;
        if Ir.attr n (Ir.key_name k) <> Some v then
          Alcotest.failf "node %d: attr %s not found by name" i (Ir.key_name k);
        if Ir.attr_by_key n k <> Some v then
          Alcotest.failf "node %d: attr %s not found by key id" i (Ir.key_name k))
      n.Ir.n_attrs
  done;
  let gpu = Option.get (Ir.find_by_ident ir "gpu1") in
  Alcotest.(check bool) "absent attr by name" true (Ir.attr gpu "no_such_attribute_xyz" = None);
  Alcotest.(check bool) "absent attr by key" true
    (Ir.attr_by_key gpu (Ir.intern "no_such_attribute_xyz") = None)

let test_codec_rebuilds_spans () =
  let ir = Lazy.force liu_ir in
  let ir2 = Ir.of_bytes (Ir.to_bytes ir) in
  for i = 0 to Ir.size ir - 1 do
    if (Ir.node ir i).Ir.n_subtree_end <> (Ir.node ir2 i).Ir.n_subtree_end then
      Alcotest.failf "span of node %d not rebuilt identically after the codec" i
  done;
  check_spans_against_naive "reloaded" ir2

let prop_spans_random_models =
  let gen =
    QCheck2.Gen.(
      let* cores = 1 -- 8 in
      let* caches = 0 -- 3 in
      return (cores, caches))
  in
  QCheck2.Test.make ~name:"spans agree with recursion and survive the codec" ~count:50 gen
    (fun (cores, caches) ->
      let src =
        Fmt.str
          {|<cpu name="c"><group prefix="k" quantity="%d"><core frequency="1" frequency_unit="GHz"/></group>%s</cpu>|}
          cores
          (String.concat ""
             (List.init caches (fun i ->
                  Fmt.str {|<cache name="L%d" size="%d" unit="KiB"/>|} i (8 * (i + 1)))))
      in
      let m, _ = Xpdl_core.Instantiate.run (Xpdl_core.Elaborate.of_string_exn src) in
      let ir = Ir.of_model m in
      check_spans_against_naive "random" ir;
      let ir2 = Ir.of_bytes (Ir.to_bytes ir) in
      check_spans_against_naive "random reloaded" ir2;
      let same = ref (Ir.size ir = Ir.size ir2) in
      for i = 0 to Ir.size ir - 1 do
        if (Ir.node ir i).Ir.n_subtree_end <> (Ir.node ir2 i).Ir.n_subtree_end then same := false
      done;
      !same)

(* ------------------------------------------------------------------ *)
(* Static analysis *)

let test_bandwidth_downgrade () =
  (* PCIe3 declares 6 GiB/s but the host DDR3_16G memory sustains only
     12 GiB/s and the GPU's global memory 150 GiB/s — no downgrade.
     Craft a system where the endpoint memory is slower than the link. *)
  let r = Xpdl_repo.Repo.create () in
  Xpdl_repo.Repo.add_string r
    {|<system id="slowmem">
        <cpu id="host"><memory id="m" type="DDR" size="1" unit="GB" bandwidth="2" bandwidth_unit="GiB/s"/></cpu>
        <device id="dev"><memory id="dm" type="x" size="1" unit="GB" bandwidth="100" bandwidth_unit="GiB/s"/></device>
        <interconnects>
          <interconnect id="link">
            <channel name="ch" max_bandwidth="6" max_bandwidth_unit="GiB/s"/>
          </interconnect>
        </interconnects>
      </system>|};
  let sys = Option.get (Xpdl_repo.Repo.find r "slowmem") in
  let sys = Xpdl_core.Model.set_attr sys "id" (Xpdl_core.Model.Str "slowmem") in
  ignore sys;
  let m = Option.get (Xpdl_repo.Repo.find r "slowmem") in
  (* give the link endpoints *)
  let m =
    let rec fix (e : Xpdl_core.Model.element) =
      let e = { e with Xpdl_core.Model.children = List.map fix e.Xpdl_core.Model.children } in
      if e.Xpdl_core.Model.id = Some "link" then
        Xpdl_core.Model.set_attr
          (Xpdl_core.Model.set_attr e "head" (Xpdl_core.Model.Str "host"))
          "tail" (Xpdl_core.Model.Str "dev")
      else e
    in
    fix m
  in
  let annotated, reports = Analysis.effective_bandwidths m in
  match reports with
  | [ rep ] ->
      Alcotest.(check bool) "downgraded" true rep.Analysis.lr_downgraded;
      (match rep.Analysis.lr_effective with
      | Some eff -> Alcotest.(check (float 1e3)) "to 2 GiB/s" (2. *. (1024. ** 3.)) eff
      | None -> Alcotest.fail "effective bandwidth");
      let link = Option.get (Xpdl_core.Model.find_by_id "link" annotated) in
      Alcotest.(check bool) "annotated" true
        (Xpdl_core.Model.attr_quantity link "effective_bandwidth" <> None)
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let test_bandwidth_idempotent () =
  let module M = Xpdl_core.Model in
  let module S = Xpdl_core.Schema in
  (* the link's effective bandwidth derives from the endpoint memory
     alone (no channel declares one) *)
  let mem =
    M.make S.Memory ~id:"m"
      ~attrs:
        [
          ("bandwidth", M.Quantity (Xpdl_units.Units.bytes_per_second 2e9, "GB/s"));
          ("size", M.Quantity (Xpdl_units.Units.bytes 1e9, "GB"));
        ]
  in
  let host = M.make S.Cpu ~id:"host" ~children:[ mem ] in
  let link = M.make S.Interconnect ~id:"link" ~attrs:[ ("head", M.Str "host") ] in
  let sys = M.make S.System ~id:"sys" ~children:[ host; link ] in
  let a1, _ = Analysis.effective_bandwidths sys in
  let link1 = Option.get (M.find_by_id "link" a1) in
  Alcotest.(check bool) "annotated" true (M.attr_quantity link1 "effective_bandwidth" <> None);
  (* re-running on the annotated model is a fixpoint: the prior
     annotation neither feeds the recomputation nor duplicates *)
  let a2, _ = Analysis.effective_bandwidths a1 in
  Alcotest.(check string) "second run is a fixpoint" (M.to_string a1) (M.to_string a2);
  (* once the memory is edited away, the re-run must strip the stale
     annotation instead of keeping (or deriving from) it *)
  let edited = M.update_at a1 [ 0 ] (fun e -> { e with M.children = [] }) in
  let a3, reports = Analysis.effective_bandwidths edited in
  let link3 = Option.get (M.find_by_id "link" a3) in
  Alcotest.(check bool)
    "stale annotation stripped" true
    (M.attr_quantity link3 "effective_bandwidth" = None);
  match reports with
  | [ r ] -> Alcotest.(check bool) "no effective derives" true (r.Analysis.lr_effective = None)
  | l -> Alcotest.failf "expected one report, got %d" (List.length l)

let test_no_downgrade_when_fast () =
  let m = model "liu_gpu_server" in
  let _, reports = Analysis.effective_bandwidths m in
  let conn = List.find (fun r -> r.Analysis.lr_ident = "connection1") reports in
  Alcotest.(check bool) "PCIe not downgraded" false conn.Analysis.lr_downgraded

let test_cluster_path_bandwidth () =
  let m = model "XScluster" in
  let g = Analysis.build_graph m in
  (* path n0 -> n2 exists through the IB ring; bandwidth = 5 GiB/s *)
  (match Analysis.path_bandwidth g ~src:"n0" ~dst:"n2" with
  | Some bw -> Alcotest.(check (float 1e6)) "IB bottleneck" (5. *. (1024. ** 3.)) bw
  | None -> Alcotest.fail "n0 and n2 must be connected");
  (* cpu1 -> gpu1 inside a node over PCIe3 *)
  match Analysis.path_bandwidth g ~src:"cpu1" ~dst:"gpu1" with
  | Some bw -> Alcotest.(check bool) "PCIe class" true (bw > 5. *. (1024. ** 3.))
  | None -> Alcotest.fail "cpu1 and gpu1 must be connected"

let test_unreachable_path () =
  let g = { Analysis.g_nodes = [ "a"; "b" ]; g_edges = [] } in
  Alcotest.(check bool) "disconnected" true (Analysis.path_bandwidth g ~src:"a" ~dst:"b" = None)

let test_connected_components () =
  let m = model "myriad_server" in
  let g = Analysis.build_graph m in
  let comps = Analysis.connected_components g in
  Alcotest.(check int) "one component" 1 (List.length comps)

let test_filter_attributes () =
  let m = model "liu_gpu_server" in
  let filtered = Analysis.filter_attributes m in
  Xpdl_core.Model.iter
    (fun e ->
      List.iter
        (fun k ->
          if List.mem_assoc k e.Xpdl_core.Model.attrs then
            Alcotest.failf "attribute %s must be filtered" k)
        Analysis.default_filtered)
    filtered;
  (* custom drop list *)
  let f2 = Analysis.filter_attributes ~drop:[ "vendor" ] m in
  Alcotest.(check bool) "vendor gone" true
    (Xpdl_core.Model.fold
       (fun acc e -> acc && not (List.mem_assoc "vendor" e.Xpdl_core.Model.attrs))
       true f2)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let count_unknowns ir =
  Ir.fold_subtree ir
    (fun acc (n : Ir.node) ->
      Array.fold_left
        (fun acc (_, v) -> match v with Ir.VUnknown -> acc + 1 | _ -> acc)
        acc n.Ir.n_attrs)
    0 (Ir.root ir)

let test_pipeline_end_to_end () =
  match Pipeline.run ~repo:(Lazy.force repo) ~system:"liu_gpu_server" () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check bool) "no errors" true
        (Xpdl_core.Diagnostic.all_ok report.Pipeline.diagnostics);
      Alcotest.(check bool) "bootstrap ran" true (report.Pipeline.bootstrap_results <> []);
      Alcotest.(check bool) "ir built" true (Ir.size report.Pipeline.runtime_model > 5000);
      Alcotest.(check bool) "bytes" true (report.Pipeline.runtime_model_bytes > 100_000);
      Alcotest.(check bool) "all stages timed" true (List.length report.Pipeline.timings >= 6);
      Alcotest.(check bool) "descriptors tracked" true
        (List.mem "Nvidia_K20c" report.Pipeline.descriptors_used);
      (* no ? placeholders survive in the runtime model *)
      Alcotest.(check int) "no unknowns left" 0 (count_unknowns report.Pipeline.runtime_model)

let test_pipeline_without_bootstrap () =
  let config = { Pipeline.default_config with run_bootstrap = false } in
  match Pipeline.run ~config ~repo:(Lazy.force repo) ~system:"liu_gpu_server" () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check bool) "no bootstrap results" true (report.Pipeline.bootstrap_results = []);
      (* unknown energies survive *)
      Alcotest.(check bool) "unknowns remain" true
        (count_unknowns report.Pipeline.runtime_model > 0)

let test_pipeline_unknown_system () =
  match Pipeline.run ~repo:(Lazy.force repo) ~system:"ghost" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown system must fail"

let test_pipeline_emits_drivers () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "xpdl_pipe_drivers" in
  let config = { Pipeline.default_config with emit_drivers_to = Some dir } in
  (match Pipeline.run ~config ~repo:(Lazy.force repo) ~system:"liu_gpu_server" () with
  | Error msg -> Alcotest.fail msg
  | Ok _ ->
      Alcotest.(check bool) "drivers written" true
        (Sys.file_exists (Filename.concat dir "fadd.c")));
  Xpdl_kernel.remove_tree dir

let test_pipeline_to_file_and_query () =
  let out = Filename.temp_file "xpdl" ".xrt" in
  (match Pipeline.run_to_file ~repo:(Lazy.force repo) ~system:"myriad_server" ~output:out () with
  | Error msg -> Alcotest.fail msg
  | Ok _ ->
      let ir = Ir.of_file out in
      Alcotest.(check bool) "loadable" true (Ir.find_by_ident ir "mv153board" <> None));
  Sys.remove out

(* A system with a "?" instruction energy but no core: the bootstrap's
   [Machine.run] raises, and the pipeline degrades instead of failing. *)
let coreless_system =
  {|<system id="coreless">
  <memory id="mem0" size="1" unit="GB" />
  <power_model name="pm">
    <instructions name="isa">
      <inst name="widget" energy="?" energy_unit="pJ" />
    </instructions>
  </power_model>
</system>
|}

let test_pipeline_survives_failed_bootstrap () =
  Testlib.with_temp_dir "xpdl_coreless" @@ fun dir ->
  Out_channel.with_open_text (Filename.concat dir "coreless.xpdl") (fun oc ->
      output_string oc coreless_system);
  let config = { Pipeline.default_config with search_path = [ dir ] } in
  match Pipeline.run ~config ~system:"coreless" () with
  | Error msg -> Alcotest.failf "pipeline must degrade, not fail: %s" msg
  | Ok report ->
      let codes = List.map (fun (d : Xpdl_core.Diagnostic.t) -> d.code) report.Pipeline.diagnostics in
      Alcotest.(check bool) "runtime model built" true (Ir.size report.Pipeline.runtime_model > 0);
      Alcotest.(check bool) "XPDL500 reported" true (List.mem "XPDL500" codes);
      Alcotest.(check bool) "XPDL310 reported" true (List.mem "XPDL310" codes);
      Alcotest.(check bool) "no bootstrap results" true (report.Pipeline.bootstrap_results = []);
      Alcotest.(check int) "placeholder kept" 1 (count_unknowns report.Pipeline.runtime_model)

(* Fingerprints of every bundled system's runtime model, with and
   without the microbenchmark bootstrap, as [Xpdl_kernel.checksum] of
   the encoded image.  They pin the simulator's measurements and the
   codec across commits: a change that should be output-neutral must
   keep every value. *)
let golden_fingerprints =
  [
    ("liu_gpu_server", 1613307830174630550, 858798540887829610);
    ("myriad_server", 1770767826458448001, 3594253581888786495);
    ("odroid_xu3", 740336439413155120, 2926441340443566478);
    ("phi_server", 1419395743322749837, 1262097015977766282);
    ("XScluster", 2998980733750165885, 1309637795627497388);
    ("excess_cluster", 2156188491909656221, 3160541776413127105);
  ]

let test_pipeline_golden_fingerprints () =
  let fingerprint ~run_bootstrap system =
    let config = { Pipeline.default_config with run_bootstrap } in
    match Pipeline.run ~config ~repo:(Lazy.force repo) ~system () with
    | Error msg -> Alcotest.failf "%s: %s" system msg
    | Ok report -> Xpdl_kernel.checksum (Ir.to_bytes report.Pipeline.runtime_model)
  in
  List.iter
    (fun (system, bootstrapped, plain) ->
      Alcotest.(check int) (system ^ " bootstrapped") bootstrapped
        (fingerprint ~run_bootstrap:true system);
      Alcotest.(check int) (system ^ " without bootstrap") plain
        (fingerprint ~run_bootstrap:false system))
    golden_fingerprints

(* The pipeline's bootstrap is the resilient engine with no fault plan:
   on every bundled system its model equals [Resilient.run] on the
   machine the pipeline builds, and every ["?"] instruction is labeled
   measured.  Each ISA copy of an instruction is measured on its own, so
   the five [nop] copies of excess_cluster carry five energies. *)
let test_pipeline_one_bootstrap () =
  let module Model = Xpdl_core.Model in
  let module Schema = Xpdl_core.Schema in
  let cfg = Pipeline.default_config in
  let is_instruction (e : Model.element) = Schema.equal_kind e.kind Schema.Instruction in
  let bootstrapped system =
    match Pipeline.run ~repo:(Lazy.force repo) ~system () with
    | Error msg -> Alcotest.failf "%s: %s" system msg
    | Ok report ->
        let analysed, _ = Analysis.effective_bandwidths (model system) in
        let machine = Xpdl_simhw.Machine.create ~seed:cfg.Pipeline.machine_seed analysed in
        let engine, _ =
          Xpdl_microbench.Resilient.run ~policy:cfg.Pipeline.bootstrap_opts ~machine analysed
        in
        Alcotest.(check bool) (system ^ ": pipeline model = engine model") true
          (report.Pipeline.model = engine);
        Model.fold_index_paths
          (fun () path e ->
            if is_instruction e && Model.attr_is_unknown e "energy" then
              Alcotest.(check (option string))
                (Fmt.str "%s: %s labeled" system (Option.value ~default:"?" (Model.identifier e)))
                (Some "measured")
                (Option.bind (Model.at_index_path engine path) (fun e' ->
                     Model.attr_string e' "quality")))
          () analysed;
        engine
  in
  List.iter
    (fun system -> ignore (bootstrapped system))
    [ "liu_gpu_server"; "myriad_server"; "odroid_xu3"; "phi_server"; "XScluster" ];
  let nops =
    Model.fold
      (fun acc (e : Model.element) ->
        match Model.attr_quantity e "energy" with
        | Some q when is_instruction e && Model.identifier e = Some "nop" ->
            Xpdl_units.Units.value q :: acc
        | _ -> acc)
      [] (bootstrapped "excess_cluster")
  in
  Alcotest.(check int) "excess_cluster: five nop copies" 5 (List.length nops);
  Alcotest.(check int) "excess_cluster: each nop copy measured on its own" 5
    (List.length (List.sort_uniq Float.compare nops))

(* ------------------------------------------------------------------ *)
(* C++ codegen *)

let test_cpp_header () =
  let header = Cpp_codegen.generate_header () in
  let contains affix =
    let al = String.length affix and sl = String.length header in
    let rec go i = i + al <= sl && (String.sub header i al = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "init entry point" true (contains "int xpdl_init(char *filename)");
  Alcotest.(check bool) "base class" true (contains "class XpdlElement");
  Alcotest.(check bool) "cpu class" true (contains "class XpdlCpu");
  Alcotest.(check bool) "cache getter" true (contains "get_size()");
  Alcotest.(check bool) "setter" true (contains "set_frequency(");
  Alcotest.(check bool) "navigation" true (contains "children_of<XpdlCore>");
  Alcotest.(check bool) "analysis fns" true (contains "count_cores");
  Alcotest.(check bool) "hundreds of getters" true (Cpp_codegen.getter_count () > 150)

(* The encoder streams the model into the v2 columns: no per-node
   record, attribute list or boxed payload, so its minor allocation is
   a small constant per element (the growable columns and the final
   image are major-heap blocks). *)
let test_of_model_allocation () =
  List.iter
    (Testlib.check_words_per_element ~bound:16. "Ir.of_model" Ir.of_model)
    [ "liu_gpu_server"; "XScluster" ]

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "toolchain"
    [
      ( "ir",
        [
          case "structure" test_ir_structure;
          case "paths" test_ir_paths;
          case "kind index" test_ir_kind_index;
          case "attribute values" test_ir_attr_values;
          case "codec round-trip" test_codec_roundtrip;
          case "file round-trip" test_codec_file_roundtrip;
          case "rejects corrupt input" test_codec_rejects_garbage;
          case "corrupt fixture files" test_error_fixtures;
          case "checksum verify" test_verify_clean;
          case "double-save byte identity" test_double_save_identity;
          case "freeze isolation" test_freeze_isolation;
          case "of_model allocation per element" test_of_model_allocation;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
        ] );
      ( "spans",
        [
          case "spans = recursion on bundled models" test_spans_bundled;
          case "path index = linear scan" test_path_index_bundled;
          case "interned attribute lookup" test_interned_attrs;
          case "codec rebuilds spans" test_codec_rebuilds_spans;
          QCheck_alcotest.to_alcotest prop_spans_random_models;
        ] );
      ( "analysis",
        [
          case "bandwidth downgrade" test_bandwidth_downgrade;
          case "bandwidth idempotent" test_bandwidth_idempotent;
          case "no false downgrade" test_no_downgrade_when_fast;
          case "cluster path bandwidth" test_cluster_path_bandwidth;
          case "unreachable path" test_unreachable_path;
          case "connected components" test_connected_components;
          case "attribute filtering" test_filter_attributes;
        ] );
      ( "pipeline",
        [
          case "end to end" test_pipeline_end_to_end;
          case "bootstrap off" test_pipeline_without_bootstrap;
          case "unknown system" test_pipeline_unknown_system;
          case "driver emission" test_pipeline_emits_drivers;
          case "file output + reload" test_pipeline_to_file_and_query;
          case "golden fingerprints" test_pipeline_golden_fingerprints;
          case "survives a failed bootstrap" test_pipeline_survives_failed_bootstrap;
          case "one bootstrap mechanism" test_pipeline_one_bootstrap;
        ] );
      ("cpp", [ case "generated header" test_cpp_header ]);
    ]
