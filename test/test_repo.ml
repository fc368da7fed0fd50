(* Tests for the model repository: indexing, search path, hyperlinks,
   shadowing, composition. *)

open Xpdl_core

let has_error diags = List.exists Diagnostic.is_error diags

let mem_repo descs =
  let r = Xpdl_repo.Repo.create () in
  List.iter (fun (file, s) -> Xpdl_repo.Repo.add_string r ~file s) descs;
  r

let test_indexing () =
  let r =
    mem_repo
      [ ("a.xpdl", {|<cpu name="A"/>|}); ("b.xpdl", {|<system id="B"><cpu id="c"/></system>|}) ]
  in
  Alcotest.(check int) "2 entries" 2 (Xpdl_repo.Repo.size r);
  Alcotest.(check (list string)) "identifiers" [ "A"; "B" ] (Xpdl_repo.Repo.identifiers r);
  Alcotest.(check bool) "find A" true (Xpdl_repo.Repo.find r "A" <> None);
  Alcotest.(check bool) "find nothing" true (Xpdl_repo.Repo.find r "Z" = None)

let test_wrapper_element () =
  let r = mem_repo [ ("multi.xpdl", {|<xpdl><cpu name="A"/><memory name="M" type="DDR"/></xpdl>|}) ] in
  Alcotest.(check int) "both indexed" 2 (Xpdl_repo.Repo.size r)

let test_anonymous_descriptor_rejected () =
  let r = mem_repo [ ("anon.xpdl", {|<cpu frequency="1" frequency_unit="GHz"/>|}) ] in
  Alcotest.(check int) "not indexed" 0 (Xpdl_repo.Repo.size r);
  Alcotest.(check bool) "diagnosed" true (has_error (Xpdl_repo.Repo.diagnostics r))

let test_shadowing_warns () =
  let r = mem_repo [ ("a.xpdl", {|<cpu name="X"/>|}); ("b.xpdl", {|<cpu name="X" vendor="V"/>|}) ] in
  Alcotest.(check int) "one entry" 1 (Xpdl_repo.Repo.size r);
  Alcotest.(check bool) "warned" true (List.length (Xpdl_repo.Repo.diagnostics r) > 0);
  (* later definition wins *)
  let x = Option.get (Xpdl_repo.Repo.find r "X") in
  Alcotest.(check (option string)) "later wins" (Some "V") (Model.attr_string x "vendor")

let test_malformed_file_diagnosed () =
  let r = mem_repo [ ("bad.xpdl", "<cpu name=\"X\"") ] in
  Alcotest.(check bool) "parse error recorded" true (has_error (Xpdl_repo.Repo.diagnostics r))

let test_hyperlinks () =
  let dir = Filename.temp_file "xpdlrepo" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "vendor_cpu.xpdl") in
  output_string oc {|<cpu name="VendorCPU" frequency="3" frequency_unit="GHz"/>|};
  close_out oc;
  let r = Xpdl_repo.Repo.create () in
  Xpdl_repo.Repo.add_remote r ~authority:"vendor.example.com" ~root:dir;
  Xpdl_repo.Repo.add_string r
    {|<system id="sys"><socket><cpu id="c0" type="xpdl://vendor.example.com/VendorCPU"/></socket></system>|};
  (match Xpdl_repo.Repo.compose_by_name r "sys" with
  | Ok c ->
      Alcotest.(check bool) "no errors" false (has_error c.Xpdl_repo.Repo.comp_diags);
      let cpu = Option.get (Model.find_by_id "c0" c.Xpdl_repo.Repo.model) in
      Alcotest.(check (option (Alcotest.float 1.)) )
        "merged remote content" (Some 3e9)
        (Option.map Xpdl_units.Units.value (Model.attr_quantity cpu "frequency"))
  | Error msg -> Alcotest.fail msg);
  Sys.remove (Filename.concat dir "vendor_cpu.xpdl");
  Sys.rmdir dir

let test_unknown_authority () =
  let r = Xpdl_repo.Repo.create () in
  Xpdl_repo.Repo.add_string r
    {|<system id="sys"><cpu id="c0" type="xpdl://nowhere.example/X"/></system>|};
  match Xpdl_repo.Repo.compose_by_name r "sys" with
  | Ok c -> Alcotest.(check bool) "diagnosed" true (has_error c.Xpdl_repo.Repo.comp_diags
                                                    || has_error (Xpdl_repo.Repo.diagnostics r))
  | Error _ -> ()

let test_compose_by_name_missing () =
  let r = mem_repo [] in
  match Xpdl_repo.Repo.compose_by_name r "ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "composing an unknown model must fail"

let test_descriptors_used () =
  let r =
    mem_repo
      [
        ("base.xpdl", {|<cpu name="Base"/>|});
        ("sub.xpdl", {|<cpu name="Sub" extends="Base"/>|});
        ("sys.xpdl", {|<system id="S"><cpu id="c" type="Sub"/></system>|});
      ]
  in
  match Xpdl_repo.Repo.compose_by_name r "S" with
  | Ok c ->
      Alcotest.(check (list string)) "transitive closure" [ "Sub"; "Base" ]
        c.Xpdl_repo.Repo.descriptors_used
  | Error msg -> Alcotest.fail msg

let test_config_overrides () =
  let r =
    mem_repo
      [
        ( "g.xpdl",
          {|<device name="G"><param name="n"/><group prefix="c" quantity="n"><core/></group></device>|}
        );
        ("sys.xpdl", {|<system id="S"><device id="d" type="G"/></system>|});
      ]
  in
  match Xpdl_repo.Repo.compose_by_name ~config:[ ("n", Xpdl_expr.Expr.Num 7.) ] r "S" with
  | Ok c ->
      Alcotest.(check bool) "no errors" false (has_error c.Xpdl_repo.Repo.comp_diags);
      Alcotest.(check int) "7 cores" 7
        (List.length (Model.elements_of_kind Schema.Core c.Xpdl_repo.Repo.model))
  | Error msg -> Alcotest.fail msg

let test_total_elements () =
  let r = mem_repo [ ("a.xpdl", {|<cpu name="A"><core/><core/></cpu>|}) ] in
  Alcotest.(check int) "3 elements" 3 (Xpdl_repo.Repo.total_elements r)

let test_locate_bundled () =
  (* the dune test sandbox exposes ../models *)
  match Xpdl_repo.Repo.locate_models () with
  | Some _ -> Alcotest.(check bool) "loads" true (Xpdl_repo.Repo.size (Xpdl_repo.Repo.load_bundled ()) > 0)
  | None -> Alcotest.fail "bundled models not locatable"

(* end-to-end property: a randomly generated repository (a CPU family
   with inherited content, a device with parameterized SM groups, and a
   system instantiating both) composes without errors, and the core count
   predicted arithmetically matches the expanded model, the aggregation
   rule, and the runtime query API *)
let prop_random_repo_end_to_end =
  let gen =
    QCheck2.Gen.(
      let* cpu_cores = 1 -- 8 in
      let* sm_count = 1 -- 6 in
      let* cores_per_sm = 1 -- 32 in
      let* use_param = bool in
      return (cpu_cores, sm_count, cores_per_sm, use_param))
  in
  QCheck2.Test.make ~name:"random repository composes consistently" ~count:40 gen
    (fun (cpu_cores, sm_count, cores_per_sm, use_param) ->
      let r = mem_repo [] in
      Xpdl_repo.Repo.add_string r
        (Fmt.str
           {|<cpu name="BaseCpu" vendor="Gen" static_power="5" static_power_unit="W">
               <group prefix="c" quantity="%d">
                 <core frequency="2" frequency_unit="GHz"/>
                 <cache name="L1" size="32" unit="KiB"/>
               </group>
             </cpu>|}
           cpu_cores);
      Xpdl_repo.Repo.add_string r {|<cpu name="SubCpu" extends="BaseCpu" vendor="Sub"/>|};
      Xpdl_repo.Repo.add_string r
        (if use_param then
           Fmt.str
             {|<device name="Dev" role="worker">
                 <param name="nsm" value="%d"/>
                 <group prefix="sm" quantity="nsm">
                   <group prefix="u" quantity="%d"><core frequency="1" frequency_unit="GHz"/></group>
                 </group>
               </device>|}
             sm_count cores_per_sm
         else
           Fmt.str
             {|<device name="Dev" role="worker">
                 <group prefix="sm" quantity="%d">
                   <group prefix="u" quantity="%d"><core frequency="1" frequency_unit="GHz"/></group>
                 </group>
               </device>|}
             sm_count cores_per_sm);
      Xpdl_repo.Repo.add_string r
        {|<system id="sys">
            <socket><cpu id="cpu0" type="SubCpu"/></socket>
            <device id="dev0" type="Dev"/>
          </system>|};
      match Xpdl_repo.Repo.compose_by_name r "sys" with
      | Error msg -> QCheck2.Test.fail_reportf "compose failed: %s" msg
      | Ok c ->
          let expected = cpu_cores + (sm_count * cores_per_sm) in
          let model_count =
            List.length
              (Xpdl_core.Model.hardware_elements_of_kind Xpdl_core.Schema.Core
                 c.Xpdl_repo.Repo.model)
          in
          let agg_count = Xpdl_energy.Aggregate.core_count c.Xpdl_repo.Repo.model in
          let query_count =
            Xpdl_query.Query.count_cores (Xpdl_query.Query.of_model c.Xpdl_repo.Repo.model)
          in
          has_error c.Xpdl_repo.Repo.comp_diags = false
          && model_count = expected && agg_count = expected && query_count = expected)

(* --- persistent index + lazy loading ------------------------------- *)

let with_temp_dir = Testlib.with_temp_dir "xpdl_repotest"

let write_file dir name s =
  Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> Out_channel.output_string oc s)

let fleet_files =
  [
    ("a.xpdl", {|<cpu name="X" vendor="early"/>|});
    ("b.xpdl", {|<xpdl><cpu name="X" vendor="late"/><memory name="M" type="DDR"/></xpdl>|});
    ("c.xpdl", {|<core name="C" frequency="2" frequency_unit="GHz"/>|});
    ("broken.xpdl", "<cpu name=\"B\"");
    ("sys.xpdl", {|<system id="S"><cpu id="c0" type="X"/></system>|});
  ]

let norm_diags diags =
  (* XPDL31x is index lifecycle chatter, allowed to differ from eager *)
  List.filter_map
    (fun d ->
      let s = Fmt.str "%a" Xpdl_core.Diagnostic.pp d in
      let is_31x code = List.mem code [ "XPDL311"; "XPDL312"; "XPDL313"; "XPDL314" ] in
      if is_31x d.Xpdl_core.Diagnostic.code then None else Some s)
    diags
  |> List.sort String.compare

let render e = Xpdl_xml.Print.to_string (Model.to_xml e)

let test_open_root_parity () =
  with_temp_dir (fun dir ->
      List.iter (fun (n, s) -> write_file dir n s) fleet_files;
      let eager = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.add_root eager dir;
      let check_same label r =
        Alcotest.(check (list string))
          (label ^ ": identifiers") (Xpdl_repo.Repo.identifiers eager)
          (Xpdl_repo.Repo.identifiers r);
        List.iter
          (fun ident ->
            let want = Option.map render (Xpdl_repo.Repo.find eager ident) in
            let got = Option.map render (Xpdl_repo.Repo.find r ident) in
            Alcotest.(check (option string)) (label ^ ": find " ^ ident) want got)
          (Xpdl_repo.Repo.identifiers eager);
        Alcotest.(check (list string))
          (label ^ ": diagnostics")
          (norm_diags (Xpdl_repo.Repo.diagnostics eager))
          (norm_diags (Xpdl_repo.Repo.diagnostics r));
        Alcotest.(check (list string))
          (label ^ ": quarantine")
          (List.sort String.compare (Xpdl_repo.Repo.quarantined_files eager))
          (List.sort String.compare (Xpdl_repo.Repo.quarantined_files r))
      in
      let cold = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root cold dir;
      check_same "cold" cold;
      let warm = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root warm dir;
      Alcotest.(check int) "warm open parses nothing" 0
        (Xpdl_repo.Repo.stats warm).Xpdl_repo.Repo.parsed_files;
      check_same "warm" warm)

let test_staleness_rescan () =
  with_temp_dir (fun dir ->
      List.iter (fun (n, s) -> write_file dir n s) fleet_files;
      let cold = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root cold dir;
      (* rewrite one file (different size, so any mtime granularity is moot) *)
      write_file dir "c.xpdl" {|<core name="C" frequency="7" frequency_unit="MHz"/>|};
      let warm = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root warm dir;
      Alcotest.(check int) "only the stale file re-parsed" 1
        (Xpdl_repo.Repo.stats warm).Xpdl_repo.Repo.parsed_files;
      let c = Option.get (Xpdl_repo.Repo.find warm "C") in
      Alcotest.(check (option string)) "new content served" (Some "7 MHz")
        (Model.attr_string c "frequency"))

let test_corrupt_index_rebuild () =
  with_temp_dir (fun dir ->
      List.iter (fun (n, s) -> write_file dir n s) fleet_files;
      let cold = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root cold dir;
      let sidecar = Filename.concat dir ".xpdlidx" in
      Alcotest.(check bool) "sidecar written" true (Sys.file_exists sidecar);
      let bytes = In_channel.with_open_bin sidecar In_channel.input_all in
      Out_channel.with_open_bin sidecar (fun oc ->
          Out_channel.output_string oc (String.sub bytes 0 (String.length bytes / 3)));
      let r = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root r dir;
      let codes = List.map (fun d -> d.Xpdl_core.Diagnostic.code) (Xpdl_repo.Repo.diagnostics r) in
      Alcotest.(check bool) "XPDL311 diagnosed" true (List.mem "XPDL311" codes);
      Alcotest.(check (list string)) "contents survive corruption"
        (Xpdl_repo.Repo.identifiers cold) (Xpdl_repo.Repo.identifiers r);
      (* the rebuild must leave a healthy sidecar behind *)
      let again = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root again dir;
      let codes = List.map (fun d -> d.Xpdl_core.Diagnostic.code) (Xpdl_repo.Repo.diagnostics again) in
      Alcotest.(check bool) "healthy after rebuild" false (List.mem "XPDL311" codes))

(* Satellite: XPDL302 shadowing under lazy loading — the surviving
   definition is the last one in scan order, no matter which entries are
   materialized first. *)
let test_lazy_shadowing_order () =
  with_temp_dir (fun dir ->
      List.iter (fun (n, s) -> write_file dir n s) fleet_files;
      let direct = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root direct dir;
      let x = Option.get (Xpdl_repo.Repo.find direct "X") in
      Alcotest.(check (option string)) "X first: last definition wins" (Some "late")
        (Model.attr_string x "vendor");
      let detour = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root detour dir;
      (* materialize the shadowed file's other descriptors first *)
      ignore (Xpdl_repo.Repo.find detour "M");
      ignore (Xpdl_repo.Repo.find detour "C");
      let x = Option.get (Xpdl_repo.Repo.find detour "X") in
      Alcotest.(check (option string)) "X last: same winner" (Some "late")
        (Model.attr_string x "vendor");
      let codes = List.map (fun d -> d.Xpdl_core.Diagnostic.code) (Xpdl_repo.Repo.diagnostics detour) in
      Alcotest.(check bool) "XPDL302 still reported" true (List.mem "XPDL302" codes))

(* Satellite: quarantine dedup — re-adding a failing file must not grow
   the quarantine list, and insertion order is preserved. *)
let test_quarantine_dedup () =
  with_temp_dir (fun dir ->
      write_file dir "bad1.xpdl" "<cpu";
      write_file dir "bad2.xpdl" "<memory";
      let r = Xpdl_repo.Repo.create () in
      let p1 = Filename.concat dir "bad1.xpdl" and p2 = Filename.concat dir "bad2.xpdl" in
      Xpdl_repo.Repo.add_file r p2;
      Xpdl_repo.Repo.add_file r p1;
      Xpdl_repo.Repo.add_file r p2;
      Xpdl_repo.Repo.add_file r p2;
      Alcotest.(check (list string)) "deduped, insertion order" [ p2; p1 ]
        (Xpdl_repo.Repo.quarantined_files r))

(* Satellite: XPDL305 is emitted once per distinct (authority, ref), so a
   composition touching a dangling reference thousands of times cannot
   flood the stream or consume an error cap. *)
let test_unknown_authority_dedup () =
  let r = mem_repo [] in
  for _ = 1 to 500 do
    ignore (Xpdl_repo.Repo.lookup r "xpdl://nowhere/T")
  done;
  for _ = 1 to 500 do
    ignore (Xpdl_repo.Repo.lookup r "xpdl://nowhere/U")
  done;
  let count_305 =
    List.length
      (List.filter
         (fun d -> String.equal d.Xpdl_core.Diagnostic.code "XPDL305")
         (Xpdl_repo.Repo.diagnostics r))
  in
  Alcotest.(check int) "one per distinct reference" 2 count_305

let test_eviction_rematerialize () =
  with_temp_dir (fun dir ->
      for i = 0 to 9 do
        write_file dir (Fmt.str "m%d.xpdl" i) (Fmt.str {|<cpu name="M%d" vendor="v%d"/>|} i i)
      done;
      let cold = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root cold dir;
      let r = Xpdl_repo.Repo.create ~cache_capacity:3 () in
      Xpdl_repo.Repo.open_root r dir;
      for i = 0 to 9 do
        let e = Option.get (Xpdl_repo.Repo.find r (Fmt.str "M%d" i)) in
        Alcotest.(check (option string)) "content" (Some (Fmt.str "v%d" i))
          (Model.attr_string e "vendor")
      done;
      let s = Xpdl_repo.Repo.stats r in
      Alcotest.(check bool) "evictions happened" true (s.Xpdl_repo.Repo.evictions > 0);
      Alcotest.(check bool) "cache bounded" true (s.Xpdl_repo.Repo.cached <= 3);
      (* an evicted entry still materializes correctly on re-touch *)
      let e = Option.get (Xpdl_repo.Repo.find r "M0") in
      Alcotest.(check (option string)) "re-materialized" (Some "v0") (Model.attr_string e "vendor"))

let render_validations vs =
  List.map
    (fun v ->
      Fmt.str "%s %s %a" v.Xpdl_repo.Repo.va_ident v.Xpdl_repo.Repo.va_kind
        (Fmt.list Xpdl_core.Diagnostic.pp) v.Xpdl_repo.Repo.va_errors)
    vs

let test_validate_all_parity () =
  with_temp_dir (fun dir ->
      List.iter (fun (n, s) -> write_file dir n s) fleet_files;
      let eager = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.add_root eager dir;
      let lazy_repo = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root lazy_repo dir;
      let warm = Xpdl_repo.Repo.create () in
      Xpdl_repo.Repo.open_root warm dir;
      let base = render_validations (Xpdl_repo.Repo.validate_all ~jobs:1 eager) in
      Alcotest.(check (list string)) "lazy cold == eager" base
        (render_validations (Xpdl_repo.Repo.validate_all ~jobs:1 lazy_repo));
      Alcotest.(check (list string)) "warm, 3 domains == eager" base
        (render_validations (Xpdl_repo.Repo.validate_all ~jobs:3 warm));
      (* the sweep materializes into a private snapshot, not the cache *)
      Alcotest.(check int) "cache untouched by validate-all" 0
        (Xpdl_repo.Repo.stats warm).Xpdl_repo.Repo.materialized)

(* A seeded 1,500-model fleet: a warm open through the sidecar parses
   nothing and beats the eager scan by 20x, the first compose parses
   100x fewer files than the eager scan, the validate-all failure count
   is pinned by the seed, and 4 domains render the same report as 1 (and
   run faster where there are 4 cores to run on). *)
let test_fleet_scale () =
  let module Repo = Xpdl_repo.Repo in
  let module Gen = Xpdl_gen.Gen in
  with_temp_dir (fun dir ->
      let n_models = 1_500 in
      let spec =
        { Gen.default_repo_spec with rs_models = n_models; rs_dirs = 16; rs_corrupt = 0.01;
          rs_shadow = 0.02; rs_systems = 4 }
      in
      Gen.write_repo ~dir (Gen.repo_files (Gen.create ~seed:18) spec);
      let wall f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let open_with add =
        (* no open pays for the garbage of the one before it *)
        Gc.compact ();
        wall (fun () ->
            let r = Repo.create () in
            add r dir;
            r)
      in
      let eager, t_eager = open_with Repo.add_root in
      let eager_parsed = (Repo.stats eager).Repo.parsed_files in
      ignore (open_with Repo.open_root) (* cold: builds the sidecar *);
      let warm, t_warm = open_with Repo.open_root in
      Alcotest.(check int) "warm open parses nothing" 0 (Repo.stats warm).Repo.parsed_files;
      if t_eager /. t_warm < 20. then
        Alcotest.failf "warm open %.4fs is not 20x faster than eager %.4fs" t_warm t_eager;
      (match Repo.compose_by_name warm "sys0000" with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "compose sys0000: %s" msg);
      let compose_parsed = (Repo.stats warm).Repo.parsed_files in
      if eager_parsed < 100 * max 1 compose_parsed then
        Alcotest.failf "first compose parsed %d files, eager %d: under 100x" compose_parsed
          eager_parsed;
      let validate jobs =
        let r = Repo.create ~cache_capacity:(n_models + 64) () in
        Repo.open_root r dir;
        wall (fun () -> Repo.validate_all ~jobs r)
      in
      let seq, t_seq = validate 1 in
      let par, t_par = validate 4 in
      Alcotest.(check int) "failing descriptors" 14
        (List.length (List.filter (fun v -> v.Repo.va_errors <> []) seq));
      Alcotest.(check (list string)) "4 domains == 1" (render_validations seq)
        (render_validations par);
      if Domain.recommended_domain_count () >= 4 && t_seq /. t_par <= 1.1 then
        Alcotest.failf "4-domain validate-all %.3fs vs sequential %.3fs: not 1.1x faster" t_par
          t_seq)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "repo"
    [
      ( "index",
        [
          case "by name and id" test_indexing;
          case "xpdl wrapper file" test_wrapper_element;
          case "anonymous descriptor" test_anonymous_descriptor_rejected;
          case "shadowing warns, later wins" test_shadowing_warns;
          case "malformed file" test_malformed_file_diagnosed;
          case "total elements" test_total_elements;
          case "bundled models" test_locate_bundled;
        ] );
      ( "hyperlinks",
        [ case "remote authority" test_hyperlinks; case "unknown authority" test_unknown_authority ]
      );
      ( "lazy",
        [
          case "open_root parity (cold + warm)" test_open_root_parity;
          case "staleness re-scan" test_staleness_rescan;
          case "corrupt index rebuild" test_corrupt_index_rebuild;
          case "shadowing under lazy load" test_lazy_shadowing_order;
          case "quarantine dedup" test_quarantine_dedup;
          case "unknown authority dedup" test_unknown_authority_dedup;
          case "eviction + re-materialize" test_eviction_rematerialize;
          case "validate-all parity + jobs" test_validate_all_parity;
          case "fleet-scale floors" test_fleet_scale;
        ] );
      ( "compose",
        [
          case "missing model" test_compose_by_name_missing;
          case "descriptors used" test_descriptors_used;
          case "deployment config" test_config_overrides;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_repo_end_to_end ]);
    ]
