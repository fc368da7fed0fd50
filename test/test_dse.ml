(* Tests for the design-space exploration engine (Xpdl_dse): grid
   enumeration and seeded sampling, parallel determinism (jobs=4 must be
   byte-identical to jobs=1), pruning of range/constraint failures with
   coded diagnostics, the bootstrap degradation ladder riding into
   per-point quality provenance, Pareto-front semantics including ties,
   and the committed 3-axis SpMV sweep template. *)

open Xpdl_core
module Dse = Xpdl_dse.Dse

let template_path = "../examples/spmv_sweep.xpdl"

let load_template () =
  match Xpdl_xml.Parse.file_recover ~lenient:true template_path with
  | Error msg -> Alcotest.failf "cannot load %s: %s" template_path msg
  | Ok (Some root, []) ->
      let e, ediags = Elaborate.of_xml root in
      if not (Diagnostic.all_ok ediags) then
        Alcotest.failf "template elaborates with errors: %a" Diagnostic.pp_list ediags;
      e
  | Ok _ -> Alcotest.failf "unexpected parse result for %s" template_path

let has_code code diags =
  List.exists (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code code) diags

(* a fast sweep config: tiny workload, two bootstrap repetitions *)
let quick_config =
  {
    Dse.default_config with
    Dse.workload = { Dse.wl_rows = 64; wl_density = 0.1; wl_iterations = 1 };
    policy = { Xpdl_microbench.Resilient.default_policy with repetitions = 2 };
  }

let run_quick ?(config = quick_config) ?axes tmpl =
  match Dse.run ~config ?axes tmpl with
  | Ok r -> r
  | Error d -> Alcotest.failf "sweep refused: %a" Diagnostic.pp d

(* ------------------------------------------------------------------ *)
(* Grid enumeration and sampling *)

let test_grid_enumeration () =
  let axes = [ Dse.axis "a" [ 1.; 2.; 3. ]; Dse.axis "b" [ 10.; 20. ] ] in
  let sp = match Dse.space axes with Ok sp -> sp | Error d -> Alcotest.failf "%a" Diagnostic.pp d in
  Alcotest.(check int) "total" 6 sp.Dse.sp_total;
  (* row-major: first axis slowest *)
  Alcotest.(check (list (pair string (float 0.)))) "decode 0"
    [ ("a", 1.); ("b", 10.) ] (Dse.decode sp 0);
  Alcotest.(check (list (pair string (float 0.)))) "decode 1"
    [ ("a", 1.); ("b", 20.) ] (Dse.decode sp 1);
  Alcotest.(check (list (pair string (float 0.)))) "decode 5"
    [ ("a", 3.); ("b", 20.) ] (Dse.decode sp 5);
  (match Dse.space [] with
  | Error d -> Alcotest.(check string) "no axes code" "XPDL801" d.Diagnostic.code
  | Ok _ -> Alcotest.fail "empty axis list must be refused");
  match Dse.parse_axis_spec "freq=1.8:GHz,2.4:GHz" with
  | Ok ax ->
      Alcotest.(check string) "axis name" "freq" ax.Dse.ax_name;
      Alcotest.(check (float 1.)) "unit suffix normalized" 1.8e9 ax.Dse.ax_values.(0)
  | Error d -> Alcotest.failf "axis spec refused: %a" Diagnostic.pp d

let test_axis_spec_malformed () =
  List.iter
    (fun spec ->
      match Dse.parse_axis_spec spec with
      | Ok _ -> Alcotest.failf "axis spec %S must be refused" spec
      | Error d -> Alcotest.(check string) "code" "XPDL802" d.Diagnostic.code)
    [ "noequals"; "=1,2"; "a="; "a=1,junk,3" ]

let test_sampling () =
  let axes = [ Dse.axis "a" [ 1.; 2.; 3.; 4. ]; Dse.axis "b" [ 1.; 2.; 3.; 4. ] ] in
  let sp = match Dse.space axes with Ok sp -> sp | Error _ -> assert false in
  let pick seed = fst (Dse.select_indices ~seed sp (Dse.Sample 5)) in
  let s1 = pick 7 and s1' = pick 7 and s2 = pick 8 in
  Alcotest.(check (array int)) "same seed, same sample" s1 s1';
  Alcotest.(check bool) "distinct ascending" true
    (Array.for_all (fun i -> i >= 0 && i < 16) s1
    && Array.length s1 = 5
    && Array.for_all2 (fun a b -> a < b) (Array.sub s1 0 4) (Array.sub s1 1 4));
  Alcotest.(check bool) "different seed, different sample" true (s1 <> s2);
  (* a quota covering the space degrades to the full grid with a note *)
  let all, diags = Dse.select_indices ~seed:7 sp (Dse.Sample 99) in
  Alcotest.(check int) "degraded to exhaustive" 16 (Array.length all);
  Alcotest.(check bool) "XPDL806 note" true (has_code "XPDL806" diags)

(* ------------------------------------------------------------------ *)
(* The committed 3-axis template *)

let test_example_axes () =
  let tmpl = load_template () in
  let axes = Dse.axes_of_template tmpl in
  Alcotest.(check (list string)) "axis names" [ "ncores"; "freq"; "pciebw" ]
    (List.map (fun a -> a.Dse.ax_name) axes);
  let freq = List.nth axes 1 in
  Alcotest.(check (float 1.)) "GHz ladder normalized" 1.8e9 freq.Dse.ax_values.(0)

let test_example_sweep () =
  let tmpl = load_template () in
  let r = run_quick tmpl in
  Alcotest.(check int) "space" 27 r.Dse.rp_space;
  Alcotest.(check int) "selected" 27 (Array.length r.Dse.rp_points);
  (* the socket power-budget constraint prunes the 6-core corner *)
  Alcotest.(check int) "pruned" 6 r.Dse.rp_pruned;
  Alcotest.(check int) "evaluated" 21 r.Dse.rp_evaluated;
  Alcotest.(check int) "failed" 0 r.Dse.rp_failed;
  Alcotest.(check bool) "front non-empty" true (r.Dse.rp_front <> []);
  Alcotest.(check int) "exit code" 0 (Dse.exit_code r);
  (* every front member is an evaluated point *)
  List.iter
    (fun i ->
      match Dse.point_of_index r i with
      | Some { Dse.pt_status = Dse.Evaluated _; _ } -> ()
      | _ -> Alcotest.failf "front member #%d is not an evaluated point" i)
    r.Dse.rp_front;
  (* static power is driven by ncores alone in this template *)
  let sens ax =
    List.find (fun s -> String.equal s.Dse.sx_axis ax) r.Dse.rp_sensitivity
  in
  Alcotest.(check bool) "ncores moves static power" true ((sens "ncores").Dse.sx_static > 0.);
  Alcotest.(check (float 1e-12)) "pciebw leaves static power" 0. (sens "pciebw").Dse.sx_static

let test_parallel_byte_identical () =
  let tmpl = load_template () in
  let r1 = run_quick ~config:{ quick_config with Dse.jobs = 1 } tmpl in
  let r4 = run_quick ~config:{ quick_config with Dse.jobs = 4 } tmpl in
  Alcotest.(check string) "jobs=4 byte-identical to jobs=1"
    (Dse.report_to_json r1) (Dse.report_to_json r4);
  (* and a sampled sweep parallelizes just as deterministically *)
  let cfg n = { quick_config with Dse.jobs = n; plan = Dse.Sample 11; seed = 5 } in
  let s1 = run_quick ~config:(cfg 1) tmpl and s4 = run_quick ~config:(cfg 4) tmpl in
  Alcotest.(check string) "sampled sweep too" (Dse.report_to_json s1) (Dse.report_to_json s4)

(* The committed template's report at the CLI defaults, pinned across
   commits by its [Xpdl_kernel.checksum]: an output-neutral change to
   the simulator or the sweep engine must keep it.  The template is
   parsed under its repository-relative name, so the value is also the
   checksum of [xpdltool dse --template examples/spmv_sweep.xpdl
   --format json] run from the repository root, minus its "timing"
   member. *)
let test_example_sweep_golden () =
  let src = In_channel.with_open_bin template_path In_channel.input_all in
  let xml = Xpdl_xml.Parse.string_exn ~file:"examples/spmv_sweep.xpdl" ~lenient:true src in
  let tmpl = fst (Elaborate.of_xml xml) in
  match Dse.run ~config:Dse.default_config tmpl with
  | Error d -> Alcotest.failf "sweep refused: %a" Diagnostic.pp d
  | Ok r ->
      Alcotest.(check int) "report fingerprint" 429115873174896891
        (Xpdl_kernel.checksum (Dse.report_to_json r))

(* ------------------------------------------------------------------ *)
(* Pruning: range and constraint edge cases under sweeping *)

let test_out_of_range_pruned () =
  let tmpl = load_template () in
  (* 9.9 GHz is not in freq's declared range: every point must be pruned
     with the XPDL210 cause wrapped in an XPDL803 note, never a crash *)
  let axes = [ Dse.axis "freq" [ 9.9e9; 8.8e9 ]; Dse.axis "ncores" [ 2.; 4. ] ] in
  let r = run_quick ~axes tmpl in
  Alcotest.(check int) "all pruned" 4 r.Dse.rp_pruned;
  Array.iter
    (fun (p : Dse.point) ->
      Alcotest.(check bool) "XPDL210 recorded" true (has_code "XPDL210" p.Dse.pt_diags);
      Alcotest.(check bool) "XPDL803 note" true (has_code "XPDL803" p.Dse.pt_diags))
    r.Dse.rp_points;
  Alcotest.(check (list int)) "empty front" [] r.Dse.rp_front;
  Alcotest.(check bool) "XPDL807 note" true (has_code "XPDL807" r.Dse.rp_diags);
  Alcotest.(check int) "lint exit semantics" 1 (Dse.exit_code r)

let divzero_template () =
  Elaborate.of_string_exn
    {|<system id="dz">
  <cpu id="c">
    <param name="n" type="integer" value="1" range="1,2" />
    <constraints><constraint expr="n / (n - n) >= 1" /></constraints>
    <group prefix="p" quantity="n">
      <core frequency="1.5" frequency_unit="GHz" static_power="1" static_power_unit="W" />
    </group>
  </cpu>
  <memory id="m" size="1" unit="GiB" />
</system>|}

let test_constraint_divzero_pruned () =
  let r = run_quick (divzero_template ()) in
  Alcotest.(check int) "both points pruned" 2 r.Dse.rp_pruned;
  Array.iter
    (fun (p : Dse.point) ->
      Alcotest.(check bool) "XPDL215 family" true (has_code "XPDL215" p.Dse.pt_diags))
    r.Dse.rp_points;
  Alcotest.(check int) "exit code" 1 (Dse.exit_code r)

let test_every_point_fails () =
  let tmpl =
    Elaborate.of_string_exn
      {|<system id="never">
  <cpu id="c">
    <param name="n" type="integer" value="1" range="1,2,3" />
    <constraints><constraint expr="n >= 100" /></constraints>
    <group prefix="p" quantity="n">
      <core frequency="2" frequency_unit="GHz" static_power="1" static_power_unit="W" />
    </group>
  </cpu>
</system>|}
  in
  let r = run_quick tmpl in
  Alcotest.(check int) "everything pruned" 3 r.Dse.rp_pruned;
  Alcotest.(check (list int)) "empty front" [] r.Dse.rp_front;
  Alcotest.(check bool) "XPDL807" true (has_code "XPDL807" r.Dse.rp_diags);
  Alcotest.(check int) "exit code 1" 1 (Dse.exit_code r)

(* ------------------------------------------------------------------ *)
(* Degradation ladder: faulty bootstraps keep the point, with provenance *)

let test_fault_degradation_provenance () =
  let tmpl = load_template () in
  let config = { quick_config with Dse.faults = Some (1, 0.85) } in
  let r = run_quick ~config tmpl in
  (* points still evaluate — the resilient bootstrap degrades instead of
     dropping them (the PR 5 ladder) *)
  Alcotest.(check int) "no silent drops" 21 r.Dse.rp_evaluated;
  Alcotest.(check bool) "some points degraded" true (r.Dse.rp_degraded > 0);
  let degraded =
    Array.to_list r.Dse.rp_points |> List.filter (fun p -> p.Dse.pt_degraded)
  in
  Alcotest.(check bool) "at least one point rode the ladder" true
    (List.exists
       (fun (p : Dse.point) ->
         let q = p.Dse.pt_quality in
         q.Dse.q_interpolated + q.Dse.q_inherited + q.Dse.q_unresolved > 0)
       degraded);
  List.iter
    (fun (p : Dse.point) ->
      Alcotest.(check bool) "XPDL805 note" true (has_code "XPDL805" p.Dse.pt_diags))
    degraded;
  (* determinism holds under fault injection too *)
  let r4 = run_quick ~config:{ config with Dse.jobs = 4 } tmpl in
  Alcotest.(check string) "faulty sweep still deterministic"
    (Dse.report_to_json r) (Dse.report_to_json r4)

(* ------------------------------------------------------------------ *)
(* Pareto semantics *)

let test_pareto_front () =
  let o e t p = { Dse.o_energy = e; o_time = t; o_static_power = p } in
  (* dominated points fall, incomparable points stay *)
  Alcotest.(check (list int)) "basic dominance" [ 0; 2 ]
    (Dse.pareto_front [ (0, o 1. 1. 1.); (1, o 2. 2. 2.); (2, o 0.5 3. 1.) ]);
  (* exact ties: neither dominates, both survive *)
  Alcotest.(check (list int)) "ties both kept" [ 3; 7 ]
    (Dse.pareto_front [ (7, o 1. 1. 1.); (3, o 1. 1. 1.) ]);
  (* equality in two objectives with strict improvement in the third *)
  Alcotest.(check (list int)) "weak dominance drops" [ 1 ]
    (Dse.pareto_front [ (0, o 1. 1. 2.); (1, o 1. 1. 1.) ]);
  Alcotest.(check (list int)) "empty" [] (Dse.pareto_front [])

let test_report_json_shape () =
  let tmpl = load_template () in
  let r = run_quick tmpl in
  let json = Dse.report_to_json r in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "report JSON lacks %s" needle)
    [ {|"axes":|}; {|"front":|}; {|"sensitivity":|}; {|"errors":0|}; {|"pruned":6|} ]

(* names reach the reports verbatim from --axis specs and exception
   messages; every byte must come out as valid JSON *)
let test_reports_escape_names () =
  let weird = "a\\b\nc\001\"d\\" in
  let r = run_quick (load_template ()) in
  let r =
    {
      r with
      Dse.rp_axes = List.map (fun ax -> { ax with Dse.ax_name = weird }) r.Dse.rp_axes;
      rp_sensitivity = List.map (fun x -> { x with Dse.sx_axis = weird }) r.rp_sensitivity;
      rp_points =
        Array.map (fun p -> { p with Dse.pt_bindings = [ (weird, 1.) ]; pt_variant = Some weird })
          r.rp_points;
    }
  in
  let module R = Xpdl_microbench.Resilient in
  let attempt f =
    { R.at_n = 1; at_failure = Some f; at_samples = 0; at_rejected = 0; at_elapsed = 0.;
      at_backoff = 0. }
  in
  let bench =
    { R.b_instruction = weird; b_benchmark = weird; b_quality = R.Unresolved; b_energy = None;
      b_attempts = [ attempt (R.Errored weird); attempt (R.Offline weird) ]; b_stats = None;
      b_sweep = []; b_quarantined = true }
  in
  let h =
    { R.h_benches = [ bench ]; h_links = [ bench ]; h_elapsed = 1.; h_budget = 2.; h_diags = [];
      h_budget_exhausted = false; h_aborted = false; h_fault_reads = 0; h_fault_events = 0 }
  in
  List.iter
    (fun json ->
      try Xpdl_toolchain.Json.check json
      with Xpdl_toolchain.Json.Invalid_json m -> Alcotest.failf "invalid JSON (%s): %s" m json)
    [ Dse.report_to_json r; R.health_to_json h ]

let () =
  Alcotest.run "dse"
    [
      ( "space",
        [
          Alcotest.test_case "grid enumeration" `Quick test_grid_enumeration;
          Alcotest.test_case "malformed axis specs" `Quick test_axis_spec_malformed;
          Alcotest.test_case "seeded sampling" `Quick test_sampling;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "template axes" `Quick test_example_axes;
          Alcotest.test_case "3-axis SpMV sweep" `Quick test_example_sweep;
          Alcotest.test_case "jobs=4 byte-identical" `Quick test_parallel_byte_identical;
          Alcotest.test_case "golden report at CLI defaults" `Quick test_example_sweep_golden;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "out-of-range axis values" `Quick test_out_of_range_pruned;
          Alcotest.test_case "constraint divide-by-zero" `Quick test_constraint_divzero_pruned;
          Alcotest.test_case "every point fails" `Quick test_every_point_fails;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "fault-injected provenance" `Quick test_fault_degradation_provenance;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "front semantics" `Quick test_pareto_front;
          Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
          Alcotest.test_case "reports escape names" `Quick test_reports_escape_names;
        ] );
    ]
