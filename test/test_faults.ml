(* Tests for the fault-tolerant deployment bootstrap: the deterministic
   fault plans of Xpdl_simhw.Faults, the retry/backoff/quarantine
   discipline and degradation ladder of Xpdl_microbench.Resilient, and
   the provenance the harness writes through the model store. *)

open Xpdl_core
module Faults = Xpdl_simhw.Faults
module Machine = Xpdl_simhw.Machine
module Resilient = Xpdl_microbench.Resilient
module Store = Xpdl_store.Store

let model = Testlib.model

(* A minimal one-instruction system; [extra] lands on the <inst>, [data]
   rows under it, so each degradation rung can be staged precisely. *)
let tiny_system ?(extra = "") ?(data = "") () =
  Elaborate.of_string_exn
    (Fmt.str
       {|<system id="tiny">
  <cpu id="cpu0"><core id="c0" frequency="1.5" frequency_unit="GHz" /></cpu>
  <power_model name="pm">
    <instructions name="isa">
      <inst name="widget" energy="?" energy_unit="pJ"%s>%s</inst>
    </instructions>
    <microbenchmarks name="mbs" instruction_set="isa">
      <microbenchmark id="w1" type="widget" iterations="500" />
    </microbenchmarks>
  </power_model>
</system>|}
       extra data)

let has_code code diags =
  List.exists (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.code code) diags

(* ------------------------------------------------------------------ *)
(* Backoff schedule *)

let test_backoff_deterministic () =
  let p = Resilient.default_policy in
  let s1 = Resilient.backoff_schedule p ~name:"fa1" ~attempts:5 in
  let s2 = Resilient.backoff_schedule p ~name:"fa1" ~attempts:5 in
  Alcotest.(check (list (float 0.))) "same policy and name: same delays" s1 s2;
  let other = Resilient.backoff_schedule p ~name:"fm1" ~attempts:5 in
  Alcotest.(check bool) "different benchmark: different jitter" true (s1 <> other);
  let reseeded =
    Resilient.backoff_schedule { p with Resilient.backoff_seed = 99 } ~name:"fa1" ~attempts:5
  in
  Alcotest.(check bool) "different seed: different jitter" true (s1 <> reseeded)

let test_backoff_growth () =
  let p =
    { Resilient.default_policy with Resilient.backoff_base = 0.1; backoff_factor = 2.0;
      backoff_jitter = 0.25 }
  in
  let s = Resilient.backoff_schedule p ~name:"x" ~attempts:6 in
  List.iteri
    (fun i d ->
      let floor = 0.1 *. (2. ** float_of_int i) in
      Alcotest.(check bool) (Fmt.str "delay %d in [floor, floor*1.25]" i) true
        (d >= floor -. 1e-12 && d <= (floor *. 1.25) +. 1e-12))
    s

(* ------------------------------------------------------------------ *)
(* Fault plans *)

let test_plan_replays_exactly () =
  let run () =
    let plan = Faults.create ~rate:0.4 ~seed:7 () in
    let vs =
      List.init 200 (fun i ->
          match Faults.observe plan ~target:"t" (10. +. float_of_int i) with
          | v -> Fmt.str "%h" v
          | exception Faults.Meter_timeout _ -> "timeout")
    in
    (vs, List.map (fun (e : Faults.event) -> (e.Faults.ev_read, e.Faults.ev_kind)) (Faults.events plan))
  in
  let v1, e1 = run () and v2, e2 = run () in
  Alcotest.(check (list string)) "same values" v1 v2;
  Alcotest.(check bool) "same events" true (e1 = e2);
  Alcotest.(check bool) "faults actually fired" true (e1 <> [])

let test_script_forces_faults () =
  let plan = Faults.create ~script:[ Some Faults.Nan_read; None; Some Faults.Outlier ] ~seed:1 () in
  Alcotest.(check bool) "1st read NaN" true
    (Float.is_nan (Faults.observe plan ~target:"t" 5.));
  Alcotest.(check (float 0.)) "2nd read clean" 5. (Faults.observe plan ~target:"t" 5.);
  Alcotest.(check bool) "3rd read wild outlier" true (Faults.observe plan ~target:"t" 5. >= 20.);
  Alcotest.(check (float 0.)) "past the script: clean (rate 0)" 5.
    (Faults.observe plan ~target:"t" 5.)

let test_script_timeout_raises () =
  let plan = Faults.create ~script:[ Some Faults.Timeout ] ~seed:1 () in
  match Faults.observe plan ~target:"meter" 1. with
  | exception Faults.Meter_timeout _ -> ()
  | v -> Alcotest.failf "expected Meter_timeout, got %g" v

let test_offline_delivered_via_machine () =
  let m = model "liu_gpu_server" in
  let machine = Machine.create ~seed:3 m in
  let plan = Faults.create ~offline_after:1 ~seed:5 () in
  Machine.inject_faults machine plan;
  let w = Xpdl_simhw.Kernels.single_instruction ~name:"fadd" ~iterations:100 in
  let (_ : Machine.measurement) = Machine.run machine w in
  (* the pick is delivered after that read; some later run must now die *)
  let saw_offline = ref false in
  (try
     for _ = 1 to Machine.core_count machine do
       ignore (Machine.run machine w)
     done
   with Faults.Core_offline _ -> saw_offline := true);
  Alcotest.(check bool) "a core went offline" true
    (!saw_offline
    || Array.exists (fun c -> c.Machine.core_offline) machine.Machine.cores)

(* ------------------------------------------------------------------ *)
(* Retry, deadline, quarantine *)

let all_timeouts = [ Faults.Timeout ]

let test_quarantine_after_retries () =
  let root = tiny_system () in
  let machine = Machine.create ~seed:2 root in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let policy = { Resilient.default_policy with Resilient.retries = 2 } in
  let _, h = Resilient.run ~policy ~machine root in
  match h.Resilient.h_benches with
  | [ b ] ->
      Alcotest.(check bool) "quarantined" true b.Resilient.b_quarantined;
      Alcotest.(check int) "retries + 1 attempts" 3 (List.length b.Resilient.b_attempts);
      List.iter
        (fun (a : Resilient.attempt) ->
          Alcotest.(check bool) "every attempt timed out" true
            (a.Resilient.at_failure = Some Resilient.Timed_out))
        b.Resilient.b_attempts;
      Alcotest.(check bool) "XPDL501 reported" true (has_code "XPDL501" h.Resilient.h_diags);
      Alcotest.(check bool) "XPDL503 reported" true (has_code "XPDL503" h.Resilient.h_diags)
  | bs -> Alcotest.failf "expected one bench, got %d" (List.length bs)

let test_deadline_stops_retries () =
  (* each timed-out attempt is charged 1 simulated second; a 1.5 s
     deadline therefore allows at most two attempts despite 9 retries *)
  let root = tiny_system () in
  let machine = Machine.create ~seed:2 root in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let policy =
    { Resilient.default_policy with Resilient.retries = 9; deadline = 1.5; read_timeout = 1.0 }
  in
  let _, h = Resilient.run ~policy ~machine root in
  let b = List.hd h.Resilient.h_benches in
  Alcotest.(check bool) "deadline cut the retry loop" true
    (List.length b.Resilient.b_attempts <= 2)

let test_budget_quarantines_rest () =
  let m = model "liu_gpu_server" in
  let machine = Machine.create ~seed:2 m in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let policy = { Resilient.default_policy with Resilient.budget = 2.0; retries = 1 } in
  let _, h = Resilient.run ~policy ~machine m in
  Alcotest.(check bool) "budget exhausted" true h.Resilient.h_budget_exhausted;
  Alcotest.(check bool) "XPDL508 reported" true (has_code "XPDL508" h.Resilient.h_diags);
  let skipped =
    List.filter
      (fun (b : Resilient.bench) ->
        List.exists
          (fun (a : Resilient.attempt) ->
            a.Resilient.at_failure = Some Resilient.Budget_exhausted)
          b.Resilient.b_attempts)
      h.Resilient.h_benches
  in
  Alcotest.(check bool) "later benchmarks were skipped" true (skipped <> [])

let test_fail_fast_aborts () =
  let m = model "liu_gpu_server" in
  let machine = Machine.create ~seed:2 m in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let policy = { Resilient.default_policy with Resilient.fail_fast = true; retries = 0 } in
  let _, h = Resilient.run ~policy ~machine m in
  Alcotest.(check bool) "aborted" true h.Resilient.h_aborted;
  let skipped =
    List.filter
      (fun (b : Resilient.bench) ->
        List.exists
          (fun (a : Resilient.attempt) -> a.Resilient.at_failure = Some Resilient.Skipped)
          b.Resilient.b_attempts)
      h.Resilient.h_benches
  in
  Alcotest.(check bool) "remaining benchmarks skipped" true (skipped <> [])

(* ------------------------------------------------------------------ *)
(* Degradation ladder *)

let quality_of h =
  match h.Resilient.h_benches with
  | [ b ] -> b.Resilient.b_quality
  | bs -> Alcotest.failf "expected one bench, got %d" (List.length bs)

let test_ladder_measured () =
  let root = tiny_system () in
  let machine = Machine.create ~seed:2 root in
  let m', h = Resilient.run ~machine root in
  Alcotest.(check bool) "measured" true (quality_of h = Resilient.Measured);
  Alcotest.(check (list (pair string string)))
    "quality attribute written" [ ("tiny/pm/isa/widget", "measured") ]
    (Resilient.quality_entries m')

let test_ladder_interpolated () =
  (* the three current-frequency attempts each die on their first read
     (scripted timeouts); the scripted faults are then exhausted, so the
     two sweep points measure cleanly and interpolation kicks in *)
  let root = tiny_system () in
  let machine = Machine.create ~seed:2 root in
  Machine.inject_faults machine
    (Faults.create
       ~script:[ Some Faults.Timeout; Some Faults.Timeout; Some Faults.Timeout ]
       ~seed:4 ());
  let policy =
    { Resilient.default_policy with Resilient.retries = 2; frequencies = [ 1.0e9; 2.0e9 ] }
  in
  let m', h = Resilient.run ~policy ~machine root in
  Alcotest.(check bool) "interpolated" true (quality_of h = Resilient.Interpolated);
  Alcotest.(check bool) "XPDL504 reported" true (has_code "XPDL504" h.Resilient.h_diags);
  let b = List.hd h.Resilient.h_benches in
  Alcotest.(check int) "two sweep points" 2 (List.length b.Resilient.b_sweep);
  Alcotest.(check bool) "energy written" true (b.Resilient.b_energy <> None);
  Alcotest.(check (list (pair string string)))
    "provenance" [ ("tiny/pm/isa/widget", "interpolated") ]
    (Resilient.quality_entries m')

let test_ladder_inherited_from_table () =
  let data =
    {|<data frequency="1.0" frequency_unit="GHz" energy="8" energy_unit="pJ" />
      <data frequency="2.0" frequency_unit="GHz" energy="12" energy_unit="pJ" />|}
  in
  let root = tiny_system ~data () in
  let machine = Machine.create ~seed:2 root in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let m', h = Resilient.run ~machine root in
  Alcotest.(check bool) "inherited" true (quality_of h = Resilient.Inherited);
  Alcotest.(check bool) "XPDL505 reported" true (has_code "XPDL505" h.Resilient.h_diags);
  Alcotest.(check (list (pair string string)))
    "provenance" [ ("tiny/pm/isa/widget", "inherited") ]
    (Resilient.quality_entries m')

let test_ladder_inherited_from_default () =
  let root = tiny_system ~extra:{| default_energy="9" default_energy_unit="pJ"|} () in
  let machine = Machine.create ~seed:2 root in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let m', h = Resilient.run ~machine root in
  Alcotest.(check bool) "inherited" true (quality_of h = Resilient.Inherited);
  let widget =
    List.find
      (fun (e : Model.element) -> Model.identifier e = Some "widget")
      (Model.fold_index_paths (fun acc _ e -> e :: acc) [] m')
  in
  Alcotest.(check bool) "energy no longer a placeholder" true
    (not (Model.attr_is_unknown widget "energy"))

let test_ladder_unresolved () =
  let root = tiny_system () in
  let machine = Machine.create ~seed:2 root in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let m', h = Resilient.run ~machine root in
  Alcotest.(check bool) "unresolved" true (quality_of h = Resilient.Unresolved);
  Alcotest.(check bool) "XPDL506 reported" true (has_code "XPDL506" h.Resilient.h_diags);
  Alcotest.(check (list (pair string string)))
    "still labeled" [ ("tiny/pm/isa/widget", "unresolved") ]
    (Resilient.quality_entries m')

(* ------------------------------------------------------------------ *)
(* Store provenance and journal compaction *)

let test_provenance_survives_compaction () =
  let root = tiny_system () in
  let store = Store.of_model root in
  let machine = Machine.create ~seed:2 root in
  Machine.inject_faults machine (Faults.create ~rate:1.0 ~kinds:all_timeouts ~seed:4 ());
  let (_ : Resilient.health) = Resilient.run_store ~machine store in
  let before = Resilient.quality_entries (Store.model store) in
  Alcotest.(check bool) "labeled after bootstrap" true (before <> []);
  (* push the journal well past the compaction threshold *)
  for i = 1 to (2 * Store.journal_capacity) + 50 do
    Store.set_attr store [] "touched" (Model.Str (string_of_int i))
  done;
  Alcotest.(check bool) "journal was compacted" true (Store.edits_since store 0 = None);
  Alcotest.(check (list (pair string string)))
    "quality provenance intact after compaction" before
    (Resilient.quality_entries (Store.model store))

(* ------------------------------------------------------------------ *)
(* Reproducibility (the acceptance criterion) *)

let test_health_report_reproducible () =
  let run () =
    let m = model "liu_gpu_server" in
    let machine = Machine.create ~seed:11 m in
    Machine.inject_faults machine (Faults.create ~rate:0.35 ~seed:9 ());
    let _, h = Resilient.run ~machine m in
    h
  in
  let h1 = run () and h2 = run () in
  Alcotest.(check string) "byte-identical health reports"
    (Resilient.health_to_json h1) (Resilient.health_to_json h2);
  Alcotest.(check bool) "faults actually fired" true (h1.Resilient.h_fault_events > 0)

let test_degraded_model_still_processes () =
  (* graceful degradation end to end: a heavily faulted bootstrap still
     yields a model every "?" of which is labeled, and the query layer
     surfaces the degraded entries *)
  let m = model "liu_gpu_server" in
  let machine = Machine.create ~seed:11 m in
  Machine.inject_faults machine (Faults.create ~rate:0.95 ~kinds:all_timeouts ~seed:13 ());
  let policy = { Resilient.default_policy with Resilient.retries = 1; budget = 50. } in
  let m', h = Resilient.run ~policy ~machine m in
  List.iter
    (fun (b : Resilient.bench) ->
      Alcotest.(check bool)
        (Fmt.str "%s resolved or quarantined" b.Resilient.b_instruction)
        true
        (b.Resilient.b_energy <> None || b.Resilient.b_quarantined))
    h.Resilient.h_benches;
  let q = Xpdl_query.Query.of_model m' in
  let degraded = Xpdl_query.Query.degraded_entries q in
  let quarantined =
    List.filter (fun (b : Resilient.bench) -> b.Resilient.b_quarantined) h.Resilient.h_benches
  in
  Alcotest.(check bool) "query exposes the degraded entries" true
    (List.length degraded >= List.length quarantined && quarantined <> [])

let () =
  Alcotest.run "faults"
    [
      ( "backoff",
        [
          Alcotest.test_case "deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "exponential growth" `Quick test_backoff_growth;
        ] );
      ( "plans",
        [
          Alcotest.test_case "replays exactly" `Quick test_plan_replays_exactly;
          Alcotest.test_case "script forces faults" `Quick test_script_forces_faults;
          Alcotest.test_case "scripted timeout raises" `Quick test_script_timeout_raises;
          Alcotest.test_case "offline via machine" `Quick test_offline_delivered_via_machine;
        ] );
      ( "retry",
        [
          Alcotest.test_case "quarantine after retries" `Quick test_quarantine_after_retries;
          Alcotest.test_case "deadline stops retries" `Quick test_deadline_stops_retries;
          Alcotest.test_case "budget quarantines rest" `Quick test_budget_quarantines_rest;
          Alcotest.test_case "fail-fast aborts" `Quick test_fail_fast_aborts;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "measured" `Quick test_ladder_measured;
          Alcotest.test_case "interpolated" `Quick test_ladder_interpolated;
          Alcotest.test_case "inherited from table" `Quick test_ladder_inherited_from_table;
          Alcotest.test_case "inherited from default" `Quick test_ladder_inherited_from_default;
          Alcotest.test_case "unresolved" `Quick test_ladder_unresolved;
        ] );
      ( "store",
        [
          Alcotest.test_case "provenance survives compaction" `Quick
            test_provenance_survives_compaction;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "reproducible health report" `Quick test_health_report_reproducible;
          Alcotest.test_case "degraded model still processes" `Quick
            test_degraded_model_still_processes;
        ] );
    ]
