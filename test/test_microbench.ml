(* Tests for the microbenchmark harness: statistics, driver generation,
   and the deployment-time bootstrap (accuracy against ground truth). *)

open Xpdl_microbench

let model = Testlib.model

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean_median () =
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.mean [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.(check (float 1e-9)) "median odd" 3. (Stats.median [ 5.; 1.; 3.; 2.; 4. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ])

let test_stddev () =
  Alcotest.(check (float 1e-9)) "constant" 0. (Stats.stddev [ 2.; 2.; 2. ]);
  Alcotest.(check (float 1e-6)) "known sample" (Float.sqrt 2.5) (Stats.stddev [ 1.; 2.; 3.; 4.; 5. ])

let test_outlier_rejection () =
  let samples = [ 10.; 10.1; 9.9; 10.05; 9.95; 10.02; 100. ] in
  let kept, rejected = Stats.reject_outliers samples in
  Alcotest.(check int) "one outlier" 1 (List.length rejected);
  Alcotest.(check (float 1e-9)) "the outlier" 100. (List.hd rejected);
  Alcotest.(check int) "rest kept" 6 (List.length kept)

let test_no_false_rejection () =
  let samples = [ 1.; 1.01; 0.99; 1.005; 0.995 ] in
  let kept, rejected = Stats.reject_outliers samples in
  Alcotest.(check int) "none rejected" 0 (List.length rejected);
  Alcotest.(check int) "all kept" 5 (List.length kept)

let test_summary () =
  let s = Stats.summarize [ 10.; 10.2; 9.8; 10.1; 9.9; 50. ] in
  Alcotest.(check int) "rejected outlier" 1 s.Stats.rejected;
  Alcotest.(check bool) "mean near 10" true (Float.abs (s.Stats.mean -. 10.) < 0.2);
  Alcotest.(check bool) "ci positive" true (s.Stats.ci95_half_width > 0.);
  Alcotest.(check bool) "min<=median<=max" true
    (s.Stats.minimum <= s.Stats.median && s.Stats.median <= s.Stats.maximum)

let test_summary_empty () =
  match Stats.summarize [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty sample must be rejected"

let test_relative_error () =
  Alcotest.(check (float 1e-9)) "10%" 0.1 (Stats.relative_error ~estimate:1.1 ~truth:1.0);
  Alcotest.(check (float 1e-9)) "zero truth" 2. (Stats.relative_error ~estimate:2. ~truth:0.)

(* ------------------------------------------------------------------ *)
(* Driver generation *)

let suite_of name =
  let pm = Xpdl_core.Power.of_element (model name) in
  List.hd pm.Xpdl_core.Power.pm_suites

let test_driver_source () =
  let suite = suite_of "liu_gpu_server" in
  let bench = List.hd suite.Xpdl_core.Power.su_benches in
  let src = Driver.generate_driver ~suite ~bench in
  let contains affix =
    let al = String.length affix and sl = String.length src in
    let rec go i = i + al <= sl && (String.sub src i al = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has main" true (contains "int main(void)");
  Alcotest.(check bool) "meter hook" true (contains "energy_read()");
  Alcotest.(check bool) "pins core" true (contains "xpdl_pin_to_core");
  Alcotest.(check bool) "names instruction" true (contains bench.Xpdl_core.Power.mb_instruction);
  Alcotest.(check bool) "unrolled" true (contains "UNROLL")

let test_driver_script () =
  let suite = suite_of "liu_gpu_server" in
  let script = Driver.generate_script suite in
  Alcotest.(check bool) "shell" true (String.length script > 10 && String.sub script 0 9 = "#!/bin/sh");
  List.iter
    (fun (b : Xpdl_core.Power.microbenchmark) ->
      let affix = b.Xpdl_core.Power.mb_id ^ ".exe" in
      let al = String.length affix and sl = String.length script in
      let rec go i = i + al <= sl && (String.sub script i al = affix || go (i + 1)) in
      Alcotest.(check bool) ("builds " ^ b.Xpdl_core.Power.mb_id) true (go 0))
    suite.Xpdl_core.Power.su_benches

let test_emit_suite_files () =
  let suite = suite_of "liu_gpu_server" in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "xpdl_drivers_test" in
  let files = Driver.emit_suite ~dir suite in
  Alcotest.(check int) "one file per bench + script"
    (List.length suite.Xpdl_core.Power.su_benches + 1)
    (List.length files);
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists p);
      Sys.remove p)
    files;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Bootstrap *)

let test_bootstrap_fills_placeholders () =
  let m = model "liu_gpu_server" in
  Alcotest.(check bool) "has placeholders before" true
    (Bootstrap.remaining_placeholders m <> []);
  let m', results = Bootstrap.run m in
  Alcotest.(check (list string)) "none after" [] (Bootstrap.remaining_placeholders m');
  Alcotest.(check bool) "results produced" true (List.length results >= 7)

let test_bootstrap_accuracy () =
  (* the derived energies must track the simulator's hidden ground truth
     to within a few percent (2% meter noise, 9 repetitions) *)
  let m = model "liu_gpu_server" in
  let machine = Xpdl_simhw.Machine.create ~seed:11 m in
  let _, results = Bootstrap.run ~machine m in
  List.iter
    (fun (r : Bootstrap.result) ->
      let truth =
        Xpdl_simhw.Truth.energy machine.Xpdl_simhw.Machine.truth ~name:r.instruction
          ~hz:machine.Xpdl_simhw.Machine.cores.(0).Xpdl_simhw.Machine.hz
      in
      let err = Stats.relative_error ~estimate:r.energy.Stats.mean ~truth in
      if err > 0.05 then
        Alcotest.failf "%s: derived %.3e vs truth %.3e (err %.1f%%)" r.instruction
          r.energy.Stats.mean truth (err *. 100.))
    results

let test_bootstrap_repetitions_reduce_ci () =
  let m = model "liu_gpu_server" in
  let run reps seed =
    let machine = Xpdl_simhw.Machine.create ~seed m in
    let _, results =
      Bootstrap.run ~opts:{ Bootstrap.default_options with repetitions = reps } ~machine m
    in
    let r = List.hd results in
    r.Bootstrap.energy.Stats.ci95_half_width /. r.Bootstrap.energy.Stats.mean
  in
  (* average over seeds to avoid flakiness *)
  let avg reps = (run reps 1 +. run reps 2 +. run reps 3) /. 3. in
  Alcotest.(check bool) "more reps, tighter CI" true (avg 40 < avg 5)

let test_bootstrap_writes_energy_attrs () =
  let m = model "liu_gpu_server" in
  let m', _ = Bootstrap.run m in
  let isa = Option.get (Xpdl_core.Model.find_by_name "x86_base_isa" m') in
  let fmul = Option.get (Xpdl_core.Model.find_by_name "fmul" isa) in
  match Xpdl_core.Model.attr_quantity fmul "energy" with
  | Some q ->
      let j = Xpdl_units.Units.value q in
      Alcotest.(check bool) "pJ scale" true (j > 1e-12 && j < 1e-9)
  | None -> Alcotest.fail "fmul energy must be written back"

let test_bootstrap_frequency_sweep () =
  let m = model "liu_gpu_server" in
  let machine = Xpdl_simhw.Machine.create ~seed:13 m in
  let opts =
    { Bootstrap.default_options with frequencies = [ 1.2e9; 1.6e9; 2.0e9 ] }
  in
  let m', results = Bootstrap.run ~opts ~machine m in
  let r = List.find (fun r -> r.Bootstrap.instruction = "fmul") results in
  Alcotest.(check int) "3 sweep points" 3 (List.length r.Bootstrap.per_frequency);
  let energies = List.map snd r.Bootstrap.per_frequency in
  Alcotest.(check bool) "monotone in f" true
    (List.sort Float.compare energies = energies);
  (* the sweep is recorded as <data> rows like Listing 14's divsd *)
  let isa = Option.get (Xpdl_core.Model.find_by_name "x86_base_isa" m') in
  let fmul = Option.get (Xpdl_core.Model.find_by_name "fmul" isa) in
  Alcotest.(check int) "data rows written" 3
    (List.length (Xpdl_core.Model.children_of_kind fmul Xpdl_core.Schema.Data));
  (* clocks restored *)
  Alcotest.(check (float 0.)) "nominal clock restored"
    machine.Xpdl_simhw.Machine.cores.(0).Xpdl_simhw.Machine.nominal_hz
    machine.Xpdl_simhw.Machine.cores.(0).Xpdl_simhw.Machine.hz

let test_adaptive_measurement () =
  let m = model "liu_gpu_server" in
  let machine = Xpdl_simhw.Machine.create ~seed:41 m in
  (* a loose target stops quickly; a tight one takes more samples *)
  let loose = Bootstrap.measure_adaptive ~target_rci:0.05 machine ~name:"fadd" ~iterations:100_000 in
  let machine2 = Xpdl_simhw.Machine.create ~seed:41 m in
  let tight =
    Bootstrap.measure_adaptive ~target_rci:0.005 machine2 ~name:"fadd" ~iterations:100_000
  in
  Alcotest.(check bool) "at least 3 samples" true (loose.Stats.n + loose.Stats.rejected >= 3);
  Alcotest.(check bool) "tight needs more samples" true
    (tight.Stats.n + tight.Stats.rejected > loose.Stats.n + loose.Stats.rejected);
  Alcotest.(check bool) "tight CI achieved" true
    (tight.Stats.ci95_half_width <= 0.005 *. tight.Stats.mean +. 1e-18);
  (* the cap is respected *)
  let machine3 = Xpdl_simhw.Machine.create ~seed:41 m in
  let capped =
    Bootstrap.measure_adaptive ~target_rci:1e-9 ~max_samples:10 machine3 ~name:"fadd"
      ~iterations:100_000
  in
  Alcotest.(check bool) "cap respected" true (capped.Stats.n + capped.Stats.rejected <= 10)

let test_adaptive_rejects_nan () =
  (* regression: a meter occasionally returning NaN must not poison the
     adaptive loop — non-finite samples are discarded and resampled, and
     the summary is computed from finite readings only *)
  let m = model "liu_gpu_server" in
  let machine = Xpdl_simhw.Machine.create ~seed:41 m in
  Xpdl_simhw.Machine.inject_faults machine
    (Xpdl_simhw.Faults.create
       ~script:
         [ Some Xpdl_simhw.Faults.Nan_read; None; Some Xpdl_simhw.Faults.Nan_read; None; None ]
       ~seed:8 ());
  let s = Bootstrap.measure_adaptive ~target_rci:0.05 machine ~name:"fadd" ~iterations:100_000 in
  Alcotest.(check bool) "mean is finite" true (Float.is_finite s.Stats.mean);
  Alcotest.(check bool) "kept at least 3 finite samples" true
    (s.Stats.n + s.Stats.rejected >= 3);
  Alcotest.(check bool) "ci is finite" true (Float.is_finite s.Stats.ci95_half_width);
  (* an all-NaN meter must fail loudly, not return NaN statistics *)
  let machine2 = Xpdl_simhw.Machine.create ~seed:41 m in
  Xpdl_simhw.Machine.inject_faults machine2
    (Xpdl_simhw.Faults.create ~rate:1.0 ~kinds:[ Xpdl_simhw.Faults.Nan_read ] ~seed:8 ());
  (match
     Bootstrap.measure_adaptive ~target_rci:0.05 ~max_samples:12 machine2 ~name:"fadd"
       ~iterations:100_000
   with
  | exception Invalid_argument _ -> ()
  | s2 -> Alcotest.failf "all-NaN meter yielded a summary (mean %g)" s2.Stats.mean)

let test_bootstrap_force_remeasures () =
  let src =
    {|<cpu name="c" frequency="2" frequency_unit="GHz">
        <core frequency="2" frequency_unit="GHz"/>
        <instructions name="i"><inst name="fixed" energy="7" energy_unit="pJ"/></instructions>
      </cpu>|}
  in
  let m = Xpdl_core.Elaborate.of_string_exn src in
  let _, results_default = Bootstrap.run m in
  Alcotest.(check int) "fixed not measured by default" 0 (List.length results_default);
  let _, results_forced =
    Bootstrap.run ~opts:{ Bootstrap.default_options with force = true } m
  in
  Alcotest.(check int) "forced measures it" 1 (List.length results_forced)

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "microbench"
    [
      ( "stats",
        [
          case "mean/median" test_mean_median;
          case "stddev" test_stddev;
          case "outlier rejection" test_outlier_rejection;
          case "no false rejection" test_no_false_rejection;
          case "summary" test_summary;
          case "empty sample" test_summary_empty;
          case "relative error" test_relative_error;
        ] );
      ( "driver",
        [
          case "C source" test_driver_source;
          case "suite script" test_driver_script;
          case "emit to directory" test_emit_suite_files;
        ] );
      ( "bootstrap",
        [
          case "fills placeholders" test_bootstrap_fills_placeholders;
          case "accuracy vs ground truth" test_bootstrap_accuracy;
          case "repetitions tighten CI" test_bootstrap_repetitions_reduce_ci;
          case "writes energy attributes" test_bootstrap_writes_energy_attrs;
          case "frequency sweep" test_bootstrap_frequency_sweep;
          case "force remeasure" test_bootstrap_force_remeasures;
          case "adaptive repetitions" test_adaptive_measurement;
          case "adaptive rejects NaN" test_adaptive_rejects_nan;
        ] );
    ]
