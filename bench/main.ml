(* The XPDL benchmark harness: regenerates experiments E1–E15 of
   EXPERIMENTS.md.  Serving, DSE, repository-fleet and WAL performance
   is measured end to end by the repository benchmark in benchmark/
   (BENCHMARK.json), not here.

   The paper (a language-design paper) has no numbered result tables; the
   quantities worth measuring are the toolchain stages it describes, the
   runtime-query design point it argues for, and the three motivating use
   cases (microbenchmark bootstrap, conditional composition, DVFS
   optimization).  Each experiment below prints the series EXPERIMENTS.md
   records.  Micro-latency numbers come from Bechamel (OLS over monotonic
   clock); end-to-end numbers are wall-clock over repetitions.

   Run with:  dune exec bench/main.exe             (all experiments)
              dune exec bench/main.exe -- E5 E6    (a subset)
              dune exec bench/main.exe -- --json BENCH_2026-08-06.json E5
                  (additionally write machine-readable rows) *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* harness helpers *)

(* machine-readable results: {experiment, metric, value, unit} rows,
   written as JSON when --json FILE is given, so the perf trajectory is
   comparable across PRs *)
let current_exp = ref ""
let bench_rows : (string * string * float * string) list ref = ref []

let record ~metric ~value ~unit_ () =
  bench_rows := (!current_exp, metric, value, unit_) :: !bench_rows

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      let rows = List.rev !bench_rows in
      List.iteri
        (fun i (experiment, metric, value, unit_) ->
          Printf.fprintf oc
            "  {\"experiment\": %s, \"metric\": %s, \"value\": %.6g, \"unit\": %s}%s\n"
            (Xpdl_kernel.json_string experiment) (Xpdl_kernel.json_string metric) value
            (Xpdl_kernel.json_string unit_)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "]\n");
  Fmt.pr "wrote %d bench rows to %s@." (List.length !bench_rows) path

let header fmt =
  (* compact between experiments so GC pressure from one experiment does
     not distort the next one's timings *)
  Gc.compact ();
  Fmt.kstr (fun s -> Fmt.pr "@.=== %s ===@." s) fmt

(* Per-test measurement quota in seconds; XPDL_BENCH_QUOTA overrides it
   (CI smoke runs use a small value — timings are then indicative only) *)
let quota_s =
  match Sys.getenv_opt "XPDL_BENCH_QUOTA" with
  | Some s -> ( match float_of_string_opt s with Some q when q > 0. -> q | _ -> 0.5)
  | None -> 0.5

(* Run a Bechamel test and return ns/run (OLS estimate vs run count). *)
let time_ns test : (string * float) list =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~stabilize:true ~kde:None ()
  in
  let raw = Benchmark.all cfg instances test in
  let res = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> (name, est) :: acc
      | _ -> acc)
    res []
  |> List.sort compare

let pp_times rows =
  List.iter
    (fun (name, ns) ->
      record ~metric:name ~value:ns ~unit_:"ns/run" ();
      let v, unit =
        if ns > 1e9 then (ns /. 1e9, "s")
        else if ns > 1e6 then (ns /. 1e6, "ms")
        else if ns > 1e3 then (ns /. 1e3, "us")
        else (ns, "ns")
      in
      Fmt.pr "  %-42s %10.2f %s/run@." name v unit)
    rows

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Robust one-shot timing for operations whose cost is the point (model
   init, decode): [warmup] unrecorded runs to fill caches and fault the
   page tables, then [runs] timed runs.  Scheduler preemption, frequency
   scaling and major-GC slices contaminate individual samples by
   milliseconds on a shared machine, and that noise is strictly
   one-sided (additive), so the estimator is the mean of the fastest
   third of the samples with a MAD-based cut on top: sort, keep the
   lowest max(5, runs/3), drop any of those beyond 3 scaled MADs of
   their own median.  Complements [time_ns]: Bechamel's OLS amortizes
   per-run noise but needs many iterations per sample, which hides
   cold-path effects behind allocator reuse. *)
let time_ns_trimmed ?(warmup = 16) ?runs f =
  let runs =
    match runs with Some r -> max 5 r | None -> max 31 (int_of_float (quota_s *. 400.))
  in
  let clock = Monotonic_clock.make () in
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let samples =
    Array.init runs (fun _ ->
        let t0 = Monotonic_clock.get clock in
        ignore (Sys.opaque_identity (f ()));
        Monotonic_clock.get clock -. t0)
  in
  Array.sort compare samples;
  let keep = max 5 (runs / 3) in
  let median = samples.(keep / 2) in
  let dev = Array.init keep (fun i -> Float.abs (samples.(i) -. median)) in
  Array.sort compare dev;
  let mad = dev.(keep / 2) in
  (* 1.4826 rescales the MAD to a stddev equivalent; the epsilon keeps a
     quantized clock (MAD = 0) from trimming everything but the median *)
  let cut = median +. Float.max (3. *. 1.4826 *. mad) (0.001 *. median) in
  let sum = ref 0. and kept = ref 0 in
  for i = 0 to keep - 1 do
    if samples.(i) <= cut then begin
      sum := !sum +. samples.(i);
      incr kept
    end
  done;
  !sum /. float_of_int !kept

let repo = lazy (Xpdl_repo.Repo.load_bundled ())

let composed name =
  match Xpdl_repo.Repo.compose_by_name (Lazy.force repo) name with
  | Ok c -> c.Xpdl_repo.Repo.model
  | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* E1: parse + elaboration throughput vs model size *)

let synthetic_cpu_source n_cores =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<cpu name=\"synthetic\">\n";
  for i = 0 to n_cores - 1 do
    Fmt.kstr (Buffer.add_string buf)
      "<group id=\"g%d\"><core id=\"c%d\" frequency=\"2\" frequency_unit=\"GHz\"/><cache name=\"L1_%d\" size=\"32\" unit=\"KiB\"/></group>\n"
      i i i
  done;
  Buffer.add_string buf "</cpu>";
  Buffer.contents buf

let e1 () =
  header "E1: parse + elaboration throughput vs model size";
  Fmt.pr "%-10s %12s %12s %14s@." "elements" "parse" "elaborate" "MB/s (parse)";
  List.iter
    (fun n ->
      let src = synthetic_cpu_source n in
      let elements = (3 * n) + 1 in
      let times =
        time_ns
          (Test.make_grouped ~name:(string_of_int n) ~fmt:"%s/%s"
             [
               Test.make ~name:"parse"
                 (Staged.stage (fun () -> Xpdl_xml.Parse.string_exn src));
               Test.make ~name:"elaborate"
                 (Staged.stage (fun () ->
                      Xpdl_core.Elaborate.of_string ~lenient:true src));
             ])
      in
      let find key = List.assoc_opt (string_of_int n ^ "/" ^ key) times in
      match (find "parse", find "elaborate") with
      | Some p, Some e ->
          Fmt.pr "%-10d %10.1f us %10.1f us %14.1f@." elements (p /. 1e3) (e /. 1e3)
            (float_of_int (String.length src) /. p *. 1e3)
      | _ -> ())
    [ 10; 100; 1000; 5000 ]

(* ------------------------------------------------------------------ *)
(* E2: composition scaling on the real systems *)

let e2 () =
  header "E2: composition (resolve + inherit + expand + validate)";
  Fmt.pr "%-16s %10s %14s %12s@." "system" "elements" "compose" "per element";
  List.iter
    (fun name ->
      let times =
        time_ns
          (Test.make ~name
             (Staged.stage (fun () ->
                  Xpdl_repo.Repo.compose_by_name (Lazy.force repo) name)))
      in
      match times with
      | [ (_, ns) ] ->
          let size = Xpdl_core.Model.size (composed name) in
          Fmt.pr "%-16s %10d %12.2f ms %10.1f ns@." name size (ns /. 1e6)
            (ns /. float_of_int size)
      | _ -> ())
    [ "myriad_server"; "liu_gpu_server"; "XScluster" ]

(* ------------------------------------------------------------------ *)
(* E3: static analysis *)

let e3 () =
  header "E3: static analysis (bandwidth downgrade + graph)";
  let xs = composed "XScluster" in
  let liu = composed "liu_gpu_server" in
  pp_times
    (time_ns
       (Test.make_grouped ~name:"analysis" ~fmt:"%s %s"
          [
            Test.make ~name:"liu effective_bandwidths"
              (Staged.stage (fun () -> Xpdl_toolchain.Analysis.effective_bandwidths liu));
            Test.make ~name:"cluster effective_bandwidths"
              (Staged.stage (fun () -> Xpdl_toolchain.Analysis.effective_bandwidths xs));
            Test.make ~name:"cluster graph + components"
              (Staged.stage (fun () ->
                   Xpdl_toolchain.Analysis.connected_components
                     (Xpdl_toolchain.Analysis.build_graph xs)));
          ]));
  let _, reports = Xpdl_toolchain.Analysis.effective_bandwidths xs in
  Fmt.pr "  cluster links analyzed: %d (%d downgraded)@." (List.length reports)
    (List.length (List.filter (fun r -> r.Xpdl_toolchain.Analysis.lr_downgraded) reports))

(* ------------------------------------------------------------------ *)
(* E4: microbenchmark bootstrap — cost and accuracy *)

let e4 () =
  header "E4: energy-model bootstrap (cost and accuracy vs ground truth)";
  let m = composed "liu_gpu_server" in
  Fmt.pr "%-6s %12s %16s %16s@." "reps" "wall time" "mean |error|" "max |error|";
  List.iter
    (fun reps ->
      let machine = Xpdl_simhw.Machine.create ~seed:17 m in
      let opts = { Xpdl_microbench.Bootstrap.default_options with repetitions = reps } in
      let (_, results), dt = wall (fun () -> Xpdl_microbench.Bootstrap.run ~opts ~machine m) in
      let errors =
        List.map
          (fun (r : Xpdl_microbench.Bootstrap.result) ->
            let truth =
              Xpdl_simhw.Truth.energy machine.Xpdl_simhw.Machine.truth ~name:r.instruction
                ~hz:machine.Xpdl_simhw.Machine.cores.(0).Xpdl_simhw.Machine.nominal_hz
            in
            Xpdl_microbench.Stats.relative_error
              ~estimate:r.energy.Xpdl_microbench.Stats.mean ~truth)
          results
      in
      let mean = List.fold_left ( +. ) 0. errors /. float_of_int (List.length errors) in
      let maxe = List.fold_left Float.max 0. errors in
      Fmt.pr "%-6d %10.1f ms %15.2f%% %15.2f%%@." reps (dt *. 1e3) (mean *. 100.)
        (maxe *. 100.))
    [ 3; 9; 27; 81 ]

(* ------------------------------------------------------------------ *)
(* E5: runtime query latency — the serialized-model design point *)

module Ir = Xpdl_toolchain.Ir
module Q = Xpdl_query.Query

(* The seed release's O(n)/recursive query implementations, kept here as
   the "before" baselines for the indexed fast paths (preorder spans,
   by_path hashtable, per-handle memo, kind-index-seeded selectors). *)

let naive_find_by_path ir path =
  let n = Ir.size ir in
  let rec scan i =
    if i >= n then None
    else
      let node = Ir.node ir i in
      if String.equal node.Ir.n_path path then Some node else scan (i + 1)
  in
  scan 0

let naive_hardware_fold ir f acc (e : Ir.node) =
  let rec go acc (n : Ir.node) =
    if Q.is_metadata_kind n.Ir.n_kind then acc
    else Array.fold_left (fun acc i -> go acc (Ir.node ir i)) (f acc n) n.Ir.n_children
  in
  go acc e

let naive_count_cores ir =
  naive_hardware_fold ir
    (fun acc (n : Ir.node) ->
      if Xpdl_core.Schema.equal_kind n.Ir.n_kind Xpdl_core.Schema.Core then acc + 1 else acc)
    0 (Ir.root ir)

let naive_total_static_power ir =
  naive_hardware_fold ir
    (fun acc (n : Ir.node) ->
      if Xpdl_core.Schema.is_hardware n.Ir.n_kind then
        match Ir.attr n "static_power" with Some (Ir.VQty (v, _)) -> acc +. v | _ -> acc
      else acc)
    0. (Ir.root ir)

(* the seed release's //tag[@attr=v] select: materialize every node as
   the candidate set, then filter *)
let naive_select ir ~tag ~pred =
  let all = List.rev (Ir.fold_subtree ir (fun acc n -> n :: acc) [] (Ir.root ir)) in
  List.filter
    (fun (n : Ir.node) ->
      String.equal (Xpdl_core.Schema.tag_of_kind n.Ir.n_kind) tag && pred n)
    all

let e5_fast_paths ~system ir ~selector ~naive_selector =
  let q = Q.of_ir ir in
  let deep_path = (Ir.node ir (Ir.size ir - 1)).Ir.n_path in
  (* Warm the handle before timing: these rows claim *repeated-query*
     latency, and since the arena builds its path/kind indexes and memo
     tables lazily (PR 6), the first call would otherwise charge a
     one-time O(n) index build to the steady-state estimate (one-time
     init cost is E15's metric, not E5's). *)
  ignore (Q.find_by_path q deep_path);
  ignore (Q.count_cores q);
  ignore (Q.total_static_power q);
  ignore (Q.select q selector);
  Fmt.pr "  -- %s (%d nodes): indexed fast paths vs naive scans --@." system (Ir.size ir);
  let times =
    time_ns
      (Test.make_grouped ~name:system ~fmt:"%s %s"
         [
           Test.make ~name:"find_by_path naive"
             (Staged.stage (fun () -> naive_find_by_path ir deep_path));
           Test.make ~name:"find_by_path fast"
             (Staged.stage (fun () -> Q.find_by_path q deep_path));
           Test.make ~name:"count_cores naive" (Staged.stage (fun () -> naive_count_cores ir));
           Test.make ~name:"count_cores fast" (Staged.stage (fun () -> Q.count_cores q));
           Test.make ~name:"total_static_power naive"
             (Staged.stage (fun () -> naive_total_static_power ir));
           Test.make ~name:"total_static_power fast"
             (Staged.stage (fun () -> Q.total_static_power q));
           Test.make ~name:"select naive" (Staged.stage (fun () -> naive_selector ir));
           Test.make ~name:"select fast" (Staged.stage (fun () -> Q.select q selector));
         ])
  in
  let get k = List.assoc_opt (system ^ " " ^ k) times in
  Fmt.pr "  %-22s %12s %12s %9s@." "operation" "naive" "fast" "speedup";
  List.iter
    (fun metric ->
      match (get (metric ^ " naive"), get (metric ^ " fast")) with
      | Some before, Some after ->
          let speedup = before /. after in
          record ~metric:(Fmt.str "%s/%s/naive" system metric) ~value:before ~unit_:"ns/run" ();
          record ~metric:(Fmt.str "%s/%s/fast" system metric) ~value:after ~unit_:"ns/run" ();
          record ~metric:(Fmt.str "%s/%s/speedup" system metric) ~value:speedup ~unit_:"x" ();
          Fmt.pr "  %-22s %10.2f us %10.3f us %8.1fx@." metric (before /. 1e3) (after /. 1e3)
            speedup
      | _ -> Fmt.pr "  %-22s (missing measurement)@." metric)
    [ "find_by_path"; "count_cores"; "total_static_power"; "select" ]

let synthetic_ir n_cores =
  Ir.of_model (Xpdl_core.Elaborate.of_string_exn ~lenient:true (synthetic_cpu_source n_cores))

let e5 () =
  header "E5: runtime query API vs re-parsing the specification";
  let report =
    match
      Xpdl_toolchain.Pipeline.run ~repo:(Lazy.force repo) ~system:"liu_gpu_server" ()
    with
    | Ok r -> r
    | Error m -> failwith m
  in
  let rt_file = Filename.temp_file "bench" ".xrt" in
  Xpdl_toolchain.Ir.to_file rt_file report.Xpdl_toolchain.Pipeline.runtime_model;
  let xml_text =
    Xpdl_xml.Print.to_string (Xpdl_core.Model.to_xml report.Xpdl_toolchain.Pipeline.model)
  in
  let q = Xpdl_query.Query.init rt_file in
  let gpu = Xpdl_query.Query.find_by_id_exn q "gpu1" in
  pp_times
    (time_ns
       (Test.make_grouped ~name:"query" ~fmt:"%s %s"
          [
            Test.make ~name:"init (load runtime model)"
              (Staged.stage (fun () -> Xpdl_query.Query.init rt_file));
            Test.make ~name:"re-parse XML instead"
              (Staged.stage (fun () -> Xpdl_xml.Parse.string_exn xml_text));
            Test.make ~name:"getter (static_power)"
              (Staged.stage (fun () ->
                   Xpdl_query.Query.get_quantity gpu "static_power"
                     ~dim:Xpdl_units.Units.Power));
            Test.make ~name:"find_by_id"
              (Staged.stage (fun () -> Xpdl_query.Query.find_by_id q "SM12"));
            Test.make ~name:"count_cores (derived)"
              (Staged.stage (fun () -> Xpdl_query.Query.count_cores q));
            Test.make ~name:"total_static_power (derived)"
              (Staged.stage (fun () -> Xpdl_query.Query.total_static_power q));
            Test.make ~name:"has_installed"
              (Staged.stage (fun () -> Xpdl_query.Query.has_installed q "CUDA_6.0"));
          ]));
  Sys.remove rt_file;
  Fmt.pr "  runtime model: %d nodes, %d bytes on disk; XML text %d bytes@."
    (Xpdl_toolchain.Ir.size report.Xpdl_toolchain.Pipeline.runtime_model)
    report.Xpdl_toolchain.Pipeline.runtime_model_bytes (String.length xml_text);
  let level3 (n : Ir.node) = Q.get_string n "level" = Some "3" in
  e5_fast_paths ~system:"XScluster"
    (Ir.of_model (composed "XScluster"))
    ~selector:"//cache[@level=3]"
    ~naive_selector:(fun ir -> naive_select ir ~tag:"cache" ~pred:level3);
  e5_fast_paths ~system:"synthetic_10k" (synthetic_ir 3333) ~selector:"//cache"
    ~naive_selector:(fun ir -> naive_select ir ~tag:"cache" ~pred:(fun _ -> true))

(* ------------------------------------------------------------------ *)
(* E6: the SpMV conditional-composition case study *)

let e6 () =
  header "E6: conditional composition — SpMV variant selection (ref [3])";
  let m = composed "liu_gpu_server" in
  let query = Xpdl_query.Query.of_model m in
  let machine = Xpdl_simhw.Machine.create ~noise_sigma:0.005 m in
  let rows = 4000 in
  List.iter
    (fun iterations ->
      Fmt.pr "  -- %d iteration(s) --@." iterations;
      Fmt.pr "  %-9s %-10s %11s %11s %11s %9s@." "density" "chosen" "cpu_csr" "cpu_dense"
        "gpu_csr" "speedup";
      List.iter
        (fun density ->
          let ctx = Xpdl_compose.Spmv.context ~iterations ~query ~machine ~rows ~density () in
          let chosen, tuned = Xpdl_compose.Compose.dispatch Xpdl_compose.Spmv.component ctx in
          let t name =
            match Xpdl_compose.Compose.run_variant Xpdl_compose.Spmv.component ctx name with
            | Some meas -> meas.Xpdl_simhw.Machine.elapsed
            | None -> nan
          in
          let tc = t "cpu_csr" and td = t "cpu_dense" and tg = t "gpu_csr" in
          let worst = List.fold_left Float.max 0. [ tc; td; tg ] in
          Fmt.pr "  %-9.4f %-10s %9.3fms %9.3fms %9.3fms %8.1fx@." density chosen (tc *. 1e3)
            (td *. 1e3) (tg *. 1e3)
            (worst /. tuned.Xpdl_simhw.Machine.elapsed))
        [ 0.0005; 0.001; 0.005; 0.01; 0.05; 0.2; 0.6 ])
    [ 1; 100 ]

(* ------------------------------------------------------------------ *)
(* E7: DVFS optimization on the power state machine *)

let e7 () =
  header "E7: DVFS policies on the Xeon power state machine";
  let pm = Xpdl_core.Power.of_element (composed "liu_gpu_server") in
  let sm =
    List.find
      (fun s -> s.Xpdl_core.Power.sm_name = "E5_2630L_psm")
      pm.Xpdl_core.Power.pm_machines
  in
  let cycles = 2.0e9 in
  Fmt.pr "  job: %.1fG cycles; states: P1 1.2GHz/12W  P2 1.6GHz/16W  P3 2.0GHz/22W  C1 2.5W@."
    (cycles /. 1e9);
  Fmt.pr "  %-10s %14s %14s %14s %10s@." "deadline" "race-to-idle" "pace" "optimal" "saving";
  List.iter
    (fun deadline ->
      let cmp = Xpdl_energy.Dvfs.compare_policies sm ~start:"P3" ~cycles ~deadline in
      let energy policy =
        List.find_map
          (fun (p : Xpdl_energy.Dvfs.plan) ->
            if p.Xpdl_energy.Dvfs.policy = policy then Some p.Xpdl_energy.Dvfs.total_energy
            else None)
          cmp.Xpdl_energy.Dvfs.plans
      in
      match (energy "race-to-idle", energy "pace", energy "optimal") with
      | Some r, Some p, Some o ->
          Fmt.pr "  %8.2f s %12.2f J %12.2f J %12.2f J %9.1f%%@." deadline r p o
            (100. *. (1. -. (o /. Float.max r p)))
      | _ -> Fmt.pr "  %8.2f s infeasible@." deadline)
    [ 1.02; 1.1; 1.3; 1.7; 2.5; 4.0 ]

(* ------------------------------------------------------------------ *)
(* E8: hierarchical static-power aggregation *)

let e8 () =
  header "E8: synthesized static power over the XScluster tree";
  let xs = composed "XScluster" in
  pp_times
    (time_ns
       (Test.make_grouped ~name:"aggregate" ~fmt:"%s %s"
          [
            Test.make ~name:"static_power (44k elements)"
              (Staged.stage (fun () -> Xpdl_energy.Aggregate.static_power xs));
            Test.make ~name:"core_count"
              (Staged.stage (fun () -> Xpdl_energy.Aggregate.core_count xs));
            Test.make ~name:"breakdown table"
              (Staged.stage (fun () -> Xpdl_energy.Aggregate.static_power_breakdown xs));
          ]));
  let total, table = Xpdl_energy.Aggregate.static_power_breakdown xs in
  Fmt.pr "  total %.1f W over %d table entries; per node:@." total (List.length table);
  List.iter
    (fun (path, w) ->
      if String.length path = 12 && String.sub path 0 11 = "XScluster/n" then
        Fmt.pr "    %-14s %8.2f W@." path w)
    table

(* ------------------------------------------------------------------ *)
(* E9: XPDL vs PDL baseline *)

let e9 () =
  header "E9: XPDL vs PEPPHER PDL";
  let liu = composed "liu_gpu_server" in
  let pdl = Xpdl_pdl.Pdl.of_xpdl liu in
  let pdl_text = Xpdl_pdl.Pdl.to_string pdl in
  let dir_bytes dir =
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat dir f in
        if Filename.check_suffix f ".xpdl" then acc + (Unix.stat p).Unix.st_size else acc)
      0 (Sys.readdir dir)
  in
  let models_dir =
    match Xpdl_repo.Repo.locate_models () with Some d -> d | None -> "models"
  in
  let xpdl_bytes =
    List.fold_left (fun acc sub -> acc + dir_bytes (Filename.concat models_dir sub)) 0
      [ "hardware"; "software"; "systems"; "microbench" ]
  in
  let system_file_bytes =
    (Unix.stat (Filename.concat models_dir "systems/liu_gpu_server.xpdl")).Unix.st_size
  in
  Fmt.pr "  modular reuse: whole XPDL repository (43 descriptors, 3 systems) = %d bytes;@."
    xpdl_bytes;
  Fmt.pr "                 adding the GPU server costs only its system file  = %d bytes@."
    system_file_bytes;
  Fmt.pr "  expressiveness: composed XPDL model of that system = %d typed elements;@."
    (Xpdl_core.Model.size liu);
  Fmt.pr "                  the PDL downgrade keeps %d PUs + %d string properties (%d bytes) — the
                  hierarchy, units, power model and constraints are lost@."
    (List.length (Xpdl_pdl.Pdl.all_pus pdl))
    (List.fold_left (fun acc pu -> acc + List.length pu.Xpdl_pdl.Pdl.pu_properties) 0
       (Xpdl_pdl.Pdl.all_pus pdl)
    + List.length pdl.Xpdl_pdl.Pdl.platform_properties)
    (String.length pdl_text);
  let bad_xpdl =
    [
      ("bad enum", {|<cache name="c" replacement="MRU"/>|});
      ("bad unit dim", {|<cache name="c" size="32" unit="GHz"/>|});
      ("bad number", {|<cache name="c" size="thirty-two" unit="KiB"/>|});
      ("bad containment", {|<cache name="c"><cpu name="x"/></cache>|});
    ]
  in
  let caught =
    List.filter
      (fun (_, src) ->
        match Xpdl_core.Elaborate.of_string src with
        | Ok (_, diags) -> List.exists Xpdl_core.Diagnostic.is_error diags
        | Error _ -> true)
      bad_xpdl
  in
  Fmt.pr "  static checking: XPDL rejects %d/%d seeded specification errors; PDL accepts all (strings)@."
    (List.length caught) (List.length bad_xpdl);
  let q = Xpdl_query.Query.of_model liu in
  pp_times
    (time_ns
       (Test.make_grouped ~name:"E9" ~fmt:"%s %s"
          [
            Test.make ~name:"XPDL typed query (has_installed)"
              (Staged.stage (fun () -> Xpdl_query.Query.has_installed q "CUDA_6.0"));
            Test.make ~name:"PDL string query (exists)"
              (Staged.stage (fun () -> Xpdl_pdl.Pdl.query pdl "exists(platform.INSTALLED_CUDA_6.0)"));
          ]))

(* ------------------------------------------------------------------ *)
(* E10: power-domain switch-off semantics *)

let e10 () =
  header "E10: Myriad power domains (Listing 12 semantics)";
  (* scope to the MV153 board: the domains of Listing 12 govern the
     Myriad1, not the Xeon host *)
  let server =
    Option.get (Xpdl_core.Model.find_by_id "mv153board" (composed "myriad_server"))
  in
  let scenario switches =
    let d = Option.get (Xpdl_energy.Domains.of_model server) in
    List.iter (fun s -> s d) switches;
    Xpdl_energy.Domains.idle_power d
  in
  let all_on = scenario [] in
  let shaves_off = scenario [ (fun d -> Xpdl_energy.Domains.switch_off_group d "Shave_pds") ] in
  let cmx_off =
    scenario
      [
        (fun d -> Xpdl_energy.Domains.switch_off_group d "Shave_pds");
        (fun d -> Xpdl_energy.Domains.switch_off d "CMX_pd");
      ]
  in
  Fmt.pr "  idle power: all on %.3f W; Shaves off %.3f W (-%.1f%%); +CMX off %.3f W (-%.1f%%)@."
    all_on shaves_off
    (100. *. (1. -. (shaves_off /. all_on)))
    cmx_off
    (100. *. (1. -. (cmx_off /. all_on)));
  let d = Option.get (Xpdl_energy.Domains.of_model server) in
  let refused name =
    match Xpdl_energy.Domains.switch_off d name with
    | exception Xpdl_energy.Domains.Switch_error _ -> true
    | () -> false
  in
  Fmt.pr "  rule checks: main_pd refuse=%b, premature CMX refuse=%b@." (refused "main_pd")
    (refused "CMX_pd");
  pp_times
    (time_ns
       (Test.make ~name:"domain tracker build + group switch"
          (Staged.stage (fun () ->
               let d = Option.get (Xpdl_energy.Domains.of_model server) in
               Xpdl_energy.Domains.switch_off_group d "Shave_pds";
               Xpdl_energy.Domains.idle_power d))))

(* ------------------------------------------------------------------ *)
(* E11: model-based prediction accuracy (ablation: with/without bootstrap) *)

let e11 () =
  header "E11: predicted vs simulated cost (bootstrap ablation)";
  let m0 = composed "liu_gpu_server" in
  let machine = Xpdl_simhw.Machine.create ~seed:29 m0 in
  let m_boot, _ = Xpdl_microbench.Bootstrap.run ~machine m0 in
  let quiet = Xpdl_simhw.Machine.create ~noise_sigma:0. m0 in
  let phases =
    [
      ("axpy 100k", 100_000, Xpdl_simhw.Kernels.axpy ~n:100_000);
      ("axpy 1M", 1_000_000, Xpdl_simhw.Kernels.axpy ~n:1_000_000);
      ( "spmv d=0.01",
        0,
        Xpdl_simhw.Kernels.spmv_csr_cpu (Xpdl_simhw.Kernels.spmv ~rows:2000 ~density:0.01 ()) );
      ( "spmv d=0.2",
        0,
        Xpdl_simhw.Kernels.spmv_csr_cpu (Xpdl_simhw.Kernels.spmv ~rows:2000 ~density:0.2 ()) );
    ]
  in
  let tb_boot = Xpdl_energy.Predict.tables_of_model m_boot in
  let tb_raw = Xpdl_energy.Predict.tables_of_model m0 in
  Fmt.pr "  %-14s %12s %12s | %14s %14s@." "phase" "sim time" "sim energy" "pred err (boot)"
    "pred err (raw)";
  List.iter
    (fun (name, _, (w : Xpdl_simhw.Machine.workload)) ->
      let meas = Xpdl_simhw.Machine.run ~cores_used:4 quiet w in
      let phase =
        Xpdl_energy.Predict.phase ~memory_accesses:w.Xpdl_simhw.Machine.memory_accesses
          ~parallel_fraction:w.Xpdl_simhw.Machine.parallel_fraction ~cores_used:4
          w.Xpdl_simhw.Machine.instructions
      in
      let err tb =
        let p = Xpdl_energy.Predict.predict tb ~hz:2e9 phase in
        Xpdl_microbench.Stats.relative_error
          ~estimate:p.Xpdl_energy.Predict.pr_dynamic_energy
          ~truth:meas.Xpdl_simhw.Machine.dynamic_energy
      in
      Fmt.pr "  %-14s %10.3f ms %10.3f mJ | %13.1f%% %13.1f%%@." name
        (meas.Xpdl_simhw.Machine.elapsed *. 1e3)
        (meas.Xpdl_simhw.Machine.dynamic_energy *. 1e3)
        (err tb_boot *. 100.) (err tb_raw *. 100.))
    phases;
  Fmt.pr "  (raw = model before microbenchmarking: '?' entries contribute no energy)@."

(* ------------------------------------------------------------------ *)
(* E12: generated views and the runtime-model codec *)

let e12 () =
  header "E12: generated artifacts and codec ablation";
  let m = composed "liu_gpu_server" in
  let ir = Xpdl_toolchain.Ir.of_model m in
  let binary = Xpdl_toolchain.Ir.to_bytes ir in
  let xml = Xpdl_xml.Print.to_string (Xpdl_core.Model.to_xml m) in
  Fmt.pr "  serialized sizes: binary runtime model %d bytes, XML text %d bytes (%.2fx)@."
    (String.length binary) (String.length xml)
    (float_of_int (String.length binary) /. float_of_int (String.length xml));
  pp_times
    (time_ns
       (Test.make_grouped ~name:"codec" ~fmt:"%s %s"
          [
            Test.make ~name:"encode binary"
              (Staged.stage (fun () -> Xpdl_toolchain.Ir.to_bytes ir));
            Test.make ~name:"decode binary"
              (Staged.stage (fun () -> Xpdl_toolchain.Ir.of_bytes binary));
            Test.make ~name:"print XML"
              (Staged.stage (fun () -> Xpdl_xml.Print.to_string (Xpdl_core.Model.to_xml m)));
            Test.make ~name:"parse XML"
              (Staged.stage (fun () -> Xpdl_xml.Parse.string_exn xml));
          ]));
  let uml = Xpdl_toolchain.Uml.metamodel_diagram () in
  let xsd = Xpdl_toolchain.Xsd.generate () in
  let hpp = Xpdl_toolchain.Cpp_codegen.generate_header () in
  Fmt.pr "  generated views: UML %d bytes, xpdl.xsd %d bytes (%d elements), C++ header %d bytes (%d getters)@."
    (String.length uml) (String.length xsd)
    (Xpdl_toolchain.Xsd.element_count ())
    (String.length hpp)
    (Xpdl_toolchain.Cpp_codegen.getter_count ())

(* ------------------------------------------------------------------ *)
(* E13: system-wide energy compositionality *)

let e13 () =
  header "E13: energy compositionality (accounted schedule vs simulation)";
  let m0 = composed "liu_gpu_server" in
  let machine = Xpdl_simhw.Machine.create ~seed:31 m0 in
  let m, _ = Xpdl_microbench.Bootstrap.run ~machine m0 in
  let quiet = Xpdl_simhw.Machine.create ~noise_sigma:0. m0 in
  Fmt.pr "  %-10s %14s %14s %10s %10s@." "phases" "acc. time" "acc. energy" "t err" "E err";
  List.iter
    (fun phases ->
      let n = 100_000 in
      let steps =
        List.concat
          (List.init phases (fun i ->
               [
                 Xpdl_energy.Account.Compute
                   {
                     label = Fmt.str "cpu%d" i;
                     component = "gpu_host";
                     hz = 2e9;
                     phase =
                       Xpdl_energy.Predict.phase ~memory_accesses:(n / 8)
                         ~parallel_fraction:0.9 ~cores_used:4
                         [ ("fmul", n); ("fadd", n); ("ld", 2 * n); ("st", n) ];
                   };
                 Xpdl_energy.Account.Transfer
                   { label = Fmt.str "x%d" i; link = "connection1"; bytes = 500_000 };
               ]))
      in
      let acc = Xpdl_energy.Account.run m steps in
      (* simulate the same schedule *)
      let sim_t = ref 0. and sim_e = ref 0. in
      for _ = 1 to phases do
        let meas = Xpdl_simhw.Machine.run ~cores_used:4 quiet (Xpdl_simhw.Kernels.axpy ~n) in
        let xt, xe = Xpdl_simhw.Machine.transfer quiet ~link:"connection1" ~bytes:500_000 in
        sim_t := !sim_t +. meas.Xpdl_simhw.Machine.elapsed +. xt;
        sim_e := !sim_e +. meas.Xpdl_simhw.Machine.dynamic_energy +. xe
      done;
      Fmt.pr "  %-10d %11.3f ms %11.4f mJ %9.2f%% %9.2f%%@." phases
        (acc.Xpdl_energy.Account.rp_duration *. 1e3)
        (acc.Xpdl_energy.Account.rp_dynamic_energy *. 1e3)
        (100.
        *. Xpdl_microbench.Stats.relative_error
             ~estimate:acc.Xpdl_energy.Account.rp_duration ~truth:!sim_t)
        (100.
        *. Xpdl_microbench.Stats.relative_error
             ~estimate:acc.Xpdl_energy.Account.rp_dynamic_energy ~truth:!sim_e))
    [ 1; 4; 16; 64 ];
  Fmt.pr "  (error does not grow with schedule length: energies compose)@."

(* E14: edit → re-query — the incremental store vs whole-tree recompute *)

module Store = Xpdl_store.Store
module Aggregate = Xpdl_energy.Aggregate

(* A hierarchical synthetic model (fanout^depth groups of cores): with
   nesting, an edit's invalidation spine touches depth × fanout cached
   nodes, not the whole tree.  fanout=10, depth=3 → 11,111 elements. *)
let synthetic_tree ~fanout ~depth =
  let module M = Xpdl_core.Model in
  let module S = Xpdl_core.Schema in
  let rec build level i =
    if level = 0 then
      M.make S.Core
        ~id:(Fmt.str "c%d" i)
        ~attrs:
          [
            ("static_power", M.Quantity (Xpdl_units.Units.watts 0.25, "W"));
            ("frequency", M.Quantity (Xpdl_units.Units.hertz 2e9, "GHz"));
          ]
    else
      M.make S.Group
        ~id:(Fmt.str "g%d_%d" level i)
        ~children:(List.init fanout (fun j -> build (level - 1) ((i * fanout) + j)))
  in
  M.make S.Cpu ~name:"synthetic_10k" ~children:(List.init fanout (fun j -> build depth j))

let e14 () =
  header "E14: incremental edit -> re-query vs full recompute (synthetic_10k)";
  let module M = Xpdl_core.Model in
  let m0 = synthetic_tree ~fanout:10 ~depth:3 in
  let leaf = [ 0; 0; 0; 0 ] in
  Fmt.pr "  model: %d elements; editing one core's static_power, re-querying@." (M.size m0);
  (* full arm: apply the edit to the immutable tree, recompute both
     derived attributes from scratch (the pre-store discipline) *)
  let full_model = ref m0 in
  let watt = ref 0.25 in
  let next_power () =
    watt := if !watt > 10. then 0.25 else !watt +. 0.125;
    M.Quantity (Xpdl_units.Units.watts !watt, "W")
  in
  let full_round () =
    full_model := M.update_at !full_model leaf (fun e -> M.set_attr e "static_power" (next_power ()));
    (Aggregate.static_power !full_model, Aggregate.core_count !full_model)
  in
  (* incremental arm: the same edit through the store, re-derivation
     along the spine only *)
  let store = Store.of_model m0 in
  ignore (Store.static_power store);
  ignore (Store.core_count store);
  let store_round () =
    Store.set_attr store leaf "static_power" (next_power ());
    (Store.static_power store, Store.core_count store)
  in
  (* the two disciplines must agree before timing anything: apply one
     identical edit to both and compare *)
  let parity = M.Quantity (Xpdl_units.Units.watts 3.5, "W") in
  full_model := M.update_at !full_model leaf (fun e -> M.set_attr e "static_power" parity);
  Store.set_attr store leaf "static_power" parity;
  let fv, fc = (Aggregate.static_power !full_model, Aggregate.core_count !full_model) in
  let sv, sc = (Store.static_power store, Store.core_count store) in
  if not (Float.equal fv sv && fc = sc) then
    failwith (Fmt.str "E14: incremental (%g W, %d cores) != full (%g W, %d cores)" sv sc fv fc);
  let times =
    time_ns
      (Test.make_grouped ~name:"edit_requery" ~fmt:"%s %s"
         [
           Test.make ~name:"full" (Staged.stage (fun () -> full_round ()));
           Test.make ~name:"incremental" (Staged.stage (fun () -> store_round ()));
         ])
  in
  (match
     ( List.assoc_opt "edit_requery full" times,
       List.assoc_opt "edit_requery incremental" times )
   with
  | Some full, Some inc ->
      let speedup = full /. inc in
      record ~metric:"synthetic_10k/edit_requery/full" ~value:full ~unit_:"ns/run" ();
      record ~metric:"synthetic_10k/edit_requery/incremental" ~value:inc ~unit_:"ns/run" ();
      record ~metric:"synthetic_10k/edit_requery/speedup" ~value:speedup ~unit_:"x" ();
      Fmt.pr "  %-22s %10.2f us/round@." "full recompute" (full /. 1e3);
      Fmt.pr "  %-22s %10.2f us/round@." "incremental store" (inc /. 1e3);
      Fmt.pr "  %-22s %9.1fx@." "speedup" speedup
  | _ -> Fmt.pr "  (missing measurement)@.");
  Fmt.pr "  store state after run: %a@." Store.pp store

(* ------------------------------------------------------------------ *)
(* E15: flat arena wire format — zero-copy model init *)

(* The v2 wire format *is* the in-memory arena: loading = header parse +
   one O(n) structural validation pass, no tree rebuild.  (The v1
   node-records arm was removed with the v1 reader; its last numbers
   are in EXPERIMENTS.md.) *)
let e15 () =
  header "E15: zero-copy arena init (v2)";
  let bench_model name ir =
    let v2 = Ir.to_bytes ir in
    let v2_file = Filename.temp_file "bench_v2" ".xrt" in
    Ir.to_file v2_file ir;
    let t_v2 = time_ns_trimmed (fun () -> Q.init v2_file) in
    let t_decode = time_ns_trimmed (fun () -> Ir.of_bytes v2) in
    let t_verify = time_ns_trimmed (fun () -> Ir.verify (Ir.of_bytes v2)) in
    Sys.remove v2_file;
    record ~metric:(name ^ "/init/v2") ~value:t_v2 ~unit_:"ns/run" ();
    record ~metric:(name ^ "/init/of_bytes_v2") ~value:t_decode ~unit_:"ns/run" ();
    record ~metric:(name ^ "/init/verify") ~value:t_verify ~unit_:"ns/run" ();
    Fmt.pr "  -- %s: %d nodes, %d bytes --@." name (Ir.size ir) (String.length v2);
    Fmt.pr "  %-30s %10.1f us@." "init from v2 (zero-copy)" (t_v2 /. 1e3);
    Fmt.pr "  %-30s %10.1f us@." "of_bytes alone" (t_decode /. 1e3);
    Fmt.pr "  %-30s %10.1f us@." "full checksum (verify)" (t_verify /. 1e3);
    t_v2
  in
  let ir10k = synthetic_ir 3333 in
  let t10k = bench_model "synthetic_10k" ir10k in
  ignore (bench_model "liu_gpu_server" (Ir.of_model (composed "liu_gpu_server")));
  Fmt.pr "  target: synthetic_10k init < 100 us -> %s (%.1f us)@."
    (if t10k < 100e3 then "MET" else "MISSED")
    (t10k /. 1e3);
  (* the reworked //tag selector on the same model: id-level evaluation
     seeded from the kind index, plus the per-handle select memo *)
  let t_naive =
    time_ns_trimmed ~runs:31 (fun () ->
        naive_select ir10k ~tag:"cache" ~pred:(fun _ -> true))
  in
  let t_cold = time_ns_trimmed (fun () -> Q.select (Q.of_ir ir10k) "//cache") in
  let q = Q.of_ir ir10k in
  let t_memo = time_ns_trimmed (fun () -> Q.select q "//cache") in
  record ~metric:"synthetic_10k/select/naive" ~value:t_naive ~unit_:"ns/run" ();
  record ~metric:"synthetic_10k/select/cold" ~value:t_cold ~unit_:"ns/run" ();
  record ~metric:"synthetic_10k/select/memo" ~value:t_memo ~unit_:"ns/run" ();
  record ~metric:"synthetic_10k/select/cold_speedup" ~value:(t_naive /. t_cold) ~unit_:"x" ();
  record ~metric:"synthetic_10k/select/memo_speedup" ~value:(t_naive /. t_memo) ~unit_:"x" ();
  Fmt.pr "  select //cache (10k nodes): naive %.1f us, cold %.1f us (%.1fx), memoized %.3f us (%.0fx)@."
    (t_naive /. 1e3) (t_cold /. 1e3) (t_naive /. t_cold) (t_memo /. 1e3) (t_naive /. t_memo)

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6); ("E7", e7);
    ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12); ("E13", e13);
    ("E14", e14); ("E15", e15) ]

let () =
  let json_file = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse_args acc rest
    | "--json" :: [] ->
        Fmt.epr "--json requires a file argument@.";
        exit 2
    | name :: rest -> parse_args (name :: acc) rest
  in
  let requested =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  (* reject a misspelt or retired name before anything runs, so a
     caller that gates on the exit status cannot pass by running nothing *)
  (match List.filter (fun n -> not (List.mem_assoc n experiments)) requested with
  | [] -> ()
  | unknown ->
      Fmt.epr "unknown experiment %a; valid: %a@." Fmt.(list ~sep:sp string) unknown
        Fmt.(list ~sep:sp string) (List.map fst experiments);
      exit 2);
  Fmt.pr "XPDL benchmark harness — experiments %a@." Fmt.(list ~sep:sp string) requested;
  List.iter
    (fun name ->
      current_exp := name;
      (* isolate experiments from each other's heap state: without
         this, allocation-heavy early experiments leave a large
         fragmented major heap that inflates later one-shot
         measurements by an order of magnitude *)
      Gc.compact ();
      (List.assoc name experiments) ())
    requested;
  Fmt.pr "@.done.@.";
  Option.iter write_json !json_file
