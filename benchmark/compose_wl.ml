(** The compose_liu workload: the static toolchain of the paper's
    Sec. IV on the bundled [liu_gpu_server], through [Pipeline.run] with
    the default configuration — what [xpdltool process] runs.  The inputs
    are the bundled models, so the seed does not apply. *)

open Xpdl_core
module Pipeline = Xpdl_toolchain.Pipeline
module Analysis = Xpdl_toolchain.Analysis
module Ir = Xpdl_toolchain.Ir
module Repo = Xpdl_repo.Repo
module Machine = Xpdl_simhw.Machine
module Bootstrap = Xpdl_microbench.Bootstrap

(** The composed system and the node count of its runtime model. *)
let system = "liu_gpu_server"

let nodes = 5173

let run_pipeline system =
  match Pipeline.run ~system () with Ok r -> r | Error msg -> failwith msg

(* The output check of one composition: the .xrt image equals the
   reference image, the runtime model has the expected node count, and
   no error diagnostic was raised. *)
let output_ok ~nodes ~reference ir diags bytes =
  String.equal bytes reference && Ir.size ir = nodes
  && not (List.exists Diagnostic.is_error diags)

(* ISAs whose instructions the bootstrap measured. *)
let isas_measured model (results : Bootstrap.result list) =
  let measured = List.map (fun (r : Bootstrap.result) -> r.Bootstrap.instruction) results in
  List.length
    (List.filter
       (fun (isa : Power.isa) ->
         List.exists
           (fun (i : Power.instruction) -> List.mem i.Power.in_name measured)
           isa.Power.isa_instructions)
       (Power.of_element model).Power.pm_isas)

(* [Pipeline.run]'s stages in order, each inside a span, on the
   non-resilient bootstrap path [default_config] takes.  Returns the
   runtime model, its .xrt image, the composition diagnostics and the
   number of ISAs measured. *)
let replay tr system =
  let cfg = Pipeline.default_config in
  let span name f = Bench.span tr name f in
  let repo =
    span "repo.browse_parse" (fun () ->
        let r = Repo.create () in
        List.iter (Repo.add_root r) cfg.Pipeline.search_path;
        r)
  in
  let composed =
    match
      span "repo.compose" (fun () ->
          Repo.compose_by_name ~config:cfg.Pipeline.parameter_config repo system)
    with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let model, _links =
    span "toolchain.analysis" (fun () -> Analysis.effective_bandwidths composed.Repo.model)
  in
  let machine =
    span "simhw.machine_create" (fun () -> Machine.create ~seed:cfg.Pipeline.machine_seed model)
  in
  let model, results =
    span "microbench.bootstrap" (fun () ->
        Bootstrap.run ~opts:cfg.Pipeline.bootstrap_opts ~machine model)
  in
  ignore (Bootstrap.remaining_placeholders model);
  let filtered =
    span "toolchain.filter" (fun () ->
        Analysis.filter_attributes ~drop:cfg.Pipeline.filter_drop model)
  in
  let ir = span "toolchain.ir_build" (fun () -> Ir.of_model filtered) in
  let bytes = span "toolchain.ir_encode" (fun () -> Ir.to_bytes ir) in
  (ir, bytes, composed.Repo.comp_diags, isas_measured model results)

let covering =
  [
    "repo.browse_parse"; "repo.compose"; "toolchain.analysis"; "simhw.machine_create";
    "microbench.bootstrap"; "toolchain.filter"; "toolchain.ir_build"; "toolchain.ir_encode";
  ]

(* Set-ups of a timed run: a cold [xpdltool process] in a fresh process,
   from spawn to exit — what every invocation pays. *)
let setups = 9

let run (cfg : Bench.config) =
  let tally = Bench.tally () in
  let first = run_pipeline system in
  let reference = Ir.to_bytes first.Pipeline.runtime_model in
  Bench.record tally
    (output_ok ~nodes ~reference first.runtime_model first.diagnostics reference
    && Result.is_ok (Ir.verify (Ir.of_bytes reference)))
    "%s: first composition failed its output check" system;
  let check (r : Pipeline.report) =
    Bench.record tally
      (output_ok ~nodes ~reference r.runtime_model r.diagnostics (Ir.to_bytes r.runtime_model))
      "%s: composition differs from the first" system
  in
  let min_ops = if cfg.smoke then 1 else 3 in
  if not cfg.trace then begin
    let cold = ref 0 in
    let cold_process () =
      let out = Filename.concat cfg.work (Fmt.str "cold%d.xrt" !cold) in
      incr cold;
      Bench.record tally
        (Bench.run_process cfg [| cfg.xpdltool; "process"; system; "-o"; out |])
        "%s: xpdltool process failed" system
    in
    let latency, setup_times =
      Bench.timed_loop ~seconds:cfg.seconds ~min_ops ~setups cold_process
        (fun () -> run_pipeline system)
        check
    in
    let rss = Bench.peak_rss_mb "self" in
    for k = 0 to setups - 1 do
      let out = Filename.concat cfg.work (Fmt.str "cold%d.xrt" k) in
      Bench.record tally
        (Sys.file_exists out && String.equal (In_channel.with_open_bin out In_channel.input_all) reference)
        "%s: xpdltool process wrote a different .xrt image" system
    done;
    (tally, ("setup_s", Bench.median setup_times) :: ("peak_rss_mb", rss) :: latency)
  end
  else begin
    (* untraced compositions alternate with traced replays, so both see
       the same machine state on average *)
    let tr = Bench.tracer () in
    let untraced = ref 0. and alloc = ref 0. and isas = ref 0 in
    let pairs =
      Bench.repeat ~seconds:cfg.seconds ~min_ops:1 (fun _ ->
          let r, dt = Bench.timed_compacted (fun () -> run_pipeline system) in
          untraced := !untraced +. dt;
          check r;
          Gc.compact ();
          let a0 = Gc.allocated_bytes () in
          let ir, bytes, diags, n = replay tr system in
          alloc := !alloc +. (Gc.allocated_bytes () -. a0);
          isas := n;
          Bench.record tally (output_ok ~nodes ~reference ir diags bytes)
            "%s: replayed stages produced a different .xrt image" system)
    in
    ( tally,
      Bench.shares tr ~ops:pairs ~op_mean:(!untraced /. float_of_int pairs) ~covering
      @ [
          ("gc.alloc_mb_per_op", !alloc /. float_of_int pairs /. 1e6);
          ("toolchain.ir_nodes", float_of_int (Ir.size first.runtime_model));
          ("microbench.isas_measured", float_of_int !isas);
        ] )
  end
