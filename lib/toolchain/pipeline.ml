(** The XPDL processing tool: the end-to-end static pipeline of Sec. IV.

    "It browses the XPDL model repository for all required XPDL files
    recursively referenced in a concrete model tree, parses them,
    generates an intermediate representation of the composed model,
    generates microbenchmarking driver code, invokes runs of
    microbenchmarks where required to derive attributes with unspecified
    values, filters out uninteresting values, performs static analysis of
    the model, and builds a light-weight run-time data structure that is
    finally written into a file."

    Each stage is timed; the report drives experiments E1–E5. *)

open Xpdl_core

type config = {
  search_path : string list;  (** repository roots *)
  parameter_config : Instantiate.env;  (** deployment-time param choices *)
  run_bootstrap : bool;  (** microbenchmark the ["?"] entries *)
  bootstrap_opts : Xpdl_microbench.Bootstrap.options;
  filter_drop : string list;  (** attributes filtered from the runtime model *)
  emit_drivers_to : string option;  (** directory for generated driver code *)
  machine_seed : int;
}

let default_config =
  {
    search_path = [ "models" ];
    parameter_config = [];
    run_bootstrap = true;
    bootstrap_opts = Xpdl_microbench.Bootstrap.default_options;
    filter_drop = Analysis.default_filtered;
    emit_drivers_to = None;
    machine_seed = 42;
  }

type stage_timing = { stage : string; seconds : float }

type report = {
  system : string;
  runtime_model : Ir.t;
  model : Model.element;  (** analyzed, bootstrapped model *)
  diagnostics : Diagnostic.t list;
  link_reports : Analysis.link_report list;
  bootstrap_results : Xpdl_microbench.Bootstrap.result list;
  descriptors_used : string list;
  timings : stage_timing list;
  runtime_model_bytes : int;
}

let timed timings name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  timings := { stage = name; seconds = Unix.gettimeofday () -. t0 } :: !timings;
  r

(** Run the full pipeline for the concrete system named [system].
    [repo] may be supplied pre-loaded (to amortize parsing across runs);
    otherwise the search path is scanned. *)
let run ?(config = default_config) ?repo ~system () : (report, string) result =
  let timings = ref [] in
  let repo =
    match repo with
    | Some r -> r
    | None ->
        timed timings "browse+parse" (fun () ->
            let r = Xpdl_repo.Repo.create () in
            List.iter (Xpdl_repo.Repo.add_root r) config.search_path;
            r)
  in
  match
    timed timings "compose" (fun () ->
        Xpdl_repo.Repo.compose_by_name ~config:config.parameter_config repo system)
  with
  | Error msg -> Error msg
  | Ok composed ->
      let diags = ref composed.Xpdl_repo.Repo.comp_diags in
      let model = composed.Xpdl_repo.Repo.model in
      (* static analysis: bandwidth downgrading *)
      let model, link_reports =
        timed timings "static-analysis" (fun () -> Analysis.effective_bandwidths model)
      in
      (* microbenchmark driver generation *)
      (match config.emit_drivers_to with
      | None -> ()
      | Some dir ->
          timed timings "driver-codegen" (fun () ->
              let pm = Power.of_element model in
              List.iter
                (fun suite -> ignore (Xpdl_microbench.Driver.emit_suite ~dir suite))
                pm.Power.pm_suites));
      (* deployment-time bootstrap of unspecified energy entries, guarded
         so a broken machine degrades the model instead of killing the
         pipeline *)
      let model, bootstrap_results =
        if not config.run_bootstrap then (model, [])
        else
          timed timings "bootstrap" (fun () ->
              let machine = Xpdl_simhw.Machine.create ~seed:config.machine_seed model in
              try Xpdl_microbench.Bootstrap.run ~opts:config.bootstrap_opts ~machine model
              with e ->
                (* a hung meter or a dead core must not abort the
                   composition: keep the un-bootstrapped model, account
                   for the failure, and let XPDL310 flag the leftovers *)
                diags :=
                  !diags
                  @ [
                      Diagnostic.error ~code:"XPDL500"
                        "microbenchmark bootstrap failed (%s); continuing with unresolved \
                         entries"
                        (Printexc.to_string e);
                    ];
                (model, []))
      in
      (match Xpdl_microbench.Bootstrap.remaining_placeholders model with
      | [] -> ()
      | missing when config.run_bootstrap ->
          diags :=
            !diags
            @ [
                Diagnostic.warning ~code:"XPDL310" "bootstrap left unresolved energy entries: %s"
                  (String.concat ", " missing);
              ]
      | _ -> ());
      (* filtering *)
      let filtered =
        timed timings "filter" (fun () ->
            Analysis.filter_attributes ~drop:config.filter_drop model)
      in
      (* runtime model build + serialization *)
      let ir = timed timings "runtime-model" (fun () -> Ir.of_model filtered) in
      let bytes = timed timings "serialize" (fun () -> Ir.to_bytes ir) in
      Ok
        {
          system;
          runtime_model = ir;
          model;
          diagnostics = !diags;
          link_reports;
          bootstrap_results;
          descriptors_used = composed.Xpdl_repo.Repo.descriptors_used;
          timings = List.rev !timings;
          runtime_model_bytes = String.length bytes;
        }

(** Run the pipeline and write the runtime-model file to [output]. *)
let run_to_file ?config ?repo ~system ~output () =
  match run ?config ?repo ~system () with
  | Error _ as e -> e
  | Ok report ->
      Ir.to_file output report.runtime_model;
      Ok report

let pp_timings ppf timings =
  List.iter (fun t -> Fmt.pf ppf "  %-16s %8.3f ms@." t.stage (t.seconds *. 1e3)) timings
